#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/parallel.h"
#include "common/rng.h"
#include "dense_oracle.h"
#include "gnn/trainer.h"
#include "graph/corpus.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"

namespace fexiot {
namespace {

// Random dense matrix with the given fraction of nonzero entries.
Matrix RandomSparseDense(size_t rows, size_t cols, double density,
                         Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    if (rng->Uniform() < density) m.data()[i] = rng->Normal(0.0, 1.0);
  }
  return m;
}

Matrix RandomDense(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Normal(0.0, 1.0);
  return m;
}

void ExpectBitEqual(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::memcmp(&a.data()[i], &b.data()[i], sizeof(double)), 0)
        << what << " element " << i << ": " << a.data()[i]
        << " != " << b.data()[i];
  }
}

TEST(CsrMatrix, DenseRoundTripIsExact) {
  Rng rng(3);
  for (double density : {0.0, 0.05, 0.3, 1.0}) {
    const Matrix dense = RandomSparseDense(17, 13, density, &rng);
    const CsrMatrix csr = CsrMatrix::FromDense(dense);
    ExpectBitEqual(csr.ToDense(), dense, "round trip");
  }
}

TEST(CsrMatrix, DropsExactZerosIncludingNegativeZero) {
  Matrix dense(2, 3);
  dense.At(0, 1) = 0.5;
  dense.At(1, 0) = -0.0;  // structural: -0.0 == 0.0
  dense.At(1, 2) = -2.0;
  const CsrMatrix csr = CsrMatrix::FromDense(dense);
  EXPECT_EQ(csr.nnz(), 2u);
  EXPECT_EQ(csr.row_ptr().back(), 2u);
  // -0.0 densifies back to +0.0; the product is unaffected (both add 0.0).
  EXPECT_EQ(csr.ToDense().At(1, 0), 0.0);
}

TEST(CsrMatrix, FromRowListsMatchesFromDense) {
  Matrix dense(4, 5);
  dense.At(0, 0) = 1.5;
  dense.At(0, 4) = -0.25;
  dense.At(2, 1) = 3.0;
  dense.At(3, 3) = 0.125;
  std::vector<std::vector<std::pair<int, double>>> rows(4);
  rows[0] = {{0, 1.5}, {4, -0.25}};
  rows[1] = {};
  rows[2] = {{1, 3.0}, {2, 0.0}};  // explicit zero must be dropped
  rows[3] = {{3, 0.125}};
  const CsrMatrix a = CsrMatrix::FromRowLists(4, 5, rows);
  const CsrMatrix b = CsrMatrix::FromDense(dense);
  EXPECT_EQ(a.nnz(), b.nnz());
  EXPECT_EQ(a.row_ptr(), b.row_ptr());
  EXPECT_EQ(a.col_idx(), b.col_idx());
  EXPECT_EQ(a.values(), b.values());
}

TEST(CsrMatrix, TransposedIsExactAndOrdered) {
  Rng rng(9);
  const Matrix dense = RandomSparseDense(12, 19, 0.2, &rng);
  const CsrMatrix t = CsrMatrix::FromDense(dense).Transposed();
  EXPECT_EQ(t.rows(), 19u);
  EXPECT_EQ(t.cols(), 12u);
  // Columns strictly ascending within each row.
  for (size_t r = 0; r < t.rows(); ++r) {
    for (size_t k = t.row_ptr()[r] + 1; k < t.row_ptr()[r + 1]; ++k) {
      EXPECT_LT(t.col_idx()[k - 1], t.col_idx()[k]);
    }
  }
  const Matrix td = t.ToDense();
  for (size_t i = 0; i < dense.rows(); ++i) {
    for (size_t j = 0; j < dense.cols(); ++j) {
      EXPECT_EQ(td.At(j, i), dense.At(i, j));
    }
  }
}

// The load-bearing guarantee: SpMM reproduces the dense path bit for bit,
// because both accumulate each output element's nonzero terms in ascending
// source-column order (docs/KERNELS.md §2).
TEST(SpMM, BitExactParityWithDenseMatMul) {
  Rng rng(17);
  for (double density : {0.02, 0.1, 0.5}) {
    for (size_t n : {1u, 7u, 33u, 96u}) {
      const Matrix a_dense = RandomSparseDense(n, n, density, &rng);
      const Matrix b = RandomDense(n, 16, &rng);
      const CsrMatrix a = CsrMatrix::FromDense(a_dense);
      ExpectBitEqual(SpMM(a, b), ReferenceMatMul(a_dense, b),
                     "SpMM vs ReferenceMatMul");
    }
  }
}

TEST(SpMM, BitExactParityOnRectangular) {
  Rng rng(23);
  const Matrix a_dense = RandomSparseDense(40, 25, 0.15, &rng);
  const Matrix b = RandomDense(25, 9, &rng);
  const CsrMatrix a = CsrMatrix::FromDense(a_dense);
  ExpectBitEqual(SpMM(a, b), ReferenceMatMul(a_dense, b),
                 "rectangular SpMM");
}

TEST(SpMMTransA, BitExactParityWithDenseMatMulTransA) {
  Rng rng(29);
  for (double density : {0.05, 0.25}) {
    const Matrix a_dense = RandomSparseDense(30, 22, density, &rng);
    const Matrix b = RandomDense(30, 11, &rng);
    const CsrMatrix a = CsrMatrix::FromDense(a_dense);
    ExpectBitEqual(SpMMTransA(a, b), ReferenceMatMulTransA(a_dense, b),
                   "SpMMTransA vs ReferenceMatMulTransA");
  }
}

TEST(SpMM, InPlaceOutputReusesCapacityAndMatches) {
  Rng rng(31);
  const Matrix a_dense = RandomSparseDense(24, 24, 0.2, &rng);
  const CsrMatrix a = CsrMatrix::FromDense(a_dense);
  Matrix c;
  // Warm the workspace with a larger product, then shrink: values must
  // still be exact (stale content fully overwritten).
  SpMM(a, RandomDense(24, 32, &rng), &c);
  const Matrix b = RandomDense(24, 8, &rng);
  SpMM(a, b, &c);
  ExpectBitEqual(c, ReferenceMatMul(a_dense, b), "workspace reuse");
}

TEST(SpMM, EmptyMatrixProducesZeroRows) {
  const CsrMatrix a;  // 0 x 0
  const Matrix b(0, 5);
  Matrix c = SpMM(a, b);
  EXPECT_EQ(c.rows(), 0u);
  EXPECT_EQ(c.cols(), 5u);
}

TEST(SpMM, AllZeroRowsYieldExactZeros) {
  // A row with no nonzeros must produce an exactly-zero output row even
  // when the output matrix is a reused dirty workspace.
  Matrix a_dense(3, 3);
  a_dense.At(1, 1) = 2.0;
  const CsrMatrix a = CsrMatrix::FromDense(a_dense);
  Rng rng(37);
  Matrix c = RandomDense(3, 4, &rng);  // dirty
  SpMM(a, RandomDense(3, 4, &rng), &c);
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(c.At(0, j), 0.0);
    EXPECT_EQ(c.At(2, j), 0.0);
  }
}

TEST(SpMM, BitIdenticalAcrossThreadCounts) {
  Rng rng(41);
  // Big enough to clear the serial cutoff so the pool actually engages.
  const Matrix a_dense = RandomSparseDense(256, 256, 0.05, &rng);
  const Matrix b = RandomDense(256, 64, &rng);
  const CsrMatrix a = CsrMatrix::FromDense(a_dense);
  parallel::SetThreads(1);
  const Matrix c1 = SpMM(a, b);
  for (size_t threads : {2u, 4u, 8u}) {
    parallel::SetThreads(threads);
    ExpectBitEqual(SpMM(a, b), c1, "thread sweep");
  }
  parallel::SetThreads(0);
}

// ---------------------------------------------------------------------------
// PrepareGraph and the GNN against the dense test oracle
// (tests/dense_oracle.h).

InteractionGraph ChainGraph(int n, uint64_t seed) {
  Rng rng(seed);
  InteractionGraph g;
  for (int i = 0; i < n; ++i) {
    GraphNode node;
    node.rule.platform = Platform::kIfttt;
    node.features.resize(
        static_cast<size_t>(PlatformFeatureDim(Platform::kIfttt)));
    for (auto& f : node.features) f = rng.Normal(0.0, 0.5);
    g.AddNode(std::move(node));
  }
  for (int i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1);
  if (n > 2) g.AddEdge(0, n - 1);
  return g;
}

TEST(PrepareGraphModes, SparseCsrMatchesDenseMatrixExactly) {
  for (GnnType type : {GnnType::kGcn, GnnType::kGin}) {
    GnnConfig c;
    c.type = type;
    const InteractionGraph g = ChainGraph(9, 5);
    const PreparedGraph ps = PrepareGraph(g, c);
    const Matrix dense = testing::DensePropagationOracle(g, type);
    ExpectBitEqual(ps.prop_csr.ToDense(), dense, GnnTypeName(type));
    EXPECT_LT(ps.prop_csr.MemoryBytes(), dense.size() * sizeof(double));
  }
}

TEST(PrepareGraphModes, SingleNodeAndSelfLoopOnlyGraphs) {
  for (GnnType type : {GnnType::kGcn, GnnType::kGin}) {
    GnnConfig c;
    c.type = type;
    // Single node, no edges: propagation is the 1 x 1 self-loop.
    {
      const InteractionGraph g = ChainGraph(1, 7);
      const PreparedGraph p = PrepareGraph(g, c);
      EXPECT_EQ(p.prop_csr.nnz(), 1u);
      EXPECT_EQ(p.prop_csr.ToDense().At(0, 0), 1.0);
    }
    // Edgeless multi-node graph: self loops only (GCN degree 1 => value 1).
    {
      InteractionGraph g;
      for (int i = 0; i < 3; ++i) {
        GraphNode node;
        node.rule.platform = Platform::kIfttt;
        node.features.resize(
            static_cast<size_t>(PlatformFeatureDim(Platform::kIfttt)));
        g.AddNode(std::move(node));
      }
      const PreparedGraph ps = PrepareGraph(g, c);
      EXPECT_EQ(ps.prop_csr.nnz(), 3u);
      ExpectBitEqual(ps.prop_csr.ToDense(),
                     testing::DensePropagationOracle(g, type), "self loops");
    }
  }
}

TEST(PrepareGraphModes, ForwardIsBitIdenticalAcrossModes) {
  for (GnnType type : {GnnType::kGcn, GnnType::kGin, GnnType::kMagnn}) {
    GnnConfig c;
    c.type = type;
    c.hidden_dim = 8;
    c.embedding_dim = 6;
    GnnModel model(c);
    const InteractionGraph g = ChainGraph(11, 13);
    const PreparedGraph ps = PrepareGraph(g, c);
    const std::vector<double> zd = testing::DenseForwardOracle(model, g);
    const std::vector<double> zs = model.Forward(ps, nullptr);
    ASSERT_EQ(zd.size(), zs.size());
    for (size_t i = 0; i < zd.size(); ++i) {
      EXPECT_EQ(zd[i], zs[i]) << GnnTypeName(type) << " dim " << i;
    }
  }
}

// Corpus-shaped graphs over all five platforms: a few nodes each, with
// word-space (kHomoFeatureDim) and sentence-space (kHeteroFeatureDim)
// rules mixed.
std::vector<InteractionGraph> CorpusGraphs(int count, uint64_t seed) {
  CorpusOptions opts;
  opts.platforms = {Platform::kSmartThings, Platform::kHomeAssistant,
                    Platform::kIfttt, Platform::kGoogleAssistant,
                    Platform::kAlexa};
  opts.max_nodes = 12;
  Rng rng(seed);
  GraphCorpusGenerator gen(opts, &rng);
  return gen.GenerateDataset(count);
}

// PreparedGraph's input contract: GCN/GIN hold P X, MAGNN holds X, with X
// rebuilt from the graph under the pad/truncate rule. The wider config
// zero-pads every word-space row; both truncate sentence-space rows.
TEST(PrepareGraphInput, HoldsPropagatedFeaturesForGcnGinAndRawForMagnn) {
  const std::vector<InteractionGraph> graphs = CorpusGraphs(12, 31);
  size_t truncated = 0, padded = 0;
  for (int input_dim : {kHomoFeatureDim, kHomoFeatureDim + 5}) {
    for (GnnType type : {GnnType::kGcn, GnnType::kGin, GnnType::kMagnn}) {
      GnnConfig c;
      c.type = type;
      c.input_dim = input_dim;
      for (const InteractionGraph& g : graphs) {
        for (int i = 0; i < g.num_nodes(); ++i) {
          const int dim = static_cast<int>(g.node(i).features.size());
          truncated += dim > input_dim;
          padded += dim < input_dim;
        }
        const PreparedGraph p = PrepareGraph(g, c);
        const testing::DenseFeatures x = testing::DenseFeatureOracle(g, c);
        if (type == GnnType::kMagnn) {
          ExpectBitEqual(p.input, x.x, "MAGNN input is X");
          ExpectBitEqual(p.features_hetero, x.x_hetero, "MAGNN hetero rows");
        } else {
          ExpectBitEqual(
              p.input,
              ReferenceMatMul(testing::DensePropagationOracle(g, type), x.x),
              GnnTypeName(type));
          EXPECT_EQ(p.features_hetero.size(), 0u);
        }
        EXPECT_EQ(p.node_space, x.space);
      }
    }
  }
  EXPECT_GT(truncated, 0u);
  EXPECT_GT(padded, 0u);
}

// Backward reads each layer's propagated input from the forward's cache
// (GCN/GIN layer 0: the prepared P X); the dense oracle recomputes every
// propagation. Gradients must agree bit for bit.
TEST(PrepareGraphModes, BackwardIsBitIdenticalToDenseOracle) {
  const std::vector<InteractionGraph> graphs = CorpusGraphs(8, 47);
  for (GnnType type : {GnnType::kGcn, GnnType::kGin, GnnType::kMagnn}) {
    GnnConfig c;
    c.type = type;
    c.hidden_dim = 12;
    c.embedding_dim = 8;
    std::vector<double> grad(static_cast<size_t>(c.embedding_dim));
    for (size_t i = 0; i < grad.size(); ++i) {
      grad[i] = 0.3 * static_cast<double>(i) - 1.0;
    }
    for (const InteractionGraph& g : graphs) {
      GnnModel model(c);
      const PreparedGraph p = PrepareGraph(g, c);
      ForwardCache cache;
      const std::vector<double> z = model.Forward(p, &cache);
      EXPECT_EQ(z, testing::DenseForwardOracle(model, g)) << GnnTypeName(type);
      model.Backward(cache, grad);
      const std::vector<std::vector<double>> want =
          testing::DenseBackwardOracle(model, g, grad);
      ASSERT_EQ(want.size(), static_cast<size_t>(model.num_layers()));
      for (int l = 0; l < model.num_layers(); ++l) {
        const std::vector<double> got = model.GetLayerGradFlat(l);
        ASSERT_EQ(got.size(), want[static_cast<size_t>(l)].size());
        EXPECT_EQ(std::memcmp(got.data(), want[static_cast<size_t>(l)].data(),
                              got.size() * sizeof(double)),
                  0)
            << GnnTypeName(type) << " layer " << l << ", " << g.num_nodes()
            << " nodes";
      }
    }
  }
}

TEST(PrepareGraphModes, WorkspaceForwardMatchesAllocatingForward) {
  GnnConfig c;
  c.type = GnnType::kGcn;
  GnnModel model(c);
  GnnWorkspace ws;
  for (int n : {4, 12, 7}) {  // shrink mid-sequence to exercise reuse
    const PreparedGraph p = PrepareGraph(ChainGraph(n, 100 + n), c);
    const std::vector<double> plain = model.Forward(p, nullptr);
    ForwardCache cache;
    const std::vector<double>& wsz = model.Forward(p, &cache, &ws);
    ASSERT_EQ(plain.size(), wsz.size());
    for (size_t i = 0; i < plain.size(); ++i) EXPECT_EQ(plain[i], wsz[i]);
  }
}

TEST(PrepareGraphModes, WorkspaceBackwardMatchesAllocatingBackward) {
  GnnConfig c;
  c.type = GnnType::kGin;
  const PreparedGraph p = PrepareGraph(ChainGraph(6, 55), c);
  std::vector<double> grad(static_cast<size_t>(c.embedding_dim));
  for (size_t i = 0; i < grad.size(); ++i) {
    grad[i] = 0.25 * static_cast<double>(i + 1);
  }
  GnnModel m1(c), m2(c);
  ForwardCache c1, c2;
  GnnWorkspace ws;
  m1.Forward(p, &c1);
  m1.Backward(c1, grad);
  m2.Forward(p, &c2, &ws);
  m2.Backward(c2, grad, &ws);
  for (int l = 0; l < m1.num_layers(); ++l) {
    EXPECT_EQ(m1.GetLayerGradFlat(l), m2.GetLayerGradFlat(l)) << "layer "
                                                              << l;
  }
}

TEST(PrepareGraphModes, TrainerIsBitIdenticalAcrossThreadCounts) {
  // The per-shard-workspace trainer must preserve the thread-count
  // determinism contract.
  GnnConfig gc;
  gc.type = GnnType::kGcn;
  gc.hidden_dim = 8;
  gc.embedding_dim = 6;
  std::vector<InteractionGraph> graphs;
  for (int i = 0; i < 24; ++i) {
    InteractionGraph g = ChainGraph(4 + i % 5, 200 + static_cast<uint64_t>(i));
    g.set_label(i % 2);
    graphs.push_back(std::move(g));
  }
  const auto prep = PrepareGraphs(graphs, gc);
  auto train_with_threads = [&](size_t threads) {
    parallel::SetThreads(threads);
    GnnModel model(gc);
    TrainConfig tc;
    tc.epochs = 3;
    GnnTrainer trainer(&model, tc);
    Rng trng(7);
    trainer.Train(prep, &trng);
    std::vector<double> flat;
    for (int l = 0; l < model.num_layers(); ++l) {
      const auto lf = model.GetLayerFlat(l);
      flat.insert(flat.end(), lf.begin(), lf.end());
    }
    parallel::SetThreads(0);
    return flat;
  };
  const std::vector<double> w1 = train_with_threads(1);
  for (size_t threads : {3u, 8u}) {
    EXPECT_EQ(train_with_threads(threads), w1) << threads << " threads";
  }
}

}  // namespace
}  // namespace fexiot
