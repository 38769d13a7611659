#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "gnn/contrastive.h"
#include "gnn/gnn_model.h"
#include "gnn/trainer.h"
#include "graph/corpus.h"

namespace fexiot {
namespace {

// Builds a tiny synthetic interaction graph with controllable features.
InteractionGraph TinyGraph(int n, uint64_t seed, bool hetero = false) {
  Rng rng(seed);
  InteractionGraph g;
  for (int i = 0; i < n; ++i) {
    GraphNode node;
    node.rule.platform = (hetero && i % 2 == 0) ? Platform::kAlexa
                                                : Platform::kIfttt;
    const int dim = PlatformFeatureDim(node.rule.platform);
    node.features.resize(static_cast<size_t>(dim));
    for (auto& f : node.features) f = rng.Normal(0.0, 0.5);
    g.AddNode(std::move(node));
  }
  for (int i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1);
  if (n > 2) g.AddEdge(0, n - 1);
  return g;
}

GnnConfig SmallConfig(GnnType type) {
  GnnConfig c;
  c.type = type;
  c.input_dim = 12;
  c.hetero_input_dim = 20;
  c.hidden_dim = 6;
  c.num_layers = 2;
  c.embedding_dim = 4;
  c.seed = 11;
  return c;
}

// Shrinks node features to the small config dims.
InteractionGraph ShrinkFeatures(InteractionGraph g, const GnnConfig& c) {
  for (int i = 0; i < g.num_nodes(); ++i) {
    auto& f = g.mutable_node(i).features;
    const bool sentence =
        PlatformFeatureDim(g.node(i).rule.platform) == kHeteroFeatureDim;
    f.resize(static_cast<size_t>(sentence ? c.hetero_input_dim
                                          : c.input_dim));
  }
  return g;
}

TEST(GnnModel, ForwardShapes) {
  for (GnnType type : {GnnType::kGcn, GnnType::kGin, GnnType::kMagnn}) {
    const GnnConfig c = SmallConfig(type);
    GnnModel model(c);
    const InteractionGraph g =
        ShrinkFeatures(TinyGraph(5, 3, type == GnnType::kMagnn), c);
    const PreparedGraph p = PrepareGraph(g, c);
    const std::vector<double> z = model.Forward(p, nullptr);
    EXPECT_EQ(z.size(), static_cast<size_t>(c.embedding_dim))
        << GnnTypeName(type);
    for (double v : z) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(GnnModel, DeterministicForward) {
  const GnnConfig c = SmallConfig(GnnType::kGcn);
  GnnModel m1(c), m2(c);
  const InteractionGraph g = ShrinkFeatures(TinyGraph(4, 5), c);
  const PreparedGraph p = PrepareGraph(g, c);
  const auto z1 = m1.Forward(p, nullptr);
  const auto z2 = m2.Forward(p, nullptr);
  for (size_t i = 0; i < z1.size(); ++i) EXPECT_DOUBLE_EQ(z1[i], z2[i]);
}

TEST(GnnModel, LayerRoundTrip) {
  const GnnConfig c = SmallConfig(GnnType::kMagnn);
  GnnModel model(c);
  for (int l = 0; l < model.num_layers(); ++l) {
    std::vector<double> flat = model.GetLayerFlat(l);
    EXPECT_EQ(flat.size(), model.LayerSize(l));
    for (auto& v : flat) v += 0.25;
    model.SetLayerFlat(l, flat);
    const std::vector<double> back = model.GetLayerFlat(l);
    EXPECT_EQ(back, flat);
  }
}

TEST(GnnModel, MagnnHasInputProjectionLayer) {
  const GnnConfig gcn = SmallConfig(GnnType::kGcn);
  const GnnConfig magnn = SmallConfig(GnnType::kMagnn);
  EXPECT_EQ(GnnModel(gcn).num_layers(), gcn.num_layers + 1);
  EXPECT_EQ(GnnModel(magnn).num_layers(), magnn.num_layers + 2);
}

// The decisive correctness test: numerical gradient check of the full
// backward pass for every architecture.
class GnnGradientCheck : public ::testing::TestWithParam<GnnType> {};

TEST_P(GnnGradientCheck, MatchesNumericalGradient) {
  const GnnType type = GetParam();
  const GnnConfig c = SmallConfig(type);
  GnnModel model(c);
  const InteractionGraph g =
      ShrinkFeatures(TinyGraph(5, 7, type == GnnType::kMagnn), c);
  const PreparedGraph p = PrepareGraph(g, c);

  // Loss = 0.5 * ||z||^2 so dL/dz = z.
  auto loss = [&]() {
    const std::vector<double> z = model.Forward(p, nullptr);
    double s = 0.0;
    for (double v : z) s += 0.5 * v * v;
    return s;
  };

  ForwardCache cache;
  const std::vector<double> z = model.Forward(p, &cache);
  model.ZeroGrad();
  model.Backward(cache, z);

  // Compare Backward-accumulated gradients against central differences,
  // sampling a few parameters per layer.
  const double eps = 1e-6;
  for (int l = 0; l < model.num_layers(); ++l) {
    std::vector<double> flat = model.GetLayerFlat(l);
    const std::vector<double> analytic = model.GetLayerGradFlat(l);
    Rng pick(100 + static_cast<uint64_t>(l));
    const size_t checks = std::min<size_t>(10, flat.size());
    for (size_t k = 0; k < checks; ++k) {
      const size_t i = static_cast<size_t>(pick.UniformInt(flat.size()));
      std::vector<double> mod = flat;
      mod[i] = flat[i] + eps;
      model.SetLayerFlat(l, mod);
      const double up = loss();
      mod[i] = flat[i] - eps;
      model.SetLayerFlat(l, mod);
      const double down = loss();
      model.SetLayerFlat(l, flat);
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(analytic[i], numeric, 1e-4)
          << GnnTypeName(type) << " layer " << l << " param " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, GnnGradientCheck,
                         ::testing::Values(GnnType::kGcn, GnnType::kGin,
                                           GnnType::kMagnn));

TEST(ContrastiveLoss, SameClassPullsTogether) {
  const std::vector<double> zi = {1.0, 0.0};
  const std::vector<double> zj = {0.0, 1.0};
  const ContrastivePair p = ContrastiveLoss(zi, zj, false, 2.0);
  EXPECT_DOUBLE_EQ(p.loss, 2.0);  // d^2 = 2
  EXPECT_DOUBLE_EQ(p.grad_i[0], 2.0);
  EXPECT_DOUBLE_EQ(p.grad_i[1], -2.0);
}

TEST(ContrastiveLoss, SquaredMarginMatchesEq2) {
  const std::vector<double> zi = {0.5, 0.0};
  const std::vector<double> zj = {0.0, 0.0};
  const ContrastivePair p = ContrastiveLoss(
      zi, zj, true, 2.0, ContrastiveForm::kSquaredMargin);
  EXPECT_NEAR(p.loss, 2.0 - 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(p.grad_i[0], -1.0);
}

TEST(ContrastiveLoss, HadsellPushInsideMargin) {
  const std::vector<double> zi = {0.5, 0.0};
  const std::vector<double> zj = {0.0, 0.0};
  const ContrastivePair p = ContrastiveLoss(zi, zj, true, 2.0);
  // d = 0.5, gap = 1.5: L = 2.25, grad = -2*1.5/0.5 * 0.5 = -3.
  EXPECT_NEAR(p.loss, 2.25, 1e-12);
  EXPECT_NEAR(p.grad_i[0], -3.0, 1e-12);
}

TEST(ContrastiveLoss, HadsellPushNonVanishingAtCollapse) {
  // The stability property the Eq. 2 literal form lacks: coincident
  // embeddings still receive a push.
  const std::vector<double> z = {0.0, 0.0};
  const ContrastivePair p = ContrastiveLoss(z, z, true, 2.0);
  EXPECT_GT(std::fabs(p.grad_i[0]), 1.0);
}

TEST(ContrastiveLoss, DifferentClassOutsideMarginIsZero) {
  const std::vector<double> zi = {10.0, 0.0};
  const std::vector<double> zj = {0.0, 0.0};
  const ContrastivePair p = ContrastiveLoss(zi, zj, true, 2.0);
  EXPECT_DOUBLE_EQ(p.loss, 0.0);
  EXPECT_DOUBLE_EQ(p.grad_i[0], 0.0);
}

TEST(GnnTrainer, ContrastiveTrainingSeparatesClasses) {
  // Two synthetic classes with distinct feature signatures; after training
  // the mean intra-class embedding distance should be well below the mean
  // inter-class distance.
  GnnConfig c = SmallConfig(GnnType::kGcn);
  c.seed = 21;
  std::vector<InteractionGraph> graphs;
  Rng rng(22);
  for (int i = 0; i < 30; ++i) {
    InteractionGraph g = ShrinkFeatures(TinyGraph(5, rng.NextU64()), c);
    const int label = i % 2;
    // Class-dependent offset on the first feature dims.
    for (int v = 0; v < g.num_nodes(); ++v) {
      for (int d = 0; d < 4; ++d) {
        g.mutable_node(v).features[static_cast<size_t>(d)] +=
            label == 1 ? 1.5 : -1.5;
      }
    }
    g.set_label(label);
    graphs.push_back(std::move(g));
  }
  GnnModel model(c);
  TrainConfig tc;
  tc.epochs = 30;
  tc.learning_rate = 0.02;
  tc.margin = 4.0;
  GnnTrainer trainer(&model, tc);
  const std::vector<PreparedGraph> prepared = PrepareGraphs(graphs, c);
  Rng train_rng(23);
  trainer.Train(prepared, &train_rng);

  const Matrix emb = trainer.Embed(prepared);
  double intra = 0.0, inter = 0.0;
  int n_intra = 0, n_inter = 0;
  for (size_t i = 0; i < graphs.size(); ++i) {
    for (size_t j = i + 1; j < graphs.size(); ++j) {
      double d2 = 0.0;
      for (size_t k = 0; k < emb.cols(); ++k) {
        const double diff = emb.At(i, k) - emb.At(j, k);
        d2 += diff * diff;
      }
      if (graphs[i].label() == graphs[j].label()) {
        intra += d2;
        ++n_intra;
      } else {
        inter += d2;
        ++n_inter;
      }
    }
  }
  intra /= n_intra;
  inter /= n_inter;
  EXPECT_LT(intra * 1.5, inter)
      << "intra=" << intra << " inter=" << inter;
}

TEST(GnnTrainer, EvaluateProducesReasonableMetricsOnSeparableData) {
  GnnConfig c = SmallConfig(GnnType::kGcn);
  std::vector<InteractionGraph> train_graphs, test_graphs;
  Rng rng(31);
  auto make = [&](int label) {
    InteractionGraph g = ShrinkFeatures(TinyGraph(4, rng.NextU64()), c);
    for (int v = 0; v < g.num_nodes(); ++v) {
      for (int d = 0; d < 4; ++d) {
        g.mutable_node(v).features[static_cast<size_t>(d)] +=
            label == 1 ? 2.0 : -2.0;
      }
    }
    g.set_label(label);
    return g;
  };
  for (int i = 0; i < 40; ++i) train_graphs.push_back(make(i % 2));
  for (int i = 0; i < 20; ++i) test_graphs.push_back(make(i % 2));

  GnnModel model(c);
  TrainConfig tc;
  tc.epochs = 25;
  tc.learning_rate = 0.02;
  GnnTrainer trainer(&model, tc);
  const auto prep_train = PrepareGraphs(train_graphs, c);
  const auto prep_test = PrepareGraphs(test_graphs, c);
  Rng train_rng(32);
  trainer.Train(prep_train, &train_rng);
  const ClassificationMetrics m = trainer.Evaluate(prep_train, prep_test);
  EXPECT_GT(m.accuracy, 0.85);
}

TEST(PrepareGraph, GinPropagationHasSelfAndNeighbors) {
  GnnConfig c = SmallConfig(GnnType::kGin);
  const InteractionGraph g = ShrinkFeatures(TinyGraph(3, 1), c);
  const PreparedGraph p = PrepareGraph(g, c);
  const Matrix prop = p.prop_csr.ToDense();
  EXPECT_DOUBLE_EQ(prop.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(prop.At(0, 1), 1.0);  // edge 0-1
}

TEST(PrepareGraph, GcnPropagationRowsNormalized) {
  GnnConfig c = SmallConfig(GnnType::kGcn);
  const InteractionGraph g = ShrinkFeatures(TinyGraph(4, 2), c);
  const PreparedGraph p = PrepareGraph(g, c);
  const Matrix prop = p.prop_csr.ToDense();
  // Symmetric normalization: eigenvalue bound => entries in [0, 1].
  for (size_t i = 0; i < prop.size(); ++i) {
    EXPECT_GE(prop.data()[i], 0.0);
    EXPECT_LE(prop.data()[i], 1.0);
  }
}

}  // namespace
}  // namespace fexiot

#include "common/crc32.h"
#include "gnn/serialization.h"

namespace fexiot {
namespace {

TEST(Serialization, RoundTripsAllArchitectures) {
  for (GnnType type : {GnnType::kGcn, GnnType::kGin, GnnType::kMagnn}) {
    const GnnConfig c = SmallConfig(type);
    GnnModel original(c);
    // Perturb weights so the round trip is non-trivial.
    std::vector<double> flat = original.GetLayerFlat(0);
    for (auto& v : flat) v += 0.5;
    original.SetLayerFlat(0, flat);

    const std::string path =
        "/tmp/fexiot_model_" + std::string(GnnTypeName(type)) + ".bin";
    ASSERT_TRUE(SaveGnnModel(original, path).ok());
    Result<GnnModel> loaded = LoadGnnModel(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    const InteractionGraph g =
        ShrinkFeatures(TinyGraph(4, 9, type == GnnType::kMagnn), c);
    const PreparedGraph p = PrepareGraph(g, c);
    const auto z1 = original.Forward(p, nullptr);
    const auto z2 = loaded->Forward(p, nullptr);
    ASSERT_EQ(z1.size(), z2.size());
    for (size_t i = 0; i < z1.size(); ++i) EXPECT_DOUBLE_EQ(z1[i], z2[i]);
  }
}

TEST(Serialization, RejectsMissingAndCorruptFiles) {
  EXPECT_FALSE(LoadGnnModel("/tmp/does_not_exist_fexiot.bin").ok());
  const std::string path = "/tmp/fexiot_corrupt.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("garbage!", 8, 1, f);
  std::fclose(f);
  const Result<GnnModel> r = LoadGnnModel(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Serialization, RejectsTruncatedBuffer) {
  const GnnConfig c = SmallConfig(GnnType::kGin);
  const std::vector<uint8_t> bytes = SerializeGnnModel(GnnModel(c));
  // Every proper prefix must fail cleanly rather than crash or misread;
  // sample a spread of cut points including mid-header and mid-payload.
  for (size_t cut : {size_t{0}, size_t{3}, size_t{8}, size_t{40},
                     bytes.size() / 2, bytes.size() - 1}) {
    ASSERT_LT(cut, bytes.size());
    const Result<GnnModel> r = DeserializeGnnModel(bytes.data(), cut);
    EXPECT_FALSE(r.ok()) << "prefix of " << cut << " bytes accepted";
  }
}

TEST(Serialization, RejectsTruncatedFile) {
  const GnnConfig c = SmallConfig(GnnType::kGcn);
  const std::vector<uint8_t> bytes = SerializeGnnModel(GnnModel(c));
  const std::string path = "/tmp/fexiot_truncated.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite(bytes.data(), 1, bytes.size() / 2, f);
  std::fclose(f);
  EXPECT_FALSE(LoadGnnModel(path).ok());
}

TEST(Serialization, RejectsVersionMismatch) {
  const GnnConfig c = SmallConfig(GnnType::kGin);
  std::vector<uint8_t> bytes = SerializeGnnModel(GnnModel(c));
  // Same FEXGNN prefix, older version digits: must be reported as a
  // version mismatch, not as random garbage.
  std::memcpy(bytes.data(), "FEXGNN01", 8);
  const Result<GnnModel> r = DeserializeGnnModel(bytes.data(), bytes.size());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("version"), std::string::npos)
      << r.status().ToString();
}

TEST(Serialization, RejectsCorruptedPayload) {
  const GnnConfig c = SmallConfig(GnnType::kGin);
  std::vector<uint8_t> bytes = SerializeGnnModel(GnnModel(c));
  // Flip one bit in the middle of the weight payload: the trailing CRC
  // must catch it even though every field still parses.
  bytes[bytes.size() / 2] ^= 0x10;
  const Result<GnnModel> r = DeserializeGnnModel(bytes.data(), bytes.size());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("corrupt"), std::string::npos)
      << r.status().ToString();
}

// FEXGNN02 header mutants. The CRC protects against accidents, not
// forgery: each mutant below re-seals it, so only the header checks stand
// between the bytes and GnnModel's allocations.
constexpr size_t kHeaderOffset = 8;  // after the magic

std::vector<uint8_t> WithResealedHeaderField(std::vector<uint8_t> bytes,
                                             size_t field, uint64_t value) {
  std::memcpy(bytes.data() + kHeaderOffset + 8 * field, &value, sizeof(value));
  const uint32_t crc =
      Crc32(bytes.data() + kHeaderOffset, bytes.size() - kHeaderOffset - 4);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
  return bytes;
}

// Every dimension is read from header fields 1..5; 0, -1 as int,
// INT_MAX and UINT32_MAX must each be rejected before anything is
// allocated from them.
void ExpectResealedMutantsRejected(size_t field) {
  // MAGNN, so every dimension (hetero_input_dim included) sizes a layer.
  const std::vector<uint8_t> bytes =
      SerializeGnnModel(GnnModel(SmallConfig(GnnType::kMagnn)));
  for (uint64_t value :
       {uint64_t{0}, static_cast<uint64_t>(-1), uint64_t{0x7FFFFFFF},
        uint64_t{0xFFFFFFFF}}) {
    const std::vector<uint8_t> mutant =
        WithResealedHeaderField(bytes, field, value);
    const Result<GnnModel> r = DeserializeGnnModel(mutant.data(), mutant.size());
    ASSERT_FALSE(r.ok()) << "field " << field << " = " << value;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << "field " << field << " = " << value << ": " << r.status().ToString();
  }
}

TEST(Serialization, RejectsResealedInputDimMutants) {
  ExpectResealedMutantsRejected(1);
}

TEST(Serialization, RejectsResealedHiddenDimMutants) {
  ExpectResealedMutantsRejected(3);
}

TEST(Serialization, RejectsResealedHeaderMutants) {
  for (size_t field : {size_t{2}, size_t{4}, size_t{5}}) {
    ExpectResealedMutantsRejected(field);
  }
  const GnnConfig c = SmallConfig(GnnType::kGcn);
  const std::vector<uint8_t> bytes = SerializeGnnModel(GnnModel(c));
  // num_layers = 1e8 disagrees with the stored layer count; with the count
  // forged to match, the implied parameters overrun the body instead.
  // Neither may build a model first.
  const std::vector<uint8_t> deep = WithResealedHeaderField(bytes, 4, 100000000);
  const std::vector<uint8_t> deep_counted =
      WithResealedHeaderField(deep, 7, 100000001);
  // Unknown type; layer count off by one.
  const std::vector<uint8_t> bad_type = WithResealedHeaderField(bytes, 0, 3);
  const std::vector<uint8_t> bad_count = WithResealedHeaderField(
      bytes, 7, static_cast<uint64_t>(c.num_layers) + 2);
  for (const std::vector<uint8_t>* mutant :
       {&deep, &deep_counted, &bad_type, &bad_count}) {
    const Result<GnnModel> r =
        DeserializeGnnModel(mutant->data(), mutant->size());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
  }
  // The unmutated bytes still load.
  EXPECT_TRUE(DeserializeGnnModel(bytes.data(), bytes.size()).ok());
}

TEST(ValidateGnnConfig, RejectsDimensionsBelowOne) {
  EXPECT_TRUE(ValidateGnnConfig(GnnConfig()).ok());
  for (int GnnConfig::*dim :
       {&GnnConfig::input_dim, &GnnConfig::hetero_input_dim,
        &GnnConfig::hidden_dim, &GnnConfig::num_layers,
        &GnnConfig::embedding_dim}) {
    for (int bad : {0, -1}) {
      GnnConfig c;
      c.*dim = bad;
      const Status s = ValidateGnnConfig(c);
      ASSERT_FALSE(s.ok());
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    }
  }
  GnnConfig c;
  c.type = static_cast<GnnType>(7);
  EXPECT_EQ(ValidateGnnConfig(c).code(), StatusCode::kInvalidArgument);
}

TEST(ValidateTrainConfig, RejectsNaNInfAndNonPositiveKnobs) {
  EXPECT_TRUE(ValidateTrainConfig(TrainConfig()).ok());
  for (double TrainConfig::*knob :
       {&TrainConfig::learning_rate, &TrainConfig::margin,
        &TrainConfig::pairs_per_sample}) {
    for (double bad : {std::nan(""), HUGE_VAL, 0.0, -1.0}) {
      TrainConfig c;
      c.*knob = bad;
      EXPECT_EQ(ValidateTrainConfig(c).code(), StatusCode::kInvalidArgument)
          << bad;
    }
  }
}

TEST(Serialization, BufferRoundTripMatchesFileFormat) {
  const GnnConfig c = SmallConfig(GnnType::kMagnn);
  GnnModel original(c);
  const std::vector<uint8_t> bytes = SerializeGnnModel(original);
  const Result<GnnModel> back = DeserializeGnnModel(bytes.data(), bytes.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  for (int l = 0; l < original.num_layers(); ++l) {
    EXPECT_EQ(original.GetLayerFlat(l), back->GetLayerFlat(l)) << "layer " << l;
  }
  // Re-serializing the deserialized model is byte-identical.
  EXPECT_EQ(SerializeGnnModel(*back), bytes);
}

}  // namespace
}  // namespace fexiot
