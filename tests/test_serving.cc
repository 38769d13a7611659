// Tests for the online serving subsystem (DESIGN.md §5.11): CSR
// block-diagonal stacking, batched block-diagonal inference vs
// one-graph-at-a-time (bit-identity incl.
// ragged/single/empty batches), the streaming detection engine end to end
// (every snapshot equal to a from-scratch PrepareGraph for GCN, GIN and
// MAGNN; its counters; rejected inputs), thread-count parity, and
// latency-statistics properties.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "gnn/gnn_model.h"
#include "graph/fusion.h"
#include "graph/interaction_graph.h"
#include "serving/arrivals.h"
#include "serving/engine.h"
#include "serving/stats.h"
#include "smarthome/home.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"

namespace fexiot {
namespace {

// ---------------------------------------------------------------------------
// Bitwise comparison helpers: the serving contracts are bit-identity, not
// tolerance, so every comparison pins the exact double representation.
// ---------------------------------------------------------------------------

bool BitsEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  if (a.empty()) return true;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool MatrixBitsEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  if (a.size() == 0) return true;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool CsrBitsEqual(const CsrMatrix& a, const CsrMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  if (a.row_ptr() != b.row_ptr() || a.col_idx() != b.col_idx()) return false;
  if (a.values().size() != b.values().size()) return false;
  if (a.values().empty()) return true;
  return std::memcmp(a.values().data(), b.values().data(),
                     a.values().size() * sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// CSR block-diagonal stacking
// ---------------------------------------------------------------------------

TEST(CsrMutation, BlockDiagonalMatchesDenseOracle) {
  Rng rng(77);
  // Mixed shapes, including an all-zero block (zero rows stay empty).
  const std::vector<std::pair<size_t, size_t>> shapes = {
      {3, 4}, {1, 1}, {5, 2}, {2, 6}};
  std::vector<Matrix> dense;
  std::vector<CsrMatrix> blocks;
  size_t total_rows = 0, total_cols = 0;
  for (size_t b = 0; b < shapes.size(); ++b) {
    Matrix m(shapes[b].first, shapes[b].second);
    if (b != 1) {  // block 1 stays all-zero
      for (size_t r = 0; r < m.rows(); ++r) {
        for (size_t c = 0; c < m.cols(); ++c) {
          if (rng.Uniform() < 0.4) m.At(r, c) = rng.Uniform(-3.0, 3.0);
        }
      }
    }
    total_rows += m.rows();
    total_cols += m.cols();
    blocks.push_back(CsrMatrix::FromDense(m));
    dense.push_back(std::move(m));
  }
  std::vector<const CsrMatrix*> ptrs;
  for (const CsrMatrix& b : blocks) ptrs.push_back(&b);
  const CsrMatrix stacked = CsrMatrix::BlockDiagonal(ptrs);

  Matrix oracle(total_rows, total_cols);
  size_t ro = 0, co = 0;
  for (const Matrix& m : dense) {
    for (size_t r = 0; r < m.rows(); ++r) {
      for (size_t c = 0; c < m.cols(); ++c) {
        oracle.At(ro + r, co + c) = m.At(r, c);
      }
    }
    ro += m.rows();
    co += m.cols();
  }
  EXPECT_TRUE(CsrBitsEqual(stacked, CsrMatrix::FromDense(oracle)));

  // Empty input: a 0 x 0 matrix.
  const CsrMatrix empty = CsrMatrix::BlockDiagonal({});
  EXPECT_EQ(empty.rows(), 0u);
  EXPECT_EQ(empty.cols(), 0u);
  EXPECT_EQ(empty.nnz(), 0u);
}

// ---------------------------------------------------------------------------
// Batched block-diagonal inference vs per-graph Forward
// ---------------------------------------------------------------------------

std::vector<InteractionGraph> BuildRealGraphs(
    const std::vector<Platform>& platforms, size_t count, uint64_t seed0) {
  std::vector<InteractionGraph> out;
  for (uint64_t i = 0; i < 3 * count && out.size() < count; ++i) {
    Rng rng(seed0 + i);
    const Home home = BuildChainedHome(10, platforms, &rng);
    SimulationConfig config;
    config.duration_seconds = 2.0 * 3600.0;
    config.exogenous_mean_gap = 150.0;
    HomeSimulator sim(home, config, &rng);
    const EventLog log = sim.Run();
    InteractionGraph g = OnlineGraphBuilder(home).Build(log.Cleaned());
    if (g.num_nodes() > 0) out.push_back(std::move(g));
  }
  return out;
}

void CheckForwardBatchMatchesForward(GnnType type,
                                     const std::vector<Platform>& platforms,
                                     uint64_t seed0) {
  const std::vector<InteractionGraph> graphs =
      BuildRealGraphs(platforms, 5, seed0);
  ASSERT_GE(graphs.size(), 3u);
  GnnConfig gc;
  gc.type = type;
  const GnnModel model(gc);
  std::vector<PreparedGraph> prepared;
  prepared.reserve(graphs.size());
  for (const InteractionGraph& g : graphs) {
    prepared.push_back(PrepareGraph(g, gc));
  }
  std::vector<const PreparedGraph*> ptrs;
  for (const PreparedGraph& p : prepared) ptrs.push_back(&p);

  GraphBatch batch;
  AssembleGraphBatch(ptrs, gc, &batch);
  ASSERT_EQ(batch.size(), ptrs.size());
  GnnWorkspace bws;
  std::vector<std::vector<double>> embs;
  const GnnModel& cmodel = model;
  cmodel.ForwardBatch(batch, &bws, &embs);
  ASSERT_EQ(embs.size(), ptrs.size());

  GnnWorkspace ws;
  for (size_t b = 0; b < ptrs.size(); ++b) {
    const std::vector<double>& one = model.Forward(*ptrs[b], nullptr, &ws);
    EXPECT_TRUE(BitsEqual(embs[b], one))
        << GnnTypeName(type) << " graph " << b << " ("
        << ptrs[b]->input.rows() << " nodes)";
  }

  // A size-1 batch must also match, and reusing the workspace across
  // differently shaped batches must not leak state.
  AssembleGraphBatch({ptrs[0]}, gc, &batch);
  cmodel.ForwardBatch(batch, &bws, &embs);
  ASSERT_EQ(embs.size(), 1u);
  const std::vector<double>& one = model.Forward(*ptrs[0], nullptr, &ws);
  EXPECT_TRUE(BitsEqual(embs[0], one));
}

TEST(ForwardBatchTest, GcnBitIdenticalToSequential) {
  CheckForwardBatchMatchesForward(GnnType::kGcn, {Platform::kSmartThings},
                                  5000);
}

TEST(ForwardBatchTest, GinBitIdenticalToSequential) {
  CheckForwardBatchMatchesForward(
      GnnType::kGin, {Platform::kSmartThings, Platform::kHomeAssistant}, 5100);
}

TEST(ForwardBatchTest, MagnnBitIdenticalToSequential) {
  // Google Assistant rules carry sentence-space (hetero) features, so the
  // batch concatenates node_space and features_hetero too.
  CheckForwardBatchMatchesForward(
      GnnType::kMagnn, {Platform::kSmartThings, Platform::kGoogleAssistant},
      5200);
}

// ---------------------------------------------------------------------------
// Streaming detection engine
// ---------------------------------------------------------------------------

struct ServedHome {
  Home home;
  std::vector<LogEntry> log;  // cleaned
  double log_end = 0.0;
};

const std::vector<ServedHome>& ServingWorld() {
  static const std::vector<ServedHome>* world = [] {
    auto* w = new std::vector<ServedHome>();
    for (int i = 0; i < 8; ++i) {
      Rng rng(9100 + static_cast<uint64_t>(i));
      ServedHome sh;
      sh.home = BuildChainedHome(
          12, {Platform::kSmartThings, Platform::kHomeAssistant}, &rng);
      SimulationConfig config;
      config.duration_seconds = 3.0 * 3600.0;
      config.exogenous_mean_gap = 120.0;
      HomeSimulator sim(sh.home, config, &rng);
      sh.log = sim.Run().Cleaned().entries();
      for (const LogEntry& e : sh.log) {
        sh.log_end = std::max(sh.log_end, e.timestamp);
      }
      w->push_back(std::move(sh));
    }
    return w;
  }();
  return *world;
}

/// Drives a deterministic ingest/request schedule through a \p type
/// model: the world's logs are cut into \p chunks per-home index ranges;
/// after each chunk every home gets one detection request at the chunk's
/// max timestamp, then the batch is flushed. Identical schedules with
/// different max_batch must produce bit-identical embeddings per (home,
/// request_time).
std::vector<DetectionResult> RunScenario(GnnType type, int max_batch,
                                         bool verify, ServingStats* stats_out,
                                         size_t num_homes = 6,
                                         int chunks = 4) {
  const std::vector<ServedHome>& world = ServingWorld();
  GnnConfig gc;
  gc.type = type;
  const GnnModel model(gc);
  ServingConfig sc;
  sc.max_batch = max_batch;
  sc.verify_incremental = verify;
  StreamingDetectionEngine engine(&model, sc);
  for (size_t h = 0; h < num_homes; ++h) {
    EXPECT_TRUE(engine.AddHome(static_cast<int>(h), world[h].home).ok());
  }
  std::vector<DetectionResult> out;
  // Requests use each home's own stream clock (a request at another
  // home's later timestamp would advance this home's clock and reject
  // the next chunk's ingest), nudged forward so every (home, time) key
  // stays unique even when a chunk lands no events for a home.
  std::vector<double> last_req(num_homes, 0.0);
  for (int chunk = 0; chunk < chunks; ++chunk) {
    for (size_t h = 0; h < num_homes; ++h) {
      const std::vector<LogEntry>& log = world[h].log;
      const size_t begin = log.size() * static_cast<size_t>(chunk) /
                           static_cast<size_t>(chunks);
      const size_t end = log.size() * static_cast<size_t>(chunk + 1) /
                         static_cast<size_t>(chunks);
      double t_home = last_req[h];
      for (size_t k = begin; k < end; ++k) {
        EXPECT_TRUE(engine.Ingest(static_cast<int>(h), log[k]).ok());
        t_home = std::max(t_home, log[k].timestamp);
      }
      const double t_req = std::max(t_home, last_req[h] + 0.001);
      last_req[h] = t_req;
      EXPECT_TRUE(
          engine.RequestDetection(static_cast<int>(h), t_req, &out).ok());
    }
    engine.Flush(&out);
  }
  if (stats_out != nullptr) *stats_out = engine.stats();
  return out;
}

using ResultKey = std::pair<int, double>;  // (home_id, request_time)

std::map<ResultKey, const DetectionResult*> IndexResults(
    const std::vector<DetectionResult>& results) {
  std::map<ResultKey, const DetectionResult*> index;
  for (const DetectionResult& r : results) {
    index[{r.home_id, r.request_time}] = &r;
  }
  return index;
}

TEST(ServingEngine, BatchedBitIdenticalToSequential) {
  ServingStats seq_stats;
  const std::vector<DetectionResult> seq =
      RunScenario(GnnType::kGcn, 1, false, &seq_stats);
  ASSERT_EQ(seq.size(), 24u);  // 6 homes x 4 chunks
  const auto seq_index = IndexResults(seq);

  // max_batch 8 > homes: whole chunks dispatch via Flush (size 6).
  // max_batch 4 < homes: a full dispatch of 4 plus a ragged tail of 2.
  for (int mb : {4, 8}) {
    ServingStats stats;
    const std::vector<DetectionResult> bat =
        RunScenario(GnnType::kGcn, mb, false, &stats);
    ASSERT_EQ(bat.size(), seq.size()) << "max_batch=" << mb;
    for (const DetectionResult& r : bat) {
      const auto it = seq_index.find({r.home_id, r.request_time});
      ASSERT_NE(it, seq_index.end()) << "max_batch=" << mb;
      EXPECT_TRUE(BitsEqual(r.embedding, it->second->embedding))
          << "max_batch=" << mb << " home=" << r.home_id
          << " t=" << r.request_time;
      EXPECT_EQ(r.score, it->second->score);
      EXPECT_GE(r.latency_s, 0.0);
      EXPECT_LE(r.batch_size, mb);
    }
    if (mb == 4) {
      ASSERT_GT(stats.batch_size_hist.size(), 4u);
      EXPECT_GT(stats.batch_size_hist[4], 0u) << "expected full batches";
      EXPECT_GT(stats.batch_size_hist[2], 0u) << "expected ragged tails";
    }
  }

  // The classic path reports size-1 dispatches only.
  ASSERT_EQ(seq_stats.batch_size_hist.size(), 2u);
  EXPECT_EQ(seq_stats.batch_size_hist[1], seq_stats.requests);
}

TEST(ServingEngine, SingleEmptyAndForcedBatches) {
  const ServedHome& sh = ServingWorld()[0];
  GnnConfig gc;
  const GnnModel model(gc);
  ServingConfig sc;
  sc.max_batch = 8;
  StreamingDetectionEngine engine(&model, sc);
  ASSERT_TRUE(engine.AddHome(0, sh.home).ok());
  for (size_t k = 0; k < sh.log.size() / 2; ++k) {
    ASSERT_TRUE(engine.Ingest(0, sh.log[k]).ok());
  }
  std::vector<DetectionResult> out;
  engine.Flush(&out);  // nothing pending: a no-op
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(engine.stats().batches, 0u);

  const double t1 = sh.log_end + 10.0;
  ASSERT_TRUE(engine.RequestDetection(0, t1, &out).ok());
  EXPECT_TRUE(out.empty());  // lingers for batch-mates
  engine.Flush(&out);        // single-home batch
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].batch_size, 1);
  EXPECT_EQ(out[0].home_id, 0);
  EXPECT_EQ(out[0].request_time, t1);

  // A second request for an already-pending home forces an early
  // dispatch so the first request keeps its snapshot-at-enqueue view.
  out.clear();
  const double t2 = t1 + 10.0, t3 = t2 + 10.0;
  ASSERT_TRUE(engine.RequestDetection(0, t2, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(engine.RequestDetection(0, t3, &out).ok());
  ASSERT_EQ(out.size(), 1u);  // t2's request was force-dispatched
  EXPECT_EQ(out[0].request_time, t2);
  engine.Flush(&out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].request_time, t3);

  engine.Flush(&out);  // drained: another no-op
  EXPECT_EQ(out.size(), 2u);
}

TEST(ServingEngine, AdvanceToDispatchesAtLingerDeadline) {
  const ServedHome& sh = ServingWorld()[1];
  GnnConfig gc;
  const GnnModel model(gc);
  ServingConfig sc;
  sc.max_batch = 8;
  sc.max_linger_s = 0.5;
  StreamingDetectionEngine engine(&model, sc);
  ASSERT_TRUE(engine.AddHome(0, sh.home).ok());
  for (const LogEntry& e : sh.log) ASSERT_TRUE(engine.Ingest(0, e).ok());

  std::vector<DetectionResult> out;
  const double t = sh.log_end + 5.0;
  ASSERT_TRUE(engine.RequestDetection(0, t, &out).ok());
  engine.AdvanceTo(t + 0.4, &out);  // before the deadline: still pending
  EXPECT_TRUE(out.empty());
  engine.AdvanceTo(t + 0.6, &out);  // past it: dispatched
  ASSERT_EQ(out.size(), 1u);
  // Simulated wait (deadline - enqueue) is part of the reported latency.
  EXPECT_GE(out[0].latency_s, 0.5);
  engine.AdvanceTo(t + 100.0, &out);  // nothing left
  EXPECT_EQ(out.size(), 1u);
}

TEST(ServingEngine, ZeroLingerDispatchesImmediately) {
  const ServedHome& sh = ServingWorld()[2];
  GnnConfig gc;
  const GnnModel model(gc);
  ServingConfig sc;
  sc.max_batch = 8;
  sc.max_linger_s = 0.0;
  StreamingDetectionEngine engine(&model, sc);
  ASSERT_TRUE(engine.AddHome(0, sh.home).ok());
  std::vector<DetectionResult> out;
  ASSERT_TRUE(engine.RequestDetection(0, 1.0, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].batch_size, 1);
}

TEST(ServingEngine, IncrementalMatchesRebuildUnderStream) {
  // verify_incremental cross-checks every snapshot against a from-scratch
  // PrepareGraph; six chunks of real simulator traffic with 600 s active
  // windows force plenty of edge churn between snapshots. GCN's matrix
  // carries degree-normalized values, GIN's plain ones, and MAGNN reads
  // X rather than P X.
  for (GnnType type : {GnnType::kGcn, GnnType::kGin, GnnType::kMagnn}) {
    ServingStats stats;
    const std::vector<DetectionResult> results =
        RunScenario(type, 8, true, &stats, 6, 6);
    EXPECT_EQ(results.size(), 36u) << GnnTypeName(type);
    EXPECT_GT(stats.firings, 0u) << GnnTypeName(type);
    EXPECT_GT(stats.incremental_updates, 0u) << GnnTypeName(type);
    EXPECT_GT(stats.rebuilds, 6u) << GnnTypeName(type);
    EXPECT_EQ(stats.parity_checks, 36u) << GnnTypeName(type);
    EXPECT_EQ(stats.parity_failures, 0u) << GnnTypeName(type);
  }
}

TEST(ServingEngine, FinalPreparedMatchesRebuildBitwise) {
  const std::vector<ServedHome>& world = ServingWorld();
  GnnConfig gc;
  const GnnModel model(gc);
  ServingConfig sc;
  sc.max_batch = 4;
  StreamingDetectionEngine engine(&model, sc);
  const size_t num_homes = 4;
  for (size_t h = 0; h < num_homes; ++h) {
    ASSERT_TRUE(engine.AddHome(static_cast<int>(h), world[h].home).ok());
  }
  std::vector<DetectionResult> out;
  for (size_t h = 0; h < num_homes; ++h) {
    for (const LogEntry& e : world[h].log) {
      ASSERT_TRUE(engine.Ingest(static_cast<int>(h), e).ok());
    }
    ASSERT_TRUE(
        engine.RequestDetection(static_cast<int>(h), world[h].log_end, &out)
            .ok());
  }
  engine.Flush(&out);
  ASSERT_EQ(out.size(), num_homes);
  for (size_t h = 0; h < num_homes; ++h) {
    const PreparedGraph* inc = engine.prepared(static_cast<int>(h));
    ASSERT_NE(inc, nullptr);
    const PreparedGraph ref = engine.RebuildPrepared(static_cast<int>(h));
    EXPECT_TRUE(CsrBitsEqual(inc->prop_csr, ref.prop_csr)) << "home " << h;
    EXPECT_TRUE(MatrixBitsEqual(inc->input, ref.input)) << "home " << h;
    EXPECT_TRUE(MatrixBitsEqual(inc->features_hetero, ref.features_hetero));
    EXPECT_EQ(inc->node_space, ref.node_space);
  }
}

TEST(ServingEngine, FiredNodeFeaturesFollowComputeNodeFeatures) {
  // A firing rewrites only a node's time and consistency dims: every dim
  // outside the relational and consistency slots equals
  // ComputeNodeFeatures at the node's last firing.
  const std::vector<ServedHome>& world = ServingWorld();
  GnnConfig gc;
  const GnnModel model(gc);
  StreamingDetectionEngine engine(&model, ServingConfig{});
  int fired = 0;
  for (int h = 0; h < 3; ++h) {
    ASSERT_TRUE(engine.AddHome(h, world[static_cast<size_t>(h)].home).ok());
    for (const LogEntry& e : world[static_cast<size_t>(h)].log) {
      ASSERT_TRUE(engine.Ingest(h, e).ok());
    }
    const InteractionGraph* g = engine.graph(h);
    ASSERT_NE(g, nullptr);
    for (int v = 0; v < g->num_nodes(); ++v) {
      const GraphNode& node = g->node(v);
      fired += node.event_time >= 0.0;
      const std::vector<double> want =
          ComputeNodeFeatures(node.rule, node.event_time);
      ASSERT_EQ(want.size(), node.features.size());
      const size_t relational = want.size() - kExtraFeatureDims;
      const size_t consistency = want.size() - 2;
      for (size_t k = 0; k < want.size(); ++k) {
        if ((k >= relational && k < relational + 4) || k >= consistency) {
          continue;
        }
        EXPECT_TRUE(BitsEqual({want[k]}, {node.features[k]}))
            << "home " << h << " node " << v << " dim " << k;
      }
    }
  }
  EXPECT_GT(fired, 0);
}

/// The home's undirected edge set: one (min, max) pair whenever either
/// direction is live, as the propagation matrix stores it.
std::set<std::pair<int, int>> UndirectedEdges(const InteractionGraph& g) {
  std::set<std::pair<int, int>> pairs;
  for (const auto& [u, v] : g.edges()) {
    pairs.insert({std::min(u, v), std::max(u, v)});
  }
  return pairs;
}

size_t SymmetricDifference(const std::set<std::pair<int, int>>& a,
                           const std::set<std::pair<int, int>>& b) {
  size_t n = 0;
  for (const auto& p : a) n += b.count(p) == 0;
  for (const auto& p : b) n += a.count(p) == 0;
  return n;
}

TEST(ServingEngine, CountersFollowEdgeTogglesAndSnapshots) {
  // incremental_updates moves by exactly the pairs each call flips in the
  // home's graph; rebuilds counts the snapshots of a home whose edges
  // changed since its previous snapshot, each home's first one included.
  const std::vector<ServedHome>& world = ServingWorld();
  GnnConfig gc;
  const GnnModel model(gc);
  ServingConfig sc;
  sc.max_batch = 4;
  sc.verify_incremental = true;
  StreamingDetectionEngine engine(&model, sc);
  const int num_homes = 3;
  std::vector<std::set<std::pair<int, int>>> edges(num_homes);
  std::vector<bool> changed(num_homes, true);  // first snapshot rebuilds
  uint64_t want_rebuilds = 0, flips = 0;
  std::vector<DetectionResult> out;
  // Runs one engine call on home h and checks its counter moves.
  auto step = [&](int h, const auto& call, bool snapshot) {
    const uint64_t updates = engine.stats().incremental_updates;
    const uint64_t rebuilds = engine.stats().rebuilds;
    ASSERT_TRUE(call().ok());
    const auto now = UndirectedEdges(*engine.graph(h));
    const size_t flipped = SymmetricDifference(edges[h], now);
    EXPECT_EQ(engine.stats().incremental_updates - updates, flipped);
    flips += flipped;
    changed[h] = changed[h] || flipped > 0;
    edges[h] = now;
    if (snapshot) {
      want_rebuilds += changed[h];
      EXPECT_EQ(engine.stats().rebuilds - rebuilds, changed[h] ? 1u : 0u);
      changed[h] = false;
    } else {
      EXPECT_EQ(engine.stats().rebuilds, rebuilds);
    }
  };
  for (int h = 0; h < num_homes; ++h) {
    ASSERT_TRUE(engine.AddHome(h, world[static_cast<size_t>(h)].home).ok());
  }
  // Interleaved streams: every home ingests its next 8 entries, then
  // requests a detection at its own clock.
  size_t longest = 0;
  for (int h = 0; h < num_homes; ++h) {
    longest = std::max(longest, world[static_cast<size_t>(h)].log.size());
  }
  for (size_t begin = 0; begin < longest; begin += 8) {
    for (int h = 0; h < num_homes; ++h) {
      const std::vector<LogEntry>& log = world[static_cast<size_t>(h)].log;
      const size_t end = std::min(log.size(), begin + 8);
      for (size_t k = begin; k < end; ++k) {
        step(h, [&] { return engine.Ingest(h, log[k]); }, false);
      }
      if (begin >= log.size()) continue;
      const double t = log[end - 1].timestamp;
      step(h, [&] { return engine.RequestDetection(h, t, &out); }, true);
    }
  }
  engine.Flush(&out);
  EXPECT_GT(flips, 0u);
  EXPECT_EQ(engine.stats().incremental_updates, flips);
  EXPECT_EQ(engine.stats().rebuilds, want_rebuilds);
  EXPECT_GT(want_rebuilds, static_cast<uint64_t>(num_homes));
  EXPECT_LT(want_rebuilds, engine.stats().requests);
  EXPECT_EQ(engine.stats().parity_failures, 0u);
}

TEST(ServingEngine, RejectsNonFiniteTimes) {
  // Copies of stream entries at NaN and +-inf, and requests at those
  // times, are each rejected with InvalidArgument and leave the engine as
  // the clean stream leaves it: the same firings and the same embeddings,
  // bit for bit.
  const ServedHome& sh = ServingWorld()[0];
  GnnConfig gc;
  const GnnModel model(gc);
  const double inf = std::numeric_limits<double>::infinity();
  const double bad_times[] = {std::numeric_limits<double>::quiet_NaN(), inf,
                              -inf};
  auto run = [&](bool hostile, ServingStats* stats) {
    StreamingDetectionEngine engine(&model, ServingConfig{});
    EXPECT_TRUE(engine.AddHome(0, sh.home).ok());
    std::vector<DetectionResult> out;
    for (size_t k = 0; k < sh.log.size(); ++k) {
      if (hostile && k % 3 == 0) {
        LogEntry bad = sh.log[k];
        for (double t : bad_times) {
          bad.timestamp = t;
          EXPECT_EQ(engine.Ingest(0, bad).code(), StatusCode::kInvalidArgument)
              << "entry " << k << " at " << t;
        }
      }
      EXPECT_TRUE(engine.Ingest(0, sh.log[k]).ok());
      if (k % 10 == 9) {
        for (double t : bad_times) {
          if (!hostile) break;
          EXPECT_EQ(engine.RequestDetection(0, t, &out).code(),
                    StatusCode::kInvalidArgument);
        }
        EXPECT_TRUE(
            engine.RequestDetection(0, sh.log[k].timestamp, &out).ok());
      }
    }
    engine.Flush(&out);
    *stats = engine.stats();
    return out;
  };
  ServingStats clean_stats, hostile_stats;
  const std::vector<DetectionResult> clean = run(false, &clean_stats);
  const std::vector<DetectionResult> hostile = run(true, &hostile_stats);
  ASSERT_GT(clean.size(), 2u);
  ASSERT_EQ(hostile.size(), clean.size());
  for (size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(hostile[i].request_time, clean[i].request_time);
    EXPECT_TRUE(BitsEqual(hostile[i].embedding, clean[i].embedding))
        << "request " << i;
  }
  EXPECT_GT(clean_stats.firings, 0u);
  EXPECT_EQ(hostile_stats.firings, clean_stats.firings);
  EXPECT_EQ(hostile_stats.ingested_events, clean_stats.ingested_events);
  EXPECT_EQ(hostile_stats.requests, clean_stats.requests);
}

TEST(ServingEngine, RejectsBadInputs) {
  const ServedHome& sh = ServingWorld()[0];
  GnnConfig gc;
  const GnnModel model(gc);
  ServingConfig sc;
  StreamingDetectionEngine engine(&model, sc);
  ASSERT_TRUE(engine.AddHome(7, sh.home).ok());
  EXPECT_EQ(engine.AddHome(7, sh.home).code(), StatusCode::kAlreadyExists);
  Home empty_home;
  EXPECT_EQ(engine.AddHome(8, empty_home).code(),
            StatusCode::kInvalidArgument);

  LogEntry e;
  e.timestamp = 100.0;
  e.kind = LogKind::kStateChange;
  EXPECT_EQ(engine.Ingest(99, e).code(), StatusCode::kNotFound);
  ASSERT_TRUE(engine.Ingest(7, e).ok());
  e.timestamp = 50.0;  // time went backwards
  EXPECT_EQ(engine.Ingest(7, e).code(), StatusCode::kInvalidArgument);

  std::vector<DetectionResult> out;
  EXPECT_EQ(engine.RequestDetection(99, 1.0, &out).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.prepared(99), nullptr);
  EXPECT_EQ(engine.graph(99), nullptr);
}

// ---------------------------------------------------------------------------
// Thread-count parity
// ---------------------------------------------------------------------------

std::string ResultDigestLine(const DetectionResult& r) {
  char buf[64];
  std::string line = "home=" + std::to_string(r.home_id);
  std::snprintf(buf, sizeof(buf), " t=%a", r.request_time);
  line += buf;
  line += " emb=";
  for (double v : r.embedding) {
    std::snprintf(buf, sizeof(buf), "%a,", v);
    line += buf;
  }
  line += "\n";
  return line;
}

/// Digest independent of dispatch grouping (latency/batch_size excluded,
/// lines sorted): identical across max_batch settings and thread counts.
std::string SortedResultDigest(const std::vector<DetectionResult>& results) {
  std::vector<std::string> lines;
  lines.reserve(results.size());
  for (const DetectionResult& r : results) {
    lines.push_back(ResultDigestLine(r));
  }
  std::sort(lines.begin(), lines.end());
  std::string digest;
  for (const std::string& l : lines) digest += l;
  return digest;
}

TEST(ServingEngine, ThreadCountParity) {
  parallel::SetThreads(1);
  const std::vector<DetectionResult> r1 =
      RunScenario(GnnType::kGcn, 8, false, nullptr);
  parallel::SetThreads(4);
  const std::vector<DetectionResult> r4 =
      RunScenario(GnnType::kGcn, 8, false, nullptr);
  parallel::SetThreads(0);
  EXPECT_EQ(SortedResultDigest(r1), SortedResultDigest(r4));
}

// ---------------------------------------------------------------------------
// Seeded Poisson soak (ci/run_tests.sh, FEXIOT_SERVING_SOAK=1)
// ---------------------------------------------------------------------------

TEST(ServingSoak, PoissonLoadMeetsLatencyBound) {
  if (std::getenv("FEXIOT_SERVING_SOAK") == nullptr) {
    GTEST_SKIP() << "set FEXIOT_SERVING_SOAK=1 to run the Poisson soak";
  }
  const std::vector<ServedHome>& world = ServingWorld();
  GnnConfig gc;
  const GnnModel model(gc);
  ServingConfig sc;
  sc.max_batch = 8;
  sc.max_linger_s = 0.02;
  StreamingDetectionEngine engine(&model, sc);
  const size_t num_homes = 4;
  double t0 = 0.0;
  for (size_t h = 0; h < num_homes; ++h) {
    ASSERT_TRUE(engine.AddHome(static_cast<int>(h), world[h].home).ok());
    for (const LogEntry& e : world[h].log) {
      ASSERT_TRUE(engine.Ingest(static_cast<int>(h), e).ok());
    }
    t0 = std::max(t0, world[h].log_end);
  }

  ArrivalConfig ac;
  ac.rate_hz = 200.0;
  ac.burst_factor = 4.0;
  ac.burst_fraction = 0.25;
  ac.burst_period_s = 2.0;
  ac.seed = 13;
  ASSERT_TRUE(ValidateArrivalConfig(ac).ok());
  ArrivalGenerator gen(ac);
  std::vector<DetectionResult> out;
  const int kRequests = 2000;
  for (int k = 0; k < kRequests; ++k) {
    const double t = t0 + gen.Next();
    engine.AdvanceTo(t, &out);
    ASSERT_TRUE(
        engine.RequestDetection(static_cast<int>(k % num_homes), t, &out)
            .ok());
  }
  engine.Flush(&out);
  ASSERT_EQ(out.size(), static_cast<size_t>(kRequests));

  const ServingStats& stats = engine.stats();
  EXPECT_EQ(stats.latency.count(), static_cast<size_t>(kRequests));
  const double p50 = stats.latency.Percentile(50.0);
  const double p99 = stats.latency.Percentile(99.0);
  EXPECT_LE(p50, p99);
  // End-to-end latency = simulated queueing (bounded by the 20 ms linger
  // plus forced-dispatch waits) + measured inference wall time. A quarter
  // second leaves an order of magnitude of headroom on a loaded CI box
  // while still catching pathological regressions.
  EXPECT_LT(p99, 0.25) << "p50=" << p50 << " max=" << stats.latency.Max();
  EXPECT_GT(stats.batches, 0u);
}

// ---------------------------------------------------------------------------
// Latency statistics
// ---------------------------------------------------------------------------

TEST(ServingStatsTest, PercentileExactOnKnownSamples) {
  LatencyRecorder rec;
  EXPECT_EQ(rec.Percentile(50.0), 0.0);
  EXPECT_EQ(rec.Max(), 0.0);
  for (double v : {5.0, 1.0, 4.0, 2.0, 3.0}) rec.Add(v);
  EXPECT_EQ(rec.count(), 5u);
  EXPECT_EQ(rec.Percentile(0.0), 1.0);
  EXPECT_EQ(rec.Percentile(25.0), 2.0);
  EXPECT_EQ(rec.Percentile(50.0), 3.0);
  EXPECT_EQ(rec.Percentile(75.0), 4.0);
  EXPECT_EQ(rec.Percentile(100.0), 5.0);
  EXPECT_DOUBLE_EQ(rec.Percentile(90.0), 4.6);  // rank 3.6 interpolated
  EXPECT_EQ(rec.Max(), 5.0);
  EXPECT_DOUBLE_EQ(rec.Mean(), 3.0);
  rec.Clear();
  EXPECT_EQ(rec.count(), 0u);
}

TEST(ServingStatsTest, PercentilesMonotoneOnRandomSamples) {
  Rng rng(321);
  LatencyRecorder rec;
  for (int i = 0; i < 500; ++i) rec.Add(rng.Uniform(0.0, 10.0));
  double prev = rec.Percentile(0.0);
  for (double p : {10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    const double cur = rec.Percentile(p);
    EXPECT_GE(cur, prev) << "p=" << p;
    prev = cur;
  }
  EXPECT_EQ(rec.Percentile(100.0), rec.Max());
}

TEST(ServingStatsTest, EngineAccountingConsistent) {
  ServingStats stats;
  const std::vector<DetectionResult> results =
      RunScenario(GnnType::kGcn, 4, false, &stats, 5, 3);
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(results.size()));
  EXPECT_EQ(stats.latency.count(), results.size());
  uint64_t hist_requests = 0, hist_batches = 0;
  for (size_t s = 0; s < stats.batch_size_hist.size(); ++s) {
    hist_requests += stats.batch_size_hist[s] * s;
    hist_batches += stats.batch_size_hist[s];
  }
  EXPECT_EQ(hist_requests, stats.requests);
  EXPECT_EQ(hist_batches, stats.batches);
  const double p50 = stats.latency.Percentile(50.0);
  const double p95 = stats.latency.Percentile(95.0);
  const double p99 = stats.latency.Percentile(99.0);
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, stats.latency.Max());
}

// ---------------------------------------------------------------------------
// Config validation & arrivals
// ---------------------------------------------------------------------------

TEST(ServingConfigTest, ValidateRejectsBadKnobs) {
  EXPECT_TRUE(ValidateServingConfig(ServingConfig()).ok());
  ServingConfig c;
  c.max_batch = 0;
  EXPECT_FALSE(ValidateServingConfig(c).ok());
  c = ServingConfig();
  c.max_batch = 5000;
  EXPECT_FALSE(ValidateServingConfig(c).ok());
  c = ServingConfig();
  c.max_linger_s = -0.1;
  EXPECT_FALSE(ValidateServingConfig(c).ok());
}

TEST(ArrivalsTest, ValidateRejectsBadKnobs) {
  EXPECT_TRUE(ValidateArrivalConfig(ArrivalConfig()).ok());
  ArrivalConfig c;
  c.rate_hz = 0.0;
  EXPECT_FALSE(ValidateArrivalConfig(c).ok());
  c = ArrivalConfig();
  c.burst_factor = 0.5;
  EXPECT_FALSE(ValidateArrivalConfig(c).ok());
  c = ArrivalConfig();
  c.burst_fraction = 1.0;
  EXPECT_FALSE(ValidateArrivalConfig(c).ok());
  c = ArrivalConfig();
  c.burst_fraction = -0.1;
  EXPECT_FALSE(ValidateArrivalConfig(c).ok());
  c = ArrivalConfig();
  c.burst_fraction = 0.5;
  c.burst_period_s = 0.0;
  EXPECT_FALSE(ValidateArrivalConfig(c).ok());
}

// NaN fails every floating-point check. A NaN linger would leave a pending
// request that AdvanceTo never dispatches.
TEST(ServingConfigTest, ValidateRejectsNaN) {
  ServingConfig c;
  c.max_linger_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(ValidateServingConfig(c).code(), StatusCode::kInvalidArgument);
}

TEST(ArrivalsTest, ValidateRejectsNaNInEveryFloatingKnob) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  void (*const cases[])(ArrivalConfig*) = {
      [](ArrivalConfig* c) { c->rate_hz = kNaN; },
      [](ArrivalConfig* c) { c->burst_factor = kNaN; },
      [](ArrivalConfig* c) { c->burst_fraction = kNaN; },
      [](ArrivalConfig* c) {
        c->burst_fraction = 0.5;
        c->burst_period_s = kNaN;
      },
  };
  for (size_t i = 0; i < std::size(cases); ++i) {
    ArrivalConfig c;
    cases[i](&c);
    EXPECT_EQ(ValidateArrivalConfig(c).code(), StatusCode::kInvalidArgument)
        << "case " << i;
  }
}

TEST(ArrivalsTest, DeterministicAndStrictlyIncreasing) {
  ArrivalConfig c;
  c.rate_hz = 50.0;
  c.seed = 99;
  ArrivalGenerator a(c), b(c);
  double prev = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double ta = a.Next();
    EXPECT_EQ(ta, b.Next());  // same seed => bit-identical sequence
    EXPECT_GT(ta, prev);
    prev = ta;
  }
  EXPECT_EQ(a.now(), prev);
}

TEST(ArrivalsTest, BurstsRaiseArrivalCount) {
  const double horizon = 20.0;
  ArrivalConfig plain;
  plain.rate_hz = 50.0;
  plain.seed = 7;
  ArrivalConfig bursty = plain;
  bursty.burst_factor = 5.0;
  bursty.burst_fraction = 0.5;
  bursty.burst_period_s = 4.0;
  auto count_until = [&](const ArrivalConfig& c) {
    ArrivalGenerator gen(c);
    int n = 0;
    while (gen.Next() < horizon) ++n;
    return n;
  };
  const int plain_n = count_until(plain);
  const int bursty_n = count_until(bursty);
  // Expected rates: 50/s plain vs 50 * (0.5 + 0.5*5) = 150/s bursty.
  EXPECT_GT(plain_n, 700);
  EXPECT_GT(bursty_n, 2 * plain_n);
}

}  // namespace
}  // namespace fexiot
