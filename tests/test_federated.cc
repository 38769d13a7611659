#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/parallel.h"
#include "federated/fl_simulator.h"
#include "graph/corpus.h"

namespace fexiot {
namespace {

struct Fixture {
  FederatedCorpus corpus;
  GnnConfig gc;
  FlConfig fc;

  static const Fixture& Get() {
    static const Fixture f;
    return f;
  }

  Fixture() {
    Rng rng(42);
    CorpusOptions opt;
    opt.platforms = {Platform::kIfttt};
    opt.min_nodes = 3;
    opt.max_nodes = 8;
    opt.vulnerable_fraction = 0.4;
    corpus = BuildClusteredFederatedCorpus(opt, 120, 6, 2, 1.0, 0.6, &rng);
    gc.type = GnnType::kGin;
    gc.hidden_dim = 8;
    gc.embedding_dim = 8;
    fc.num_rounds = 3;
    fc.local.epochs = 1;
    fc.local.learning_rate = 0.02;
    fc.local.margin = 3.0;
    fc.min_cluster_size = 3;
  }
};

// The run's communication cost: on-wire bytes in both directions.
double WireBytes(const FlResult& res) {
  return res.total_uplink_wire_bytes + res.total_downlink_wire_bytes;
}

TEST(FlAlgorithmName, Stable) {
  EXPECT_STREQ(FlAlgorithmName(FlAlgorithm::kFexiot), "FexIoT");
  EXPECT_STREQ(FlAlgorithmName(FlAlgorithm::kLocalOnly), "Client");
}

TEST(ValidateFlConfig, AcceptsDefaults) {
  EXPECT_TRUE(ValidateFlConfig(FlConfig{}).ok());
}

TEST(ValidateFlConfig, RejectsBadValues) {
  {
    FlConfig fc;
    fc.num_rounds = 0;
    const Status s = ValidateFlConfig(fc);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
  {
    FlConfig fc;
    fc.num_rounds = -3;
    EXPECT_FALSE(ValidateFlConfig(fc).ok());
  }
  {
    FlConfig fc;
    fc.epsilon1 = -0.1;
    EXPECT_FALSE(ValidateFlConfig(fc).ok());
  }
  {
    FlConfig fc;
    fc.epsilon2 = -1.0;
    EXPECT_FALSE(ValidateFlConfig(fc).ok());
  }
  {
    // Runtime knobs are validated through the same entry point.
    FlConfig fc;
    fc.runtime.policy = RoundPolicy::kDeadline;
    fc.runtime.deadline_s = 0.0;
    EXPECT_FALSE(ValidateFlConfig(fc).ok());
  }
  {
    // So is the clients' local TrainConfig.
    FlConfig fc;
    fc.local.epochs = 0;
    EXPECT_EQ(ValidateFlConfig(fc).code(), StatusCode::kInvalidArgument);
  }
  for (double bad : {0.0, -0.01, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    FlConfig fc;
    fc.local.learning_rate = bad;
    EXPECT_FALSE(ValidateFlConfig(fc).ok()) << "learning_rate " << bad;
    fc = FlConfig{};
    fc.local.margin = bad;
    EXPECT_FALSE(ValidateFlConfig(fc).ok()) << "margin " << bad;
    fc = FlConfig{};
    fc.local.pairs_per_sample = bad;
    EXPECT_FALSE(ValidateFlConfig(fc).ok()) << "pairs_per_sample " << bad;
  }
}

TEST(ValidateFlConfig, RejectsNaNInEveryFloatingKnob) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  void (*const cases[])(FlConfig*) = {
      [](FlConfig* c) { c->epsilon1 = kNaN; },
      [](FlConfig* c) { c->epsilon2 = kNaN; },
      // The runtime's and the local trainer's knobs, through the same entry.
      [](FlConfig* c) { c->runtime.default_fault.slowdown = kNaN; },
      [](FlConfig* c) { c->local.margin = kNaN; },
  };
  for (size_t i = 0; i < std::size(cases); ++i) {
    FlConfig fc;
    cases[i](&fc);
    EXPECT_EQ(ValidateFlConfig(fc).code(), StatusCode::kInvalidArgument)
        << "case " << i;
  }
}

TEST(ValidateFlConfig, RunRejectsInvalidConfigWithStatus) {
  const Fixture& f = Fixture::Get();
  FlConfig fc = f.fc;
  fc.num_rounds = 0;
  FederatedSimulator sim(f.gc, fc);
  sim.SetupClients(f.corpus.data, f.corpus.partition, f.corpus.cluster_tests);
  const Result<FlResult> res = sim.Run(FlAlgorithm::kFedAvg);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

TEST(FlClient, LocalTrainRecordsDeltas) {
  const Fixture& f = Fixture::Get();
  FederatedSimulator sim(f.gc, f.fc);
  sim.SetupClients(f.corpus.data, f.corpus.partition, f.corpus.cluster_tests);
  FlClient* client = sim.client(0);
  const std::vector<double> before = client->LayerWeights(0);
  client->LocalTrain();
  const std::vector<double>& delta = client->LayerDelta(0);
  ASSERT_EQ(delta.size(), before.size());
  const std::vector<double> after = client->LayerWeights(0);
  for (size_t i = 0; i < delta.size(); ++i) {
    EXPECT_NEAR(after[i] - before[i], delta[i], 1e-12);
  }
  // EMA initialized to the first delta.
  EXPECT_EQ(client->LayerDeltaEma(0), delta);
}

TEST(FlClient, SetLayerWeightsRoundTrips) {
  const Fixture& f = Fixture::Get();
  FederatedSimulator sim(f.gc, f.fc);
  sim.SetupClients(f.corpus.data, f.corpus.partition, f.corpus.cluster_tests);
  FlClient* client = sim.client(1);
  std::vector<double> w = client->LayerWeights(1);
  for (auto& v : w) v = 0.125;
  client->SetLayerWeights(1, w);
  EXPECT_EQ(client->LayerWeights(1), w);
}

// SetupClients rejects inputs it would otherwise divide by zero on, read
// out of bounds, or weight every client NaN with; it leaves no clients, so
// a following Run fails cleanly.
void ExpectSetupRejected(const GraphDataset& data, const ClientPartition& part,
                         const std::vector<GraphDataset>& cluster_tests) {
  const Fixture& f = Fixture::Get();
  FederatedSimulator sim(f.gc, f.fc);
  const Status s = sim.SetupClients(data, part, cluster_tests);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(sim.num_clients(), 0u);
  const Result<FlResult> res = sim.Run(FlAlgorithm::kFedAvg);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SetupClients, AcceptsTheFixture) {
  const Fixture& f = Fixture::Get();
  FederatedSimulator sim(f.gc, f.fc);
  EXPECT_TRUE(sim.SetupClients(f.corpus.data, f.corpus.partition,
                               f.corpus.cluster_tests)
                  .ok());
  EXPECT_EQ(sim.num_clients(), f.corpus.partition.indices.size());
}

// Each cluster's test pool is prepared once: clients of one cluster hold
// the same pool object, clients of different clusters do not.
TEST(SetupClients, SharesEachClusterTestPool) {
  const Fixture& f = Fixture::Get();
  FederatedSimulator sim(f.gc, f.fc);
  ASSERT_TRUE(sim.SetupClients(f.corpus.data, f.corpus.partition,
                               f.corpus.cluster_tests)
                  .ok());
  const std::vector<int>& cluster = f.corpus.partition.client_cluster;
  ASSERT_EQ(cluster.size(), sim.num_clients());
  bool same_cluster_pair = false, cross_cluster_pair = false;
  for (size_t x = 0; x < sim.num_clients(); ++x) {
    EXPECT_EQ(sim.client(x)->test_graphs().size(),
              f.corpus.cluster_tests[static_cast<size_t>(cluster[x])].size());
    for (size_t y = x + 1; y < sim.num_clients(); ++y) {
      const bool same = cluster[x] == cluster[y];
      (same ? same_cluster_pair : cross_cluster_pair) = true;
      EXPECT_EQ(&sim.client(x)->test_graphs() == &sim.client(y)->test_graphs(),
                same)
          << "clients " << x << " and " << y;
    }
  }
  EXPECT_TRUE(same_cluster_pair);
  EXPECT_TRUE(cross_cluster_pair);
}

TEST(SetupClients, RejectsEmptyClusterTests) {
  const Fixture& f = Fixture::Get();
  ExpectSetupRejected(f.corpus.data, f.corpus.partition, {});
}

TEST(SetupClients, RejectsShortClientClusterList) {
  const Fixture& f = Fixture::Get();
  ClientPartition part = f.corpus.partition;
  ASSERT_GT(part.client_cluster.size(), 1u);
  part.client_cluster.pop_back();
  ExpectSetupRejected(f.corpus.data, part, f.corpus.cluster_tests);
}

TEST(SetupClients, RejectsShardIndexPastTheDataset) {
  const Fixture& f = Fixture::Get();
  ClientPartition part = f.corpus.partition;
  part.indices.back().push_back(f.corpus.data.size());
  ExpectSetupRejected(f.corpus.data, part, f.corpus.cluster_tests);
}

TEST(SetupClients, RejectsFederationWithoutGraphs) {
  const Fixture& f = Fixture::Get();
  ClientPartition part = f.corpus.partition;
  for (auto& shard : part.indices) shard.clear();
  ExpectSetupRejected(f.corpus.data, part, f.corpus.cluster_tests);
}

// A bad GnnConfig is an InvalidArgument, not an exception from inside the
// model constructor.
TEST(SetupClients, RejectsInvalidGnnConfig) {
  const Fixture& f = Fixture::Get();
  for (int hidden : {0, -1}) {
    GnnConfig gc = f.gc;
    gc.hidden_dim = hidden;
    FederatedSimulator sim(gc, f.fc);
    const Status s = sim.SetupClients(f.corpus.data, f.corpus.partition,
                                      f.corpus.cluster_tests);
    ASSERT_FALSE(s.ok()) << "hidden_dim " << hidden;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(sim.num_clients(), 0u);
  }
}

class FlAlgorithmRun : public ::testing::TestWithParam<FlAlgorithm> {};

TEST_P(FlAlgorithmRun, ProducesSaneResult) {
  const Fixture& f = Fixture::Get();
  FederatedSimulator sim(f.gc, f.fc);
  sim.SetupClients(f.corpus.data, f.corpus.partition, f.corpus.cluster_tests);
  const FlResult res = sim.Run(GetParam()).value();
  EXPECT_EQ(res.client_metrics.size(), 6u);
  EXPECT_GE(res.mean.accuracy, 0.0);
  EXPECT_LE(res.mean.accuracy, 1.0);
  EXPECT_EQ(res.rounds.size(), 3u);
  if (GetParam() == FlAlgorithm::kLocalOnly) {
    EXPECT_DOUBLE_EQ(WireBytes(res), 0.0);
  } else {
    EXPECT_GT(res.total_uplink_wire_bytes, 0.0);
    EXPECT_GT(res.total_downlink_wire_bytes, 0.0);
  }
  // Cumulative wire bytes are monotone and end at the run totals.
  for (size_t r = 1; r < res.rounds.size(); ++r) {
    EXPECT_GE(res.rounds[r].uplink_wire_bytes,
              res.rounds[r - 1].uplink_wire_bytes);
    EXPECT_GE(res.rounds[r].downlink_wire_bytes,
              res.rounds[r - 1].downlink_wire_bytes);
  }
  EXPECT_EQ(res.rounds.back().uplink_wire_bytes, res.total_uplink_wire_bytes);
  EXPECT_EQ(res.rounds.back().downlink_wire_bytes,
            res.total_downlink_wire_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, FlAlgorithmRun,
    ::testing::Values(FlAlgorithm::kFedAvg, FlAlgorithm::kFmtl,
                      FlAlgorithm::kGcfl, FlAlgorithm::kFexiot,
                      FlAlgorithm::kLocalOnly));

TEST(FederatedSimulator, FedAvgSynchronizesWeights) {
  const Fixture& f = Fixture::Get();
  FederatedSimulator sim(f.gc, f.fc);
  sim.SetupClients(f.corpus.data, f.corpus.partition, f.corpus.cluster_tests);
  ASSERT_TRUE(sim.Run(FlAlgorithm::kFedAvg).ok());
  // After a FedAvg round every client holds identical weights.
  const std::vector<double> w0 = sim.client(0)->LayerWeights(0);
  for (size_t c = 1; c < sim.num_clients(); ++c) {
    const std::vector<double> wc = sim.client(c)->LayerWeights(0);
    ASSERT_EQ(wc.size(), w0.size());
    for (size_t i = 0; i < w0.size(); ++i) {
      EXPECT_NEAR(wc[i], w0[i], 1e-9);
    }
  }
}

TEST(FederatedSimulator, FexiotCheaperThanFedAvg) {
  const Fixture& f = Fixture::Get();
  FlConfig fc = f.fc;
  fc.num_rounds = 6;
  double fedavg_bytes = 0.0, fexiot_bytes = 0.0;
  {
    FederatedSimulator sim(f.gc, fc);
    sim.SetupClients(f.corpus.data, f.corpus.partition,
                     f.corpus.cluster_tests);
    fedavg_bytes = WireBytes(sim.Run(FlAlgorithm::kFedAvg).value());
  }
  {
    FederatedSimulator sim(f.gc, fc);
    sim.SetupClients(f.corpus.data, f.corpus.partition,
                     f.corpus.cluster_tests);
    fexiot_bytes = WireBytes(sim.Run(FlAlgorithm::kFexiot).value());
  }
  EXPECT_LT(fexiot_bytes, fedavg_bytes);
}

// The whole federated run must be a pure function of the seed, not of the
// thread count: per-client work is parallel, but every reduction happens
// in client index order and inner library parallelism serializes on pool
// workers. Compared bit-exactly, not within tolerance.
TEST(FederatedSimulator, RunIsBitIdenticalAcrossThreadCounts) {
  const Fixture& f = Fixture::Get();
  auto run_with_threads = [&](int threads) {
    parallel::SetThreads(static_cast<size_t>(threads));
    FlConfig fc = f.fc;
    fc.threads = threads;
    FederatedSimulator sim(f.gc, fc);
    sim.SetupClients(f.corpus.data, f.corpus.partition,
                     f.corpus.cluster_tests);
    const FlResult res = sim.Run(FlAlgorithm::kFexiot).value();
    parallel::SetThreads(0);
    return res;
  };
  const FlResult r1 = run_with_threads(1);
  const FlResult r4 = run_with_threads(4);
  EXPECT_EQ(r1.mean.accuracy, r4.mean.accuracy);
  EXPECT_EQ(r1.mean.f1, r4.mean.f1);
  EXPECT_EQ(r1.accuracy_std, r4.accuracy_std);
  EXPECT_EQ(r1.total_uplink_wire_bytes, r4.total_uplink_wire_bytes);
  EXPECT_EQ(r1.total_downlink_wire_bytes, r4.total_downlink_wire_bytes);
  EXPECT_EQ(r1.client_cluster, r4.client_cluster);
  ASSERT_EQ(r1.client_metrics.size(), r4.client_metrics.size());
  for (size_t c = 0; c < r1.client_metrics.size(); ++c) {
    EXPECT_EQ(r1.client_metrics[c].accuracy, r4.client_metrics[c].accuracy)
        << "client " << c;
    EXPECT_EQ(r1.client_metrics[c].f1, r4.client_metrics[c].f1)
        << "client " << c;
  }
}

TEST(FederatedSimulator, LocalOnlyClientsStayIndependent) {
  const Fixture& f = Fixture::Get();
  FederatedSimulator sim(f.gc, f.fc);
  sim.SetupClients(f.corpus.data, f.corpus.partition, f.corpus.cluster_tests);
  ASSERT_TRUE(sim.Run(FlAlgorithm::kLocalOnly).ok());
  const std::vector<double> w0 = sim.client(0)->LayerWeights(0);
  const std::vector<double> w1 = sim.client(1)->LayerWeights(0);
  double diff = 0.0;
  for (size_t i = 0; i < w0.size(); ++i) diff += std::fabs(w0[i] - w1[i]);
  EXPECT_GT(diff, 1e-6);  // no aggregation happened
}

}  // namespace
}  // namespace fexiot
