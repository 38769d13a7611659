#include <gtest/gtest.h>

#include "graph/corpus.h"
#include "graph/dataset.h"
#include "graph/fusion.h"
#include "graph/interaction_graph.h"
#include "graph/vuln_checker.h"
#include "smarthome/attacks.h"
#include "smarthome/home.h"

namespace fexiot {
namespace {

RuleGenerator MakeGen(Rng* rng) {
  return RuleGenerator(Platform::kIfttt, rng);
}

TEST(InteractionGraph, NodesAndEdges) {
  InteractionGraph g;
  for (int i = 0; i < 3; ++i) g.AddNode(GraphNode{});
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 1);  // duplicate ignored
  g.AddEdge(1, 1);  // self loop ignored
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_EQ(g.OutNeighbors(0).size(), 1u);
  EXPECT_EQ(g.InNeighbors(2).size(), 1u);
  EXPECT_EQ(g.UndirectedNeighbors(1).size(), 2u);
}

TEST(InteractionGraph, NormalizedAdjacencySymmetricRowBounded) {
  InteractionGraph g;
  for (int i = 0; i < 4; ++i) g.AddNode(GraphNode{});
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  const Matrix a = g.NormalizedAdjacency();
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(a.At(i, j), a.At(j, i), 1e-12);
    }
  }
  // Isolated node keeps only its self loop weight 1.
  EXPECT_DOUBLE_EQ(a.At(3, 3), 1.0);
}

TEST(InteractionGraph, InducedSubgraphRemapsEdges) {
  InteractionGraph g;
  for (int i = 0; i < 4; ++i) g.AddNode(GraphNode{});
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  const InteractionGraph sub = g.InducedSubgraph({1, 2});
  EXPECT_EQ(sub.num_nodes(), 2);
  EXPECT_EQ(sub.num_edges(), 1);
  EXPECT_TRUE(sub.HasEdge(0, 1));
}

TEST(InteractionGraph, ConnectivityQueries) {
  InteractionGraph g;
  for (int i = 0; i < 5; ++i) g.AddNode(GraphNode{});
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(3, 4);
  EXPECT_TRUE(g.IsConnectedSubset({0, 1, 2}));
  EXPECT_FALSE(g.IsConnectedSubset({0, 3}));
  EXPECT_TRUE(g.IsConnectedSubset({4}));
  EXPECT_EQ(g.ConnectedComponents().size(), 2u);
}

TEST(InteractionGraph, IsConnectedSubsetMatchesInducedComponents) {
  // Oracle: a subset is connected iff its induced subgraph has exactly one
  // connected component; checked on every subset of a few random graphs.
  Rng rng(907);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = trial == 5 ? 12 : 4 + trial;  // 4..8, then 12
    InteractionGraph g;
    for (int i = 0; i < n; ++i) g.AddNode(GraphNode{});
    const double p = trial % 2 == 0 ? 0.2 : 0.35;
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) {
        if (u != v && rng.Bernoulli(p)) g.AddEdge(u, v);
      }
    }
    for (uint32_t mask = 0; mask < (1u << n); ++mask) {
      std::vector<int> s;
      for (int v = 0; v < n; ++v) {
        if (mask & (1u << v)) s.push_back(v);
      }
      const bool expected =
          !s.empty() && g.InducedSubgraph(s).ConnectedComponents().size() == 1;
      ASSERT_EQ(g.IsConnectedSubset(s), expected)
          << "trial " << trial << " mask " << mask;
    }
  }
  InteractionGraph single;
  single.AddNode(GraphNode{});
  EXPECT_FALSE(single.IsConnectedSubset({}));
  EXPECT_TRUE(single.IsConnectedSubset({0}));
}

TEST(InteractionGraph, DirectedCycleDetection) {
  InteractionGraph g;
  for (int i = 0; i < 3; ++i) g.AddNode(GraphNode{});
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  EXPECT_FALSE(g.HasDirectedCycle());
  g.AddEdge(2, 0);
  EXPECT_TRUE(g.HasDirectedCycle());
}

TEST(NodeFeatures, DimsAndTimeEncoding) {
  Rng rng(1);
  RuleGenerator gen = MakeGen(&rng);
  const Rule r = gen.Generate();
  const auto offline = ComputeNodeFeatures(r, -1.0);
  EXPECT_EQ(offline.size(), static_cast<size_t>(kHomoFeatureDim));
  // Offline: all extra dims zero.
  for (int k = 1; k <= 4; ++k) {
    EXPECT_DOUBLE_EQ(offline[offline.size() - k], 0.0);
  }
  const auto online = ComputeNodeFeatures(r, 6 * 3600.0);
  // Online: time dims set; consistency slots stay 0 (= fully consistent,
  // deviation encoding) until the fusion builder fills them.
  EXPECT_DOUBLE_EQ(online[online.size() - 1], 0.0);
  EXPECT_DOUBLE_EQ(online[online.size() - 2], 0.0);
  EXPECT_NE(online[online.size() - 4], 0.0);
}

// Property suite: every planted vulnerability type must be found by the
// checker with a witness covering the planted nodes.
class PlantedVulnerabilityTest
    : public ::testing::TestWithParam<VulnerabilityType> {};

TEST_P(PlantedVulnerabilityTest, CheckerFindsPlantedWitness) {
  Rng rng(17);
  CorpusOptions opt;
  opt.platforms = {Platform::kIfttt};
  opt.min_nodes = 4;
  opt.max_nodes = 10;
  GraphCorpusGenerator gen(opt, &rng);
  for (int trial = 0; trial < 5; ++trial) {
    const InteractionGraph g = gen.GenerateVulnerable(GetParam());
    EXPECT_EQ(g.label(), 1);
    EXPECT_EQ(g.vulnerability(), GetParam());
    EXPECT_FALSE(g.witness().empty());
    const auto findings = VulnerabilityChecker::CheckType(g, GetParam());
    EXPECT_FALSE(findings.empty())
        << "checker missed planted " << VulnerabilityTypeName(GetParam())
        << "\n" << g.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, PlantedVulnerabilityTest,
    ::testing::Values(VulnerabilityType::kConditionBypass,
                      VulnerabilityType::kConditionBlock,
                      VulnerabilityType::kActionRevert,
                      VulnerabilityType::kActionLoop,
                      VulnerabilityType::kActionConflict,
                      VulnerabilityType::kActionDuplicate));

TEST(Corpus, BenignGraphsAreClean) {
  Rng rng(18);
  CorpusOptions opt;
  opt.platforms = {Platform::kIfttt};
  opt.min_nodes = 4;
  opt.max_nodes = 12;
  GraphCorpusGenerator gen(opt, &rng);
  for (int i = 0; i < 10; ++i) {
    const InteractionGraph g = gen.GenerateBenign();
    EXPECT_EQ(g.label(), 0);
    EXPECT_TRUE(VulnerabilityChecker::Check(g).empty()) << g.ToString();
  }
}

TEST(Corpus, DatasetRespectsVulnerableFraction) {
  Rng rng(19);
  CorpusOptions opt;
  opt.platforms = {Platform::kIfttt};
  opt.min_nodes = 3;
  opt.max_nodes = 8;
  opt.vulnerable_fraction = 0.4;
  GraphCorpusGenerator gen(opt, &rng);
  GraphDataset data(gen.GenerateDataset(50));
  EXPECT_NEAR(data.VulnerableFraction(), 0.4, 0.05);
}

TEST(Corpus, DriftingGraphsDifferFromKnownTypes) {
  Rng rng(20);
  CorpusOptions opt;
  opt.platforms = {Platform::kIfttt};
  GraphCorpusGenerator gen(opt, &rng);
  for (int i = 0; i < 6; ++i) {
    const InteractionGraph g = gen.GenerateDrifting();
    EXPECT_EQ(g.label(), 1);
    EXPECT_EQ(g.vulnerability(), VulnerabilityType::kNone);
    EXPECT_GT(g.num_nodes(), 3);
  }
}

TEST(Dataset, SplitPreservesAllSamples) {
  Rng rng(21);
  CorpusOptions opt;
  opt.platforms = {Platform::kIfttt};
  opt.min_nodes = 3;
  opt.max_nodes = 6;
  GraphCorpusGenerator gen(opt, &rng);
  GraphDataset data(gen.GenerateDataset(30));
  GraphDataset train, test;
  data.Split(0.8, &rng, &train, &test);
  EXPECT_EQ(train.size() + test.size(), data.size());
  EXPECT_EQ(train.size(), 24u);
}

TEST(Dataset, ClusteredFederatedCorpusInvariants) {
  Rng rng(23);
  CorpusOptions opt;
  opt.platforms = {Platform::kIfttt};
  opt.min_nodes = 3;
  opt.max_nodes = 8;
  opt.vulnerable_fraction = 0.3;
  const FederatedCorpus corpus =
      BuildClusteredFederatedCorpus(opt, 90, 6, 3, 1.0, 0.5, &rng);
  EXPECT_EQ(corpus.partition.indices.size(), 6u);
  EXPECT_EQ(corpus.cluster_tests.size(), 3u);
  for (const auto& pool : corpus.cluster_tests) EXPECT_GT(pool.size(), 0u);
  // Every client holds at least 3 samples of each class.
  for (const auto& shard : corpus.partition.indices) {
    int pos = 0, neg = 0;
    for (size_t i : shard) {
      (corpus.data.graph(i).label() == 1 ? pos : neg) += 1;
    }
    EXPECT_GE(pos, 3);
    EXPECT_GE(neg, 3);
  }
}

TEST(Dataset, SplitAndPartitionHandleDegenerateInputs) {
  Rng rng(27);
  // 0 graphs: the split stays well-formed and empty.
  GraphDataset empty;
  GraphDataset train, test;
  empty.Split(0.8, &rng, &train, &test);
  EXPECT_TRUE(train.empty());
  EXPECT_TRUE(test.empty());
}

#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST)
TEST(DatasetDeathTest, NullRngAsserts) {
  GraphDataset data;
  data.Add(InteractionGraph{});
  GraphDataset train, test;
  EXPECT_DEATH(data.Split(0.5, nullptr, &train, &test), "rng");
}
#endif

TEST(Fusion, OnlineGraphFromSimulatedLog) {
  Rng rng(24);
  const Home home = BuildRandomHome(10, {Platform::kSmartThings}, &rng);
  SimulationConfig config;
  config.duration_seconds = 6 * 3600.0;
  config.exogenous_mean_gap = 200.0;
  HomeSimulator sim(home, config, &rng);
  const EventLog cleaned = sim.Run().Cleaned();
  OnlineGraphBuilder builder(home);
  const InteractionGraph g = builder.Build(cleaned);
  // Every node corresponds to a deployed rule and carries online features.
  for (int i = 0; i < g.num_nodes(); ++i) {
    EXPECT_GE(g.node(i).event_time, 0.0);
    const auto& f = g.node(i).features;
    EXPECT_EQ(f.size(), static_cast<size_t>(kHomoFeatureDim));
  }
}

TEST(Fusion, ConsistencyDimsDropUnderCommandFailure) {
  Rng rng(25);
  const Home home = BuildRandomHome(12, {Platform::kSmartThings}, &rng);
  SimulationConfig config;
  config.duration_seconds = 8 * 3600.0;
  config.exogenous_mean_gap = 150.0;
  config.execution_error_rate = 0.0;
  HomeSimulator sim(home, config, &rng);
  const EventLog raw = sim.Run();

  OnlineGraphBuilder builder(home);
  const InteractionGraph clean_graph = builder.Build(raw.Cleaned());
  AttackInjector injector(home, &rng);
  const AttackResult attacked =
      injector.Inject(raw, AttackType::kStealthyCommand, 0.8);
  const InteractionGraph attacked_graph =
      builder.Build(attacked.log.Cleaned());

  auto mean_cmd_consistency = [](const InteractionGraph& g) {
    if (g.num_nodes() == 0) return 1.0;
    double s = 0.0;
    for (int i = 0; i < g.num_nodes(); ++i) {
      const auto& f = g.node(i).features;
      s += f[f.size() - kFeatureDimCommandConsistency];
    }
    return s / g.num_nodes();
  };
  if (clean_graph.num_nodes() > 0 && attacked_graph.num_nodes() > 0) {
    EXPECT_GE(mean_cmd_consistency(clean_graph),
              mean_cmd_consistency(attacked_graph));
  }
}

TEST(RelationalFeatures, ConflictSiblingsGetR2) {
  Rng rng(26);
  CorpusOptions opt;
  opt.platforms = {Platform::kIfttt};
  opt.min_nodes = 4;
  opt.max_nodes = 8;
  opt.extraction_noise = 0.0;
  GraphCorpusGenerator gen(opt, &rng);
  const InteractionGraph g =
      gen.GenerateVulnerable(VulnerabilityType::kActionConflict);
  // At least one witness node has the conflict relational dim set.
  bool any_r2 = false;
  for (int v : g.witness()) {
    const auto& f = g.node(v).features;
    any_r2 |= f[f.size() - kExtraFeatureDims + 2] > 0.5;
  }
  EXPECT_TRUE(any_r2);
}

}  // namespace
}  // namespace fexiot
