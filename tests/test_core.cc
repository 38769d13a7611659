#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/fexiot.h"
#include "core/testbed.h"

namespace fexiot {
namespace {

FexIotConfig SmallConfig() {
  FexIotConfig c;
  c.gnn.type = GnnType::kGin;
  c.gnn.hidden_dim = 12;
  c.gnn.embedding_dim = 12;
  c.train.epochs = 8;
  c.train.learning_rate = 0.02;
  c.train.margin = 3.0;
  c.explain.iterations = 3;
  c.explain.beam_width = 2;
  c.explain.max_subgraph_nodes = 3;
  c.explain.shap_samples = 8;
  return c;
}

GraphDataset SmallCorpus(int n, Rng* rng) {
  CorpusOptions opt;
  opt.platforms = {Platform::kIfttt};
  opt.min_nodes = 4;
  opt.max_nodes = 10;
  opt.vulnerable_fraction = 0.5;
  GraphCorpusGenerator gen(opt, rng);
  return GraphDataset(gen.GenerateDataset(n));
}

TEST(FexIoT, RejectsEmptyTraining) {
  FexIoT fexiot(SmallConfig());
  EXPECT_FALSE(fexiot.TrainLocal(GraphDataset()).ok());
  EXPECT_FALSE(fexiot.trained());
}

TEST(FexIoT, TrainLocalRejectsInvalidTrainConfig) {
  Rng rng(72);
  const GraphDataset data = SmallCorpus(20, &rng);
  FexIotConfig no_epochs = SmallConfig();
  no_epochs.train.epochs = 0;
  FexIotConfig nan_rate = SmallConfig();
  nan_rate.train.learning_rate = std::numeric_limits<double>::quiet_NaN();
  for (const FexIotConfig& c : {no_epochs, nan_rate}) {
    FexIoT fexiot(c);
    EXPECT_EQ(fexiot.TrainLocal(data).code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(fexiot.trained());
  }
}

TEST(FexIoT, TrainPredictExplainEndToEnd) {
  Rng rng(71);
  FexIoT fexiot(SmallConfig());
  GraphDataset data = SmallCorpus(120, &rng);
  ASSERT_TRUE(fexiot.TrainLocal(data).ok());
  EXPECT_TRUE(fexiot.trained());

  // Train-set predictions are better than chance.
  int correct = 0;
  for (const auto& g : data.graphs()) {
    correct += fexiot.Predict(g) == g.label() ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(correct) / data.size(), 0.7);

  // Analyze a vulnerable graph: probability, drift score and (when
  // flagged) a rendered explanation.
  CorpusOptions opt;
  opt.platforms = {Platform::kIfttt};
  opt.min_nodes = 5;
  opt.max_nodes = 9;
  GraphCorpusGenerator gen(opt, &rng);
  const InteractionGraph g =
      gen.GenerateVulnerable(VulnerabilityType::kActionConflict);
  const FexIoT::Verdict verdict = fexiot.Analyze(g);
  EXPECT_GE(verdict.probability, 0.0);
  EXPECT_LE(verdict.probability, 1.0);
  if (verdict.label == 1) {
    ASSERT_TRUE(verdict.explanation.has_value());
    EXPECT_FALSE(verdict.explanation->subgraph_nodes.empty());
    EXPECT_FALSE(verdict.explanation_text.empty());
  }
}

TEST(FexIoT, AdoptModelTransfersRepresentation) {
  Rng rng(72);
  GraphDataset data = SmallCorpus(80, &rng);
  FexIoT trainer_side(SmallConfig());
  ASSERT_TRUE(trainer_side.TrainLocal(data).ok());

  FexIoT adopter(SmallConfig());
  GraphDataset local = SmallCorpus(40, &rng);
  ASSERT_TRUE(adopter.AdoptModel(*trainer_side.model(), local).ok());
  EXPECT_TRUE(adopter.trained());
  // Adopted model produces identical embeddings to the source model.
  const auto z1 = trainer_side.Embed(local.graph(0));
  const auto z2 = adopter.Embed(local.graph(0));
  ASSERT_EQ(z1.size(), z2.size());
  for (size_t i = 0; i < z1.size(); ++i) EXPECT_DOUBLE_EQ(z1[i], z2[i]);
}

TEST(FexIoT, FuseBuildsLabeledOnlineGraph) {
  Rng rng(73);
  TestbedOptions topt;
  const Home home = BuildTestbedHome(topt, &rng);
  SimulationConfig sc;
  sc.duration_seconds = 3 * 3600.0;
  sc.exogenous_mean_gap = 120.0;
  HomeSimulator sim(home, sc, &rng);
  const EventLog raw = sim.Run();
  FexIoT fexiot(SmallConfig());
  const InteractionGraph g = fexiot.Fuse(home, raw);
  // The testbed home is internally benign, so fused graphs are label 0.
  EXPECT_EQ(g.label(), 0);
}

TEST(FexIoT, DriftScoreHigherForNovelPatterns) {
  Rng rng(76);
  FexIoT fexiot(SmallConfig());
  GraphDataset data = SmallCorpus(120, &rng);
  ASSERT_TRUE(fexiot.TrainLocal(data).ok());
  // Same size regime as the training corpus, so "known" samples are
  // in-distribution.
  CorpusOptions opt;
  opt.platforms = {Platform::kIfttt};
  opt.min_nodes = 4;
  opt.max_nodes = 10;
  GraphCorpusGenerator gen(opt, &rng);
  double novel = 0.0;
  for (int i = 0; i < 6; ++i) {
    novel += fexiot.DriftScore(gen.GenerateDrifting());
  }
  // Novel structural patterns exceed the MAD drift threshold on average.
  EXPECT_GT(novel / 6.0, 3.0);
}

// Fuse returns a graph with no nodes when no rule fired. It embeds to the
// zero vector (the empty node set's embedding in GnnGraphScorer), so the
// drift filter scores it and Analyze returns a benign verdict.
TEST(FexIoT, EmptyGraphEmbedsToZeroAndAnalyzes) {
  Rng rng(77);
  FexIoT fexiot(SmallConfig());
  ASSERT_TRUE(fexiot.TrainLocal(SmallCorpus(40, &rng)).ok());
  const InteractionGraph empty;
  const std::vector<double> z = fexiot.Embed(empty);
  EXPECT_EQ(z, std::vector<double>(
                   static_cast<size_t>(SmallConfig().gnn.embedding_dim), 0.0));
  EXPECT_EQ(fexiot.PredictProba(empty), 0.0);
  EXPECT_EQ(fexiot.Predict(empty), 0);
  const double drift = fexiot.DriftScore(empty);
  EXPECT_TRUE(std::isfinite(drift));
  EXPECT_EQ(fexiot.IsDrifting(empty), drift > SmallConfig().drift.threshold);
  const FexIoT::Verdict v = fexiot.Analyze(empty);
  EXPECT_EQ(v.label, 0);
  EXPECT_EQ(v.probability, 0.0);
  EXPECT_EQ(std::memcmp(&v.drift_score, &drift, sizeof drift), 0);
  EXPECT_FALSE(v.explanation.has_value());
  EXPECT_TRUE(v.explanation_text.empty());
}

// Analyze embeds each graph once and feeds both the head and the drift
// filter; its fields equal the single-purpose calls bit for bit.
TEST(FexIoT, AnalyzeEqualsPredictProbaAndDriftScore) {
  Rng rng(78);
  FexIoT fexiot(SmallConfig());
  ASSERT_TRUE(fexiot.TrainLocal(SmallCorpus(60, &rng)).ok());
  const GraphDataset probe = SmallCorpus(24, &rng);
  int flagged = 0;
  for (const InteractionGraph& g : probe.graphs()) {
    const FexIoT::Verdict v = fexiot.Analyze(g);
    const double p = fexiot.PredictProba(g);
    const double d = fexiot.DriftScore(g);
    EXPECT_EQ(std::memcmp(&v.probability, &p, sizeof p), 0);
    EXPECT_EQ(std::memcmp(&v.drift_score, &d, sizeof d), 0);
    EXPECT_EQ(v.label, fexiot.Predict(g));
    EXPECT_EQ(v.drifting, fexiot.IsDrifting(g));
    EXPECT_EQ(v.explanation.has_value(), v.label == 1 && g.num_nodes() > 1);
    flagged += v.label;
  }
  EXPECT_GT(flagged, 0);
}

}  // namespace
}  // namespace fexiot
