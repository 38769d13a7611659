#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "baselines/deeplog.h"
#include "baselines/hawatcher.h"
#include "baselines/lstm.h"
#include "core/testbed.h"
#include "ml/metrics.h"

namespace fexiot {
namespace {

TEST(Lstm, LearnsDeterministicCycle) {
  // Sequence 0 1 2 3 0 1 2 3 ... must become predictable.
  LstmLanguageModel::Options opt;
  opt.vocab_size = 8;
  opt.embedding_dim = 8;
  opt.hidden_dim = 16;
  opt.epochs = 50;
  opt.learning_rate = 0.2;
  LstmLanguageModel lstm(opt);
  std::vector<int> cycle;
  for (int i = 0; i < 120; ++i) cycle.push_back(i % 4);
  const double ce = lstm.Fit({cycle});
  EXPECT_LT(ce, 0.4);  // near-deterministic next-key prediction
  const std::vector<double> next = lstm.NextKeyDistribution({0, 1, 2});
  EXPECT_EQ(std::max_element(next.begin(), next.end()) - next.begin(), 3);
  EXPECT_LT(lstm.AnomalyRate(cycle, 2), 0.1);
  // A shuffled sequence looks anomalous.
  std::vector<int> broken = {0, 2, 1, 3, 2, 0, 3, 1, 0, 3, 2, 1};
  EXPECT_GT(lstm.AnomalyRate(broken, 1), 0.3);
}

TEST(Lstm, NextKeyDistributionIsNormalized) {
  LstmLanguageModel::Options opt;
  opt.vocab_size = 6;
  LstmLanguageModel lstm(opt);
  const auto dist = lstm.NextKeyDistribution({0, 1, 2});
  ASSERT_EQ(dist.size(), 6u);
  double sum = 0.0;
  for (double p : dist) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

struct TestbedFixture {
  std::vector<TestbedSample> train, test;

  static const TestbedFixture& Get() {
    static const TestbedFixture f;
    return f;
  }

  TestbedFixture() {
    Rng rng(66);
    TestbedOptions opt;
    opt.num_samples = 60;
    opt.attacked_fraction = 0.5;
    opt.window_hours = 2.0;
    auto samples = GenerateTestbed(opt, &rng);
    const size_t n_train = samples.size() / 2;
    train.assign(samples.begin(), samples.begin() + static_cast<long>(n_train));
    test.assign(samples.begin() + static_cast<long>(n_train), samples.end());
  }
};

TEST(Testbed, SamplesAreWellFormed) {
  const auto& f = TestbedFixture::Get();
  int attacked = 0;
  for (const auto& s : f.train) {
    attacked += s.attacked ? 1 : 0;
    if (s.attacked) EXPECT_EQ(s.label, 1);
    EXPECT_GT(s.log.size(), 0u);
  }
  EXPECT_GT(attacked, 0);
}

TEST(HaWatcher, BetterThanChanceOnTestbed) {
  const auto& f = TestbedFixture::Get();
  HaWatcherDetector detector;
  detector.Fit(f.train);
  std::vector<int> labels, preds;
  for (const auto& s : f.test) {
    labels.push_back(s.label);
    preds.push_back(detector.Predict(s));
  }
  const ClassificationMetrics m = ComputeMetrics(labels, preds);
  EXPECT_GT(m.accuracy, 0.5);
}

TEST(DeepLog, TrainsAndPredicts) {
  const auto& f = TestbedFixture::Get();
  DeepLogDetector::Options opt;
  opt.lstm.epochs = 2;  // keep the unit test fast
  DeepLogDetector detector(opt);
  detector.Fit(f.train);
  int positives = 0;
  for (const auto& s : f.test) positives += detector.Predict(s);
  // Must not be a constant classifier.
  EXPECT_GT(positives, 0);
  EXPECT_LT(positives, static_cast<int>(f.test.size()));
}

TEST(IsolationForestDetector, FeaturizeIsStable) {
  const auto& f = TestbedFixture::Get();
  const auto v1 = IsolationForestDetector::Featurize(f.train[0].log);
  const auto v2 = IsolationForestDetector::Featurize(f.train[0].log);
  EXPECT_EQ(v1, v2);
  EXPECT_EQ(v1.size(), static_cast<size_t>(2 * kNumDeviceTypes + 3));
}

TEST(IsolationForestDetector, RunsOnTestbed) {
  const auto& f = TestbedFixture::Get();
  IsolationForestDetector detector;
  detector.Fit(f.train);
  int positives = 0;
  for (const auto& s : f.test) positives += detector.Predict(s);
  EXPECT_GE(positives, 0);
  EXPECT_LE(positives, static_cast<int>(f.test.size()));
}

TEST(DeepLogEncoding, KeysWithinVocab) {
  const auto& f = TestbedFixture::Get();
  const auto keys = DeepLogDetector::EncodeLog(f.train[0].log, 64);
  EXPECT_EQ(keys.size(), f.train[0].log.size());
  for (int k : keys) {
    EXPECT_GE(k, 0);
    EXPECT_LT(k, 64);
  }
}

}  // namespace
}  // namespace fexiot
