#include "baselines/deeplog.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "ml/isolation_forest.h"

namespace fexiot {

std::vector<int> DeepLogDetector::EncodeLog(const EventLog& log,
                                            int vocab_size) {
  std::vector<int> keys;
  keys.reserve(log.size());
  for (const auto& e : log.entries()) {
    // Key = hash(device type, logical value) folded into the vocab.
    const uint64_t h =
        HashString(std::to_string(static_cast<int>(e.device)) + ":" + e.value);
    keys.push_back(static_cast<int>(h % static_cast<uint64_t>(vocab_size)));
  }
  return keys;
}

void DeepLogDetector::Fit(const std::vector<TestbedSample>& train) {
  model_ = std::make_unique<LstmLanguageModel>(options_.lstm);
  std::vector<std::vector<int>> sequences;
  for (const auto& s : train) {
    if (s.label != 0) continue;  // DeepLog trains on normal logs only
    sequences.push_back(EncodeLog(s.log, options_.lstm.vocab_size));
  }
  model_->Fit(sequences);
  // Calibrate the anomaly-rate threshold on benign training logs.
  std::vector<double> rates;
  for (const auto& seq : sequences) {
    rates.push_back(model_->AnomalyRate(seq, options_.top_k));
  }
  std::sort(rates.begin(), rates.end());
  const double q = rates.empty()
                       ? 0.2
                       : rates[static_cast<size_t>(0.9 * (rates.size() - 1))];
  threshold_ = q + options_.rate_margin;
}

int DeepLogDetector::Predict(const TestbedSample& sample) const {
  if (!model_) return 0;
  const std::vector<int> keys =
      EncodeLog(sample.log, options_.lstm.vocab_size);
  return model_->AnomalyRate(keys, options_.top_k) > threshold_ ? 1 : 0;
}

class IsolationForestDetector::Impl {
 public:
  IsolationForest forest;
};

std::vector<double> IsolationForestDetector::Featurize(const EventLog& log) {
  // Per device type: state-change count and active-state fraction; plus
  // global rates.
  std::vector<double> f(2 * kNumDeviceTypes + 3, 0.0);
  double duration = 1.0;
  if (!log.empty()) {
    duration = std::max(1.0, log.entries().back().timestamp -
                                 log.entries().front().timestamp);
  }
  std::vector<int> active(kNumDeviceTypes, 0);
  for (const auto& e : log.entries()) {
    const int d = static_cast<int>(e.device);
    f[static_cast<size_t>(2 * d)] += 1.0;
    if (IsValidState(e.device, e.value) && e.value == ActiveState(e.device)) {
      ++active[static_cast<size_t>(d)];
    }
  }
  for (int d = 0; d < kNumDeviceTypes; ++d) {
    const double count = f[static_cast<size_t>(2 * d)];
    f[static_cast<size_t>(2 * d + 1)] =
        count > 0 ? active[static_cast<size_t>(d)] / count : 0.0;
    // Log-scale counts to tame heavy tails.
    f[static_cast<size_t>(2 * d)] = std::log1p(count);
  }
  f[static_cast<size_t>(2 * kNumDeviceTypes)] =
      std::log1p(static_cast<double>(log.size()));
  f[static_cast<size_t>(2 * kNumDeviceTypes) + 1] =
      static_cast<double>(log.size()) / duration * 3600.0;  // events/hour
  f[static_cast<size_t>(2 * kNumDeviceTypes) + 2] = duration / 3600.0;
  return f;
}

void IsolationForestDetector::Fit(const std::vector<TestbedSample>& train) {
  impl_ = std::make_shared<Impl>();
  std::vector<std::vector<double>> rows;
  for (const auto& s : train) rows.push_back(Featurize(s.log));
  if (rows.empty()) return;
  Matrix x(rows.size(), rows.front().size());
  for (size_t i = 0; i < rows.size(); ++i) x.SetRow(i, rows[i]);
  impl_->forest.Fit(x);
  if (options_.score_threshold > 0.0) {
    threshold_ = options_.score_threshold;
  } else {
    std::vector<double> scores;
    for (const auto& r : rows) scores.push_back(impl_->forest.Score(r));
    std::sort(scores.begin(), scores.end());
    threshold_ = scores[static_cast<size_t>(
        options_.quantile * static_cast<double>(scores.size() - 1))];
  }
}

int IsolationForestDetector::Predict(const TestbedSample& sample) const {
  if (!impl_) return 0;
  return impl_->forest.Score(Featurize(sample.log)) > threshold_ ? 1 : 0;
}

}  // namespace fexiot
