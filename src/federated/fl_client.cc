#include "federated/fl_client.h"

namespace fexiot {

FlClient::FlClient(
    int id, const GnnConfig& model_config, const TrainConfig& train,
    std::vector<PreparedGraph> train_graphs,
    std::shared_ptr<const std::vector<PreparedGraph>> test_graphs, Rng rng)
    : id_(id),
      model_([&] {
        GnnConfig c = model_config;
        // All clients share initial weights (same seed), as FL requires.
        return GnnModel(c);
      }()),
      train_config_(train),
      train_graphs_(std::move(train_graphs)),
      test_graphs_(std::move(test_graphs)),
      rng_(rng) {
  layer_deltas_.resize(static_cast<size_t>(model_.num_layers()));
  layer_delta_ema_.resize(static_cast<size_t>(model_.num_layers()));
}

double FlClient::LocalTrain() {
  std::vector<std::vector<double>> before(
      static_cast<size_t>(model_.num_layers()));
  for (int l = 0; l < model_.num_layers(); ++l) {
    before[static_cast<size_t>(l)] = model_.GetLayerFlat(l);
  }
  GnnTrainer trainer(&model_, train_config_);
  const double loss = trainer.Train(train_graphs_, &rng_);
  for (int l = 0; l < model_.num_layers(); ++l) {
    std::vector<double> after = model_.GetLayerFlat(l);
    auto& delta = layer_deltas_[static_cast<size_t>(l)];
    delta.resize(after.size());
    for (size_t i = 0; i < after.size(); ++i) {
      delta[i] = after[i] - before[static_cast<size_t>(l)][i];
    }
    auto& ema = layer_delta_ema_[static_cast<size_t>(l)];
    if (ema.empty()) {
      ema = delta;
    } else {
      for (size_t i = 0; i < ema.size(); ++i) {
        ema[i] = 0.5 * ema[i] + 0.5 * delta[i];
      }
    }
  }
  return loss;
}

ClassificationMetrics FlClient::EvaluateLocal() {
  GnnTrainer trainer(&model_, train_config_);
  return trainer.Evaluate(train_graphs_, *test_graphs_);
}

}  // namespace fexiot
