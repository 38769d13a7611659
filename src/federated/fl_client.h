#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "federated/fl_types.h"
#include "gnn/gnn_model.h"
#include "gnn/trainer.h"

namespace fexiot {

/// \brief One federated client (a house): holds its private graph shards,
/// its GNN replica and its local linear head. Raw graphs never leave the
/// client; only (layer-wise) model weights are exchanged. The test pool is
/// its cluster's, prepared once and shared read-only by every client of
/// that cluster.
class FlClient {
 public:
  FlClient(int id, const GnnConfig& model_config, const TrainConfig& train,
           std::vector<PreparedGraph> train_graphs,
           std::shared_ptr<const std::vector<PreparedGraph>> test_graphs,
           Rng rng);

  int id() const { return id_; }
  size_t num_train_graphs() const { return train_graphs_.size(); }

  /// \brief Snapshot weights, run local epochs, record per-layer deltas.
  /// Returns mean local loss.
  double LocalTrain();

  /// Flattened weights of layer \p l after local training.
  std::vector<double> LayerWeights(int l) const {
    return model_.GetLayerFlat(l);
  }
  /// Flattened delta of layer \p l from the last LocalTrain call.
  const std::vector<double>& LayerDelta(int l) const {
    return layer_deltas_[static_cast<size_t>(l)];
  }
  /// Exponential moving average of the layer's deltas across rounds — the
  /// stable per-client drift direction used as the clustering signal.
  const std::vector<double>& LayerDeltaEma(int l) const {
    return layer_delta_ema_[static_cast<size_t>(l)];
  }
  /// Installs server-aggregated weights for layer \p l.
  void SetLayerWeights(int l, const std::vector<double>& flat) {
    model_.SetLayerFlat(l, flat);
  }

  int num_layers() const { return model_.num_layers(); }
  size_t LayerBytes(int l) const { return model_.LayerBytes(l); }

  /// Local-test metrics using a freshly fit local SGD head.
  ClassificationMetrics EvaluateLocal();

  const std::vector<PreparedGraph>& train_graphs() const {
    return train_graphs_;
  }
  const std::vector<PreparedGraph>& test_graphs() const {
    return *test_graphs_;
  }
  GnnModel* model() { return &model_; }

 private:
  int id_;
  GnnModel model_;
  TrainConfig train_config_;
  std::vector<PreparedGraph> train_graphs_;
  std::shared_ptr<const std::vector<PreparedGraph>> test_graphs_;
  std::vector<std::vector<double>> layer_deltas_;
  std::vector<std::vector<double>> layer_delta_ema_;
  Rng rng_;
};

}  // namespace fexiot
