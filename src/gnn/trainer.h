#pragma once

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "gnn/contrastive.h"
#include "gnn/gnn_model.h"
#include "graph/dataset.h"
#include "ml/linear_model.h"
#include "ml/metrics.h"

namespace fexiot {

/// \brief Local training configuration for one client / one epoch batch.
struct TrainConfig {
  int epochs = 1;
  double learning_rate = 0.01;
  /// Contrastive margin k of Eq. 2.
  double margin = 2.0;
  /// Loss variant (stable Hadsell default; kSquaredMargin = Eq. 2 literal).
  ContrastiveForm form = ContrastiveForm::kHadsellMargin;
  /// Pairs sampled per epoch = pairs_per_sample * dataset size.
  double pairs_per_sample = 1.0;
  /// When false, trains with a supervised embedding-level objective
  /// instead of contrastive pairs (used by the ablation bench).
  bool contrastive = true;
};

/// \brief Checks \p config before training with it: epochs >= 1 and a
/// finite, positive learning_rate, margin and pairs_per_sample. Fails with
/// InvalidArgument otherwise. GnnTrainer assumes a valid config.
Status ValidateTrainConfig(const TrainConfig& config);

/// \brief Contrastive GNN trainer (Section III-B1): samples graph pairs,
/// forward/backward through the shared GNN, SGD updates. Also provides
/// embedding extraction and end-to-end evaluation with the local
/// SGDClassifier head.
class GnnTrainer {
 public:
  GnnTrainer(GnnModel* model, TrainConfig config)
      : model_(model), config_(config) {}

  /// \brief Runs local training epochs on prepared graphs; returns mean
  /// contrastive loss over sampled pairs.
  double Train(const std::vector<PreparedGraph>& graphs, Rng* rng);

  /// \brief Embeddings of all graphs, one row each.
  Matrix Embed(const std::vector<PreparedGraph>& graphs) const;

  /// \brief Trains a fresh local linear head on train embeddings and
  /// evaluates on test graphs.
  ClassificationMetrics Evaluate(
      const std::vector<PreparedGraph>& train_graphs,
      const std::vector<PreparedGraph>& test_graphs) const;

  GnnModel* model() { return model_; }

 private:
  double TrainContrastive(const std::vector<PreparedGraph>& graphs, Rng* rng);
  double TrainSupervised(const std::vector<PreparedGraph>& graphs, Rng* rng);

  GnnModel* model_;
  TrainConfig config_;
};

/// \brief Prepares every graph of a dataset for \p config.
std::vector<PreparedGraph> PrepareDataset(const GraphDataset& data,
                                          const GnnConfig& config);
std::vector<PreparedGraph> PrepareGraphs(
    const std::vector<InteractionGraph>& graphs, const GnnConfig& config);

}  // namespace fexiot
