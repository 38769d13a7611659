#pragma once

#include <memory>
#include <optional>

#include "baselines/testbed.h"
#include "explain/explainer.h"
#include "federated/fl_simulator.h"
#include "gnn/trainer.h"
#include "graph/corpus.h"
#include "graph/fusion.h"
#include "ml/mad.h"

namespace fexiot {

/// \brief End-to-end FexIoT pipeline configuration.
struct FexIotConfig {
  GnnConfig gnn;
  TrainConfig train;
  SearchOptions explain;
  MadDriftDetector::Options drift;
  uint64_t seed = 71;
};

/// \brief The FexIoT system facade (one client's view).
///
/// Wires together the paper's pipeline: cross-modality data fusion (event
/// logs + app descriptions -> online interaction graphs), the contrastive
/// GNN representation (trained locally here, or federally via
/// FederatedSimulator and adopted), the local SGDClassifier detection
/// head, MAD drift filtering, and SHAP-guided Monte Carlo beam search
/// explanation.
///
/// Typical use:
/// \code
///   FexIoT fexiot(FexIotConfig{});
///   fexiot.TrainLocal(train_graphs);           // or AdoptModel(...)
///   auto verdict = fexiot.Analyze(graph);      // detect + drift + explain
/// \endcode
class FexIoT {
 public:
  explicit FexIoT(FexIotConfig config);

  /// \brief Trains the GNN + head + drift detector on local graphs.
  /// Fails with InvalidArgument when the config's TrainConfig fails
  /// ValidateTrainConfig or \p train is empty.
  Status TrainLocal(const GraphDataset& train);

  /// \brief Installs an externally (federally) trained GNN, then fits the
  /// local head and drift statistics on local graphs.
  Status AdoptModel(const GnnModel& model, const GraphDataset& local);

  /// \brief Fuses a raw event log with a home's deployed rules into an
  /// online interaction graph (OnlineGraphBuilder::Build, which cleans as
  /// it mines), labelled 1 with the checker's first finding when
  /// VulnerabilityChecker::Check finds any.
  InteractionGraph Fuse(const Home& home, const EventLog& raw_log) const;

  /// Probability the interaction graph is vulnerable (0 for a graph with
  /// no nodes).
  double PredictProba(const InteractionGraph& g) const;
  /// Binary verdict (1 = vulnerable).
  int Predict(const InteractionGraph& g) const;
  /// MAD drift score (Section III-B3); > threshold = drifting sample.
  double DriftScore(const InteractionGraph& g) const;
  bool IsDrifting(const InteractionGraph& g) const;

  /// \brief Explanation: the highest-risk connected subgraph (Alg. 2).
  ExplanationResult Explain(const InteractionGraph& g) const;

  /// \brief Full analysis verdict.
  struct Verdict {
    int label = 0;
    double probability = 0.0;
    bool drifting = false;
    double drift_score = 0.0;
    /// Present when label == 1.
    std::optional<ExplanationResult> explanation;
    /// Human-readable rendering of the explanation subgraph.
    std::string explanation_text;
  };
  Verdict Analyze(const InteractionGraph& g) const;

  /// \brief Analyze without the explanation: one embedding of \p g feeds
  /// both the head and the drift filter. Fields equal PredictProba,
  /// Predict, DriftScore and IsDrifting bit for bit.
  Verdict Detect(const InteractionGraph& g) const;

  /// Graph embedding (for drift/cluster analyses). A graph with no nodes
  /// (Fuse returns one when no rule fired) embeds to the zero vector, the
  /// embedding GnnGraphScorer scores for the empty node set.
  std::vector<double> Embed(const InteractionGraph& g) const;

  GnnModel* model() { return model_.get(); }
  const SgdClassifier& head() const { return head_; }
  bool trained() const { return trained_; }

 private:
  Status FitHeadAndDrift(const GraphDataset& local);
  /// PredictProba of \p g from its embedding \p z.
  double HeadProba(const InteractionGraph& g,
                   const std::vector<double>& z) const;

  FexIotConfig config_;
  std::unique_ptr<GnnModel> model_;
  SgdClassifier head_;
  MadDriftDetector drift_;
  mutable Rng rng_;
  bool trained_ = false;
};

/// \brief Adapter running the full FexIoT pipeline as a Table II
/// SystemDetector over testbed samples.
class FexIotSystemDetector : public SystemDetector {
 public:
  explicit FexIotSystemDetector(FexIotConfig config)
      : pipeline_(std::move(config)) {}

  void Fit(const std::vector<TestbedSample>& train) override;
  int Predict(const TestbedSample& sample) const override;
  const char* Name() const override { return "FexIoT"; }

  FexIoT* pipeline() { return &pipeline_; }

 private:
  FexIoT pipeline_;
};

}  // namespace fexiot
