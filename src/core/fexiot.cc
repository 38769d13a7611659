#include "core/fexiot.h"

#include <sstream>

#include "graph/vuln_checker.h"

namespace fexiot {

FexIoT::FexIoT(FexIotConfig config)
    : config_(std::move(config)),
      model_(std::make_unique<GnnModel>(config_.gnn)),
      drift_(config_.drift),
      rng_(config_.seed) {}

Status FexIoT::TrainLocal(const GraphDataset& train) {
  FEXIOT_RETURN_NOT_OK(ValidateTrainConfig(config_.train));
  if (train.empty()) return Status::InvalidArgument("empty training set");
  const std::vector<PreparedGraph> prepared =
      PrepareDataset(train, config_.gnn);
  GnnTrainer trainer(model_.get(), config_.train);
  trainer.Train(prepared, &rng_);
  return FitHeadAndDrift(train);
}

Status FexIoT::AdoptModel(const GnnModel& model, const GraphDataset& local) {
  *model_ = model;
  return FitHeadAndDrift(local);
}

Status FexIoT::FitHeadAndDrift(const GraphDataset& local) {
  if (local.empty()) return Status::InvalidArgument("empty local set");
  const std::vector<PreparedGraph> prepared =
      PrepareDataset(local, config_.gnn);
  GnnTrainer trainer(model_.get(), config_.train);
  const Matrix emb = trainer.Embed(prepared);
  const std::vector<int> labels = local.Labels();
  FEXIOT_RETURN_NOT_OK(head_.Fit(emb, labels));
  drift_.Fit(emb, labels);
  trained_ = true;
  return Status::OK();
}

InteractionGraph FexIoT::Fuse(const Home& home,
                              const EventLog& raw_log) const {
  // Build cleans the raw log as it mines it.
  InteractionGraph g = OnlineGraphBuilder(home).Build(raw_log);
  // Label from the checker (internal vulnerabilities only; external attack
  // labels come from ground truth the caller holds).
  const auto findings = VulnerabilityChecker::Check(g);
  if (!findings.empty()) {
    g.set_label(1);
    g.set_vulnerability(findings.front().type);
    g.set_witness(findings.front().witness_nodes);
  }
  return g;
}

std::vector<double> FexIoT::Embed(const InteractionGraph& g) const {
  if (g.num_nodes() == 0) {
    return std::vector<double>(
        static_cast<size_t>(model_->config().embedding_dim), 0.0);
  }
  const PreparedGraph prepared = PrepareGraph(g, config_.gnn);
  return model_->Forward(prepared, nullptr);
}

double FexIoT::HeadProba(const InteractionGraph& g,
                         const std::vector<double>& z) const {
  return g.num_nodes() == 0 ? 0.0 : head_.PredictProba(z);
}

double FexIoT::PredictProba(const InteractionGraph& g) const {
  return HeadProba(g, Embed(g));
}

int FexIoT::Predict(const InteractionGraph& g) const {
  return PredictProba(g) >= 0.5 ? 1 : 0;
}

double FexIoT::DriftScore(const InteractionGraph& g) const {
  return drift_.Score(Embed(g));
}

bool FexIoT::IsDrifting(const InteractionGraph& g) const {
  return drift_.IsDrifting(Embed(g));
}

ExplanationResult FexIoT::Explain(const InteractionGraph& g) const {
  GnnGraphScorer scorer(model_.get(), &head_, &g);
  ShapMcbsExplainer explainer(config_.explain);
  return explainer.Explain(scorer, &rng_);
}

FexIoT::Verdict FexIoT::Detect(const InteractionGraph& g) const {
  const std::vector<double> z = Embed(g);
  Verdict v;
  v.probability = HeadProba(g, z);
  v.label = v.probability >= 0.5 ? 1 : 0;
  v.drift_score = drift_.Score(z);
  v.drifting = v.drift_score > config_.drift.threshold;
  return v;
}

FexIoT::Verdict FexIoT::Analyze(const InteractionGraph& g) const {
  Verdict v = Detect(g);
  if (v.label == 1 && g.num_nodes() > 1) {
    v.explanation = Explain(g);
    std::ostringstream os;
    os << "Highest-risk interaction chain (score "
       << v.explanation->score << "):\n";
    for (int node : v.explanation->subgraph_nodes) {
      os << "  [" << node << "] "
         << PlatformName(g.node(node).rule.platform) << ": "
         << g.node(node).rule.description << "\n";
    }
    v.explanation_text = os.str();
  }
  return v;
}

void FexIotSystemDetector::Fit(const std::vector<TestbedSample>& train) {
  GraphDataset data;
  for (const auto& s : train) {
    InteractionGraph g = s.graph;
    g.set_label(s.label);
    if (g.num_nodes() > 0) data.Add(std::move(g));
  }
  const Status st = pipeline_.TrainLocal(data);
  (void)st;
}

int FexIotSystemDetector::Predict(const TestbedSample& sample) const {
  if (sample.graph.num_nodes() == 0) {
    // A log so tampered that no rule firing could be fused is itself
    // suspicious (event-loss attacks).
    return 1;
  }
  // Full pipeline: the supervised head plus the MAD drift filter — a
  // sample outside the training manifold is flagged for inspection
  // (Section III-B3), which is how novel tampering patterns surface.
  const FexIoT::Verdict v = pipeline_.Detect(sample.graph);
  return v.label == 1 || v.drifting ? 1 : 0;
}

}  // namespace fexiot
