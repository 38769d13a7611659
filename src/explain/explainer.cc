#include "explain/explainer.h"

#include <algorithm>
#include <set>
#include <vector>

namespace fexiot {

// Reward adapters only — the search itself (waves, transposition table,
// virtual loss, determinism discipline) lives in explain/search.cc. Every
// reward below is a pure function of (rng stream, subset): it touches no
// mutable state beyond its own Rng and the scorer's thread-safe memo, so
// the core may evaluate it from any parallel worker.

ExplanationResult ShapMcbsExplainer::Explain(const GnnGraphScorer& scorer,
                                             Rng* rng) {
  const KernelShap shap(KernelShap::Options{options_.shap_samples});
  const RewardFn reward = [&shap, &scorer](const NodeSet& s, Rng* r) {
    return shap.SubgraphShap(scorer, s, r);
  };
  return ParallelSubgraphSearch(scorer, options_, reward, RewardBatchFn{},
                                rng);
}

ExplanationResult SubgraphXExplainer::Explain(const GnnGraphScorer& scorer,
                                              Rng* rng) {
  const InteractionGraph& g = scorer.graph();
  // Shapley value with the independence assumption: average marginal
  // contribution of the subgraph over uniformly sampled context
  // coalitions of the *other* nodes.
  const int samples = std::max(2, options_.shap_samples / 2);
  const RewardFn reward = [&g, &scorer, samples](const NodeSet& s, Rng* r) {
    std::set<int> sub(s.begin(), s.end());
    std::vector<int> others;
    for (int v = 0; v < g.num_nodes(); ++v) {
      if (!sub.count(v)) others.push_back(v);
    }
    // Draw every context up front (scoring consumes no randomness), then
    // push all with/without pairs through one batched scorer call.
    std::vector<std::vector<int>> sets;
    sets.reserve(2 * static_cast<size_t>(samples));
    for (int k = 0; k < samples; ++k) {
      std::vector<int> context;
      for (int v : others) {
        if (r->Bernoulli(0.5)) context.push_back(v);
      }
      std::vector<int> with = context;
      with.insert(with.end(), s.begin(), s.end());
      std::sort(with.begin(), with.end());
      sets.push_back(std::move(with));
      sets.push_back(std::move(context));
    }
    std::vector<double> v;
    scorer.ScoreBatch(sets, &v);
    double total = 0.0;
    for (int k = 0; k < samples; ++k) {
      total += v[2 * static_cast<size_t>(k)] -
               v[2 * static_cast<size_t>(k) + 1];
    }
    return total / samples;
  };
  return ParallelSubgraphSearch(scorer, options_, reward, RewardBatchFn{},
                                rng);
}

ExplanationResult MctsGnnExplainer::Explain(const GnnGraphScorer& scorer,
                                            Rng* rng) {
  const RewardFn reward = [&scorer](const NodeSet& s, Rng* /*rng*/) {
    return scorer.Score(s);
  };
  // The GNN score ignores the reward stream, so whole wave-levels of
  // candidates can run as one block-diagonal forward pass.
  const RewardBatchFn reward_batch = [&scorer](
                                         const std::vector<NodeSet>& sets,
                                         std::vector<double>* vals) {
    scorer.ScoreBatch(sets, vals);
  };
  return ParallelSubgraphSearch(scorer, options_, reward, reward_batch, rng);
}

FidelitySparsity EvaluateExplanation(const GnnGraphScorer& scorer,
                                     const std::vector<int>& subgraph_nodes) {
  FidelitySparsity out;
  const InteractionGraph& g = scorer.graph();
  std::set<int> sub(subgraph_nodes.begin(), subgraph_nodes.end());
  std::vector<int> all, rest;
  for (int v = 0; v < g.num_nodes(); ++v) {
    all.push_back(v);
    if (!sub.count(v)) rest.push_back(v);
  }
  out.fidelity = scorer.Score(all) - scorer.Score(rest);
  out.sparsity =
      1.0 - static_cast<double>(subgraph_nodes.size()) /
                static_cast<double>(std::max(1, g.num_nodes()));
  return out;
}

}  // namespace fexiot
