#pragma once

#include <vector>

#include "common/rng.h"
#include "explain/scorer.h"

namespace fexiot {

/// \brief Kernel SHAP estimate of a subgraph's contribution (Eqs. 5-6).
///
/// The cooperative game treats the candidate subgraph G_sub as ONE player
/// and every remaining node as an individual player. K random coalitions
/// z' are drawn, each evaluated by the black-box scorer on the union of
/// the active players' nodes, and a weighted linear regression with the
/// Shapley kernel weights
///     w(z') = (M - 1) / (C(M,|z'|) |z'| (M - |z'|))
/// recovers the additive explanation model g(z') = phi0 + sum_i phi_i z'_i.
/// The returned value is phi of the subgraph player, which (unlike the
/// independence-assuming Shapley sampling of SubgraphX) accounts for the
/// dependence among node players through the joint regression.
class KernelShap {
 public:
  struct Options {
    /// Coalition samples K (Algorithm 2's "kernel SHAP samples").
    int num_samples = 24;
  };

  explicit KernelShap(Options options) : options_(options) {}

  /// \brief SHAP value of the player formed by \p subgraph_nodes within
  /// the full node set of \p scorer's graph.
  double SubgraphShap(const GnnGraphScorer& scorer,
                      const std::vector<int>& subgraph_nodes, Rng* rng) const;

 private:
  Options options_;
};

}  // namespace fexiot
