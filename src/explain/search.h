#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "explain/scorer.h"

namespace fexiot {

/// \brief A search state: a *sorted* subset of the graph's node ids.
/// Sortedness is an invariant of the search (prunings of a sorted set stay
/// sorted), and is what makes `SubsetHash` keys canonical.
using NodeSet = std::vector<int>;

/// \brief Result of an explanation search: the most responsible connected
/// subgraph and its risk score, plus search/scorer diagnostics.
struct ExplanationResult {
  std::vector<int> subgraph_nodes;
  double score = 0.0;
  /// Distinct induced subgraphs evaluated through the GNN (the scorer's
  /// memoized counter — repeats are free; docs/EXPLAIN.md §4).
  int model_evaluations = 0;
  /// Unique subsets whose search reward was computed (diagnostics).
  int subgraphs_scored = 0;
  /// Candidate reward lookups served by the transposition table.
  long long tt_hits = 0;
  /// Raw score requests answered by the scorer's memo.
  long long score_memo_hits = 0;
  /// Rollout waves executed (ceil(iterations / kRolloutSlots)).
  int waves = 0;
};

/// \brief Shared search options (every knob is documented with its
/// interaction contract in docs/EXPLAIN.md §6).
struct SearchOptions {
  /// Monte Carlo iterations I — the total rollout budget of one search.
  int iterations = 8;
  /// Beam width per level (FexIoT's MCBS; ignored by pure MCTS).
  int beam_width = 4;
  /// Maximum explanation subgraph size ("least node number" N_min of
  /// Algorithm 2: pruning stops when the subgraph reaches this size).
  int max_subgraph_nodes = 5;
  /// Exploration-exploitation balance lambda of Eq. 7.
  double lambda = 0.5;
  /// Kernel SHAP samples K (FexIoT) / Shapley MC samples (SubgraphX).
  int shap_samples = 16;
  /// When false, node rewards are recomputed at every visit instead of
  /// being served from the transposition table — the memo-free reference
  /// mode (identical results, since rewards are pure per subset; used by
  /// the oracle test and as the serial bench baseline).
  bool reuse_rewards = true;
};

/// \brief Per-subset statistics of the shared search tree, stored in the
/// transposition table under the subset's FNV hash.
struct SearchNode {
  double reward = 0.0;   ///< immediate reward R (cached when known)
  bool reward_known = false;
  double q_total = 0.0;  ///< backed-up leaf-reward sum
  int visits = 0;

  double Q() const { return visits > 0 ? q_total / visits : 0.0; }
};

/// \brief Hash-keyed MCTS node store shared by the three explainers (the
/// combopt-zero `mcts.cpp` idiom): states reached along different pruning
/// orders collapse into one entry, so reward evaluations and visit
/// statistics are shared across the whole search instead of per path.
/// Keys are `SubsetHash` digests; distinct subsets colliding on a 64-bit
/// FNV hash is vanishingly unlikely at explanation sizes (subsets of
/// <= 50-node graphs) and would only conflate two tree nodes, never crash.
class TranspositionTable {
 public:
  /// Node for \p key, default-constructed on first access.
  SearchNode& At(uint64_t key) { return nodes_[key]; }
  const SearchNode* Find(uint64_t key) const {
    const auto it = nodes_.find(key);
    return it == nodes_.end() ? nullptr : &it->second;
  }
  size_t size() const { return nodes_.size(); }

 private:
  std::unordered_map<uint64_t, SearchNode> nodes_;
};

/// \brief Reward of one subset. The Rng is derived by the search core as a
/// pure function of the search seed and the subset hash, so the reward is
/// a pure function of (seed, subset) — the property every cache in the
/// subsystem rides on. Implementations must not touch shared mutable
/// state: rewards are evaluated from parallel workers.
using RewardFn = std::function<double(const NodeSet& subset, Rng* rng)>;

/// \brief Optional batched reward hook: computes rewards for all \p
/// subsets at once (used by MCTS_GNN to push a whole wave-level of
/// candidates through one block-diagonal `ScoreBatch`). When null, the
/// core parallelizes `RewardFn` over the candidates instead.
using RewardBatchFn = std::function<void(const std::vector<NodeSet>& subsets,
                                         std::vector<double>* rewards)>;

/// \brief Parallel Monte Carlo (beam) tree search over connected
/// subgraphs — the shared core behind ShapMcbs/SubgraphX/MctsGnn
/// (Algorithm 2 skeleton, parallelized per docs/EXPLAIN.md §5).
///
/// Rollouts run in *waves* of kRolloutSlots (4) logical slots. Each wave:
///  1. serial level-synchronous descent planning: every slot draws its
///     candidate prunings from its own counter stream;
///  2. parallel evaluation of the level's distinct unknown rewards over
///     `parallel::For` (or one `RewardBatchFn` call);
///  3. serial selection in slot order: each slot picks the beam candidate
///     maximizing Q + lambda*R - kVirtualLoss (0.25) * in-wave picks;
///  4. serial backup of leaf rewards in slot order.
/// All cross-slot interaction is serial and every stochastic draw is
/// counter-derived (`Rng::ForkAt`), so the selected subgraph, score, and
/// every counter are bit-identical for any FEXIOT_THREADS.
///
/// Consumes exactly one draw from \p rng (the search seed), mirroring the
/// corpus generator's stream discipline.
ExplanationResult ParallelSubgraphSearch(const GnnGraphScorer& scorer,
                                         const SearchOptions& options,
                                         const RewardFn& reward,
                                         const RewardBatchFn& reward_batch,
                                         Rng* rng);

}  // namespace fexiot
