#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "gnn/gnn_model.h"
#include "graph/interaction_graph.h"
#include "ml/linear_model.h"

namespace fexiot {

/// \brief Order-sensitive 64-bit FNV-1a hash of a node subset (length,
/// then each id). The explanation subsystem keys every subset-indexed
/// store off this digest — the scorer's score memo and the search core's
/// transposition table — so a subset hashes identically no matter which
/// component computes it. Callers pass *sorted* subsets everywhere in the
/// search (a `NodeSet` is sorted by construction), which is what makes the
/// memo effective; an unsorted permutation hashes differently and is
/// treated as a distinct query, which is also the correct behaviour for
/// bit-exactness (induced-subgraph node order affects accumulation order).
uint64_t SubsetHash(const std::vector<int>& nodes);

/// \brief Scorer backed by a trained GNN + linear head (the deployed
/// detection model of Section III-C). Masking = evaluating the induced
/// subgraph.
///
/// ## Memoization & counting semantics (docs/EXPLAIN.md §4)
///
/// Scores are *pure*: a subset's score depends only on the (model, head,
/// graph) triple, never on evaluation order or thread schedule. The scorer
/// exploits that with a subset-hash memo shared by `Score` and
/// `ScoreBatch`, so repeated subgraph queries — SHAP anchor coalitions,
/// fidelity evaluations of already-searched subsets — never re-run the
/// model. The memo is guarded by a mutex and safe to hit from parallel
/// rollouts; racing first-queries of the same subset may both run the
/// model, but compute identical bits and are counted once.
///
/// Counters (all atomic, safe to read mid-search):
///  - `evaluations()` — distinct subsets evaluated through the model. One
///    batch of N distinct misses = N evaluations (batching changes how the
///    model is invoked, not how often a subgraph is charged). With the
///    memo disabled (`set_memoize(false)`), every query is charged.
///    Because the *set* of queried subsets in a deterministic search is
///    schedule-independent, this counter is bit-identical across thread
///    counts even though increment timing is not.
///  - `queries()` — total score requests (memo hits included).
///  - `memo_hits()` — requests served without a new model evaluation;
///    maintained so that queries() == evaluations() + memo_hits() holds
///    exactly, including under racing duplicate computations.
class GnnGraphScorer {
 public:
  GnnGraphScorer(const GnnModel* model, const SgdClassifier* head,
                 const InteractionGraph* graph)
      : model_(model), head_(head), graph_(graph) {}

  /// h(induced subgraph on active_nodes), memoized by subset hash.
  double Score(const std::vector<int>& active_nodes) const;

  /// \brief Scores many subsets in one call. Memo hits are resolved first;
  /// the distinct misses are assembled into one block-diagonal
  /// `GraphBatch` and run through `GnnModel::ForwardBatch` — bit-identical
  /// to sequential `Score` calls (ForwardBatch preserves each graph's
  /// accumulation order). Ragged input is fine: empty subsets take the
  /// zero-embedding base score, single-element batches fall back to the
  /// sequential path, and duplicate subsets within the batch are
  /// evaluated once.
  void ScoreBatch(const std::vector<std::vector<int>>& node_sets,
                  std::vector<double>* scores) const;

  /// Distinct subsets evaluated through the model so far (see class doc).
  int evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }
  /// Total score requests (memo hits included).
  long long queries() const {
    return queries_.load(std::memory_order_relaxed);
  }
  /// Requests served from the memo (queries == evaluations + memo_hits).
  long long memo_hits() const {
    return memo_hits_.load(std::memory_order_relaxed);
  }

  /// \brief Disables (or re-enables) the score memo. With the memo off,
  /// every query runs the model and is counted — the memo-free reference
  /// mode used by the transposition-table oracle test and the serial
  /// baseline of `bench_fig8_explanations`. Not thread-safe against
  /// concurrent scoring; flip it between searches only.
  void set_memoize(bool on) { memoize_ = on; }
  bool memoize() const { return memoize_; }

  const InteractionGraph& graph() const { return *graph_; }

 private:
  /// One uncached evaluation: induce, prepare, forward, head.
  double EvaluateUncached(const std::vector<int>& active_nodes) const;

  const GnnModel* model_;
  const SgdClassifier* head_;
  const InteractionGraph* graph_;
  bool memoize_ = true;
  mutable std::atomic<int> evaluations_{0};
  mutable std::atomic<long long> queries_{0};
  mutable std::atomic<long long> memo_hits_{0};
  mutable std::mutex memo_mu_;
  mutable std::unordered_map<uint64_t, double> memo_;
};

}  // namespace fexiot
