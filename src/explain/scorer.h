#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
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
/// subgraph: a subset's score is, bit for bit,
/// `head.PredictProba(model.Forward(PrepareGraph(g.InducedSubgraph(s))))`.
///
/// Subset node ids must be distinct (asserted in debug builds); a
/// `NodeSet` and disjoint SHAP players always are. Order is free: an
/// unsorted subset scores its induced subgraph in that node order.
///
/// ## Cached first-layer rows (docs/EXPLAIN.md §3)
///
/// A node's first-layer activation in an induced subgraph depends only on
/// that node's propagation row: the (node id, value) pairs of its closed
/// neighbourhood inside the subset, in subset order (for MAGNN, whose
/// first layer is the per-node input projection, on the node alone).
/// The scorer prepares the whole graph once, cuts each subset's rows out
/// of it, computes every distinct first-layer row once through the
/// model's own first layer, and keeps it for the scorer's lifetime (one
/// `Explain` call). Per subset it runs only the layers after the first
/// and the head (`GnnModel::ForwardRest`). The cache is exact, not a
/// score memo: rows are keyed by their full contents and compared in
/// full, and a cached row has the bits the row would get in any batch.
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
///  - `rows_served()` / `rows_computed()` — first-layer rows read by the
///    charged evaluations, and the distinct ones among them that ran
///    through the first layer. Both are schedule-independent for the same
///    reason as evaluations().
class GnnGraphScorer {
 public:
  /// Prepares \p graph once for \p model's config: its closed
  /// neighbourhoods and first-layer inputs, from which every subset row
  /// is cut.
  GnnGraphScorer(const GnnModel* model, const SgdClassifier* head,
                 const InteractionGraph* graph);

  /// h(induced subgraph on active_nodes), memoized by subset hash.
  double Score(const std::vector<int>& active_nodes) const;

  /// \brief Scores many subsets in one call. Memo hits are resolved first;
  /// the distinct misses are stacked block-diagonally, their first-layer
  /// rows come from the row cache (misses computed in one pass), and the
  /// rest of the forward runs once for the whole stack — bit-identical to
  /// sequential `Score` calls, which take the same path. Ragged input is
  /// fine: empty subsets take the zero-embedding base score, and duplicate
  /// subsets within the batch are evaluated once.
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
  /// First-layer rows read by the charged evaluations: the sum of their
  /// subset sizes.
  long long rows_served() const {
    return rows_served_.load(std::memory_order_relaxed);
  }
  /// Distinct first-layer rows computed through the model (the rows the
  /// cache holds); every other served row came from the cache.
  long long rows_computed() const {
    return rows_computed_.load(std::memory_order_relaxed);
  }

  /// \brief Disables (or re-enables) the score memo. With the memo off,
  /// every query runs the model and is counted — the memo-free reference
  /// mode used by the transposition-table oracle test and the serial
  /// baseline of `bench_fig8_explanations`. The row cache stays on: it
  /// changes how a subset is computed, never which subsets are charged.
  /// Not thread-safe against concurrent scoring; flip it between searches
  /// only.
  void set_memoize(bool on) { memoize_ = on; }
  bool memoize() const { return memoize_; }

  const InteractionGraph& graph() const { return *graph_; }

 private:
  /// Heterogeneous-lookup hash of a row key (its bytes).
  struct RowKeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>{}(key);
    }
  };

  /// Scores node_sets[which[i]] into (*vals)[i] through the model.
  void Evaluate(const std::vector<std::vector<int>>& node_sets,
                const std::vector<size_t>& which,
                std::vector<double>* vals) const;

  /// Runs the model's first layer on the stacked rows \p rows of \p prop
  /// (whose row r belongs to graph node row_node[r]) into ws->h.
  void FirstLayerRows(const CsrMatrix& prop, const std::vector<int>& row_node,
                      const std::vector<size_t>& rows,
                      GnnWorkspace* ws) const;

  const GnnModel* model_;
  const SgdClassifier* head_;
  const InteractionGraph* graph_;
  /// The whole graph prepared once: row u of prop_csr is u's closed
  /// neighbourhood (ascending ids); MAGNN reads its per-node inputs.
  PreparedGraph whole_;
  /// GCN/GIN: the whole graph's X (whole_.input holds P X).
  Matrix x_;
  bool memoize_ = true;
  mutable std::atomic<int> evaluations_{0};
  mutable std::atomic<long long> queries_{0};
  mutable std::atomic<long long> memo_hits_{0};
  mutable std::atomic<long long> rows_served_{0};
  mutable std::atomic<long long> rows_computed_{0};
  mutable std::mutex memo_mu_;
  mutable std::unordered_map<uint64_t, double> memo_;
  /// Row cache: key bytes -> row index into row_store_ (hidden_dim
  /// doubles per row). Lookups share the lock, commits take it alone.
  mutable std::shared_mutex rows_mu_;
  mutable std::unordered_map<std::string, size_t, RowKeyHash, std::equal_to<>>
      row_index_;
  mutable std::vector<double> row_store_;
};

}  // namespace fexiot
