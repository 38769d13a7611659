#include "explain/scorer.h"

#include <cassert>

#include "common/hash.h"

namespace fexiot {

uint64_t SubsetHash(const std::vector<int>& nodes) {
  Fnv1a h;
  h.U64(nodes.size());
  for (int v : nodes) h.U64(static_cast<uint32_t>(v));
  return h.digest();
}

double GnnGraphScorer::EvaluateUncached(
    const std::vector<int>& active_nodes) const {
  if (active_nodes.empty()) {
    const std::vector<double> zero(
        static_cast<size_t>(model_->config().embedding_dim), 0.0);
    return head_->PredictProba(zero);
  }
  const InteractionGraph sub = graph_->InducedSubgraph(active_nodes);
  const PreparedGraph prepared = PrepareGraph(sub, model_->config());
  const std::vector<double> z = model_->Forward(prepared, nullptr);
  return head_->PredictProba(z);
}

double GnnGraphScorer::Score(const std::vector<int>& active_nodes) const {
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (!memoize_) {
    evaluations_.fetch_add(1, std::memory_order_relaxed);
    return EvaluateUncached(active_nodes);
  }
  const uint64_t key = SubsetHash(active_nodes);
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    const auto it = memo_.find(key);
    if (it != memo_.end()) {
      memo_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  const double v = EvaluateUncached(active_nodes);
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    const auto inserted = memo_.emplace(key, v);
    if (inserted.second) {
      evaluations_.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Lost a race with an identical computation: same bits, charge the
      // query as a hit so queries == evaluations + memo_hits stays exact.
      memo_hits_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return v;
}

void GnnGraphScorer::ScoreBatch(
    const std::vector<std::vector<int>>& node_sets,
    std::vector<double>* scores) const {
  assert(scores != nullptr);
  scores->assign(node_sets.size(), 0.0);
  if (node_sets.empty()) return;
  queries_.fetch_add(static_cast<long long>(node_sets.size()),
                     std::memory_order_relaxed);

  // Resolve memo hits; collect the distinct misses (first occurrence per
  // key; later duplicates are filled from the memo after the commit).
  std::vector<size_t> miss;          // indices into node_sets
  std::vector<size_t> dup;           // unresolved duplicate indices
  std::vector<uint64_t> keys(node_sets.size());
  if (memoize_) {
    for (size_t i = 0; i < node_sets.size(); ++i) {
      keys[i] = SubsetHash(node_sets[i]);
    }
    std::unordered_map<uint64_t, size_t> first;
    std::lock_guard<std::mutex> lock(memo_mu_);
    for (size_t i = 0; i < node_sets.size(); ++i) {
      const auto it = memo_.find(keys[i]);
      if (it != memo_.end()) {
        (*scores)[i] = it->second;
        memo_hits_.fetch_add(1, std::memory_order_relaxed);
      } else if (first.emplace(keys[i], i).second) {
        miss.push_back(i);
      } else {
        dup.push_back(i);
      }
    }
  } else {
    miss.resize(node_sets.size());
    for (size_t i = 0; i < node_sets.size(); ++i) miss[i] = i;
  }
  if (miss.empty()) return;

  // Evaluate the misses. A lone miss gains nothing from stacking, so it
  // runs sequentially — both paths are bit-identical per ForwardBatch's
  // contract.
  std::vector<double> vals(miss.size());
  if (miss.size() == 1) {
    vals[0] = EvaluateUncached(node_sets[miss[0]]);
  } else {
    const GnnConfig& config = model_->config();
    std::vector<PreparedGraph> prepared;
    std::vector<const PreparedGraph*> ptrs;
    std::vector<size_t> batch_slot;  // index into vals per stacked graph
    prepared.reserve(miss.size());
    for (size_t m = 0; m < miss.size(); ++m) {
      const std::vector<int>& nodes = node_sets[miss[m]];
      if (nodes.empty()) {
        vals[m] = EvaluateUncached(nodes);  // zero-embedding base score
        continue;
      }
      prepared.push_back(
          PrepareGraph(graph_->InducedSubgraph(nodes), config));
      batch_slot.push_back(m);
    }
    ptrs.reserve(prepared.size());
    for (const PreparedGraph& p : prepared) ptrs.push_back(&p);
    if (!ptrs.empty()) {
      GraphBatch batch;
      AssembleGraphBatch(ptrs, config, &batch);
      BatchForwardWorkspace ws;
      std::vector<std::vector<double>> embeddings;
      model_->ForwardBatch(batch, &ws, &embeddings);
      for (size_t b = 0; b < embeddings.size(); ++b) {
        vals[batch_slot[b]] = head_->PredictProba(embeddings[b]);
      }
    }
  }

  // Commit: one evaluation per distinct miss, regardless of how the model
  // was invoked (docs/EXPLAIN.md §4 — "one batch = N evaluations").
  if (memoize_) {
    std::lock_guard<std::mutex> lock(memo_mu_);
    for (size_t m = 0; m < miss.size(); ++m) {
      (*scores)[miss[m]] = vals[m];
      const auto inserted = memo_.emplace(keys[miss[m]], vals[m]);
      if (inserted.second) {
        evaluations_.fetch_add(1, std::memory_order_relaxed);
      } else {
        memo_hits_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    for (size_t i : dup) {
      (*scores)[i] = memo_.at(keys[i]);
      memo_hits_.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    for (size_t m = 0; m < miss.size(); ++m) (*scores)[miss[m]] = vals[m];
    evaluations_.fetch_add(static_cast<int>(miss.size()),
                           std::memory_order_relaxed);
  }
}

}  // namespace fexiot
