#include "explain/search.h"

#include <algorithm>
#include <cassert>

#include "common/parallel.h"

namespace fexiot {
namespace {

/// Rollouts selected per wave (the root-parallel fan-out). A *logical*
/// width: results depend on it but never on FEXIOT_THREADS; the wave's
/// reward evaluations are what spread over the pool.
constexpr int kRolloutSlots = 4;
/// Penalty subtracted per in-wave selection of the same child
/// (sel = Q + lambda*R - kVirtualLoss * in_wave_picks), steering a wave's
/// rollouts apart deterministically.
constexpr double kVirtualLoss = 0.25;

/// All prunings of `s` (drop one node) that stay connected in `g`.
/// Prunings of a sorted set are sorted, preserving the NodeSet invariant.
std::vector<NodeSet> ConnectedPrunings(const InteractionGraph& g,
                                       const NodeSet& s) {
  std::vector<NodeSet> out;
  if (s.size() <= 1) return out;
  for (size_t i = 0; i < s.size(); ++i) {
    NodeSet child;
    child.reserve(s.size() - 1);
    for (size_t j = 0; j < s.size(); ++j) {
      if (j != i) child.push_back(s[j]);
    }
    if (g.IsConnectedSubset(child)) out.push_back(std::move(child));
  }
  return out;
}

/// Largest connected component (search root).
NodeSet SearchRoot(const InteractionGraph& g) {
  auto comps = g.ConnectedComponents();
  size_t best = 0;
  for (size_t i = 1; i < comps.size(); ++i) {
    if (comps[i].size() > comps[best].size()) best = i;
  }
  NodeSet root = comps.empty() ? NodeSet{} : comps[best];
  std::sort(root.begin(), root.end());
  return root;
}

/// One logical rollout slot of the current wave.
struct Slot {
  NodeSet s;                   ///< current state
  std::vector<uint64_t> path;  ///< visited keys (root first), for backup
  bool active = false;         ///< still descending
  Rng rng;                     ///< selection stream (counter-derived)
  // Per-level candidate scratch.
  std::vector<NodeSet> cands;
  std::vector<uint64_t> cand_keys;
  std::vector<double> cand_rewards;
};

/// One pending reward evaluation.
struct EvalJob {
  const NodeSet* set;
  uint64_t key;
  double* out;
};

}  // namespace

ExplanationResult ParallelSubgraphSearch(const GnnGraphScorer& scorer,
                                         const SearchOptions& options,
                                         const RewardFn& reward,
                                         const RewardBatchFn& reward_batch,
                                         Rng* rng) {
  ExplanationResult result;
  const InteractionGraph& g = scorer.graph();
  const NodeSet root = SearchRoot(g);
  if (root.empty()) return result;
  const uint64_t root_key = SubsetHash(root);

  TranspositionTable tt;

  // Stream discipline (docs/EXPLAIN.md §5): exactly one draw from the
  // caller's rng seeds the search; everything below is counter-derived.
  // Slot r selects with select_root.ForkAt(r); the reward of subset s is
  // evaluated with reward_root.ForkAt(SubsetHash(s)) — a pure function of
  // (seed, subset), so any worker computing it produces identical bits.
  Rng base(rng->NextU64());
  const Rng select_root = base.ForkAt(1);
  const Rng reward_root = base.ForkAt(2);

  const size_t target =
      static_cast<size_t>(std::max(1, options.max_subgraph_nodes));
  const int total_rollouts = std::max(0, options.iterations);
  const size_t max_cands =
      static_cast<size_t>(std::max(1, 2 * options.beam_width));
  const size_t beam_width =
      static_cast<size_t>(std::max(1, options.beam_width));

  // Evaluates pending rewards — in parallel over the pool, or through the
  // caller's batched hook. Job outputs are disjoint, so the fan-out is
  // race-free; all bookkeeping happens serially around it.
  auto Evaluate = [&](const std::vector<EvalJob>& jobs) {
    if (jobs.empty()) return;
    if (reward_batch) {
      std::vector<NodeSet> sets;
      sets.reserve(jobs.size());
      for (const EvalJob& j : jobs) sets.push_back(*j.set);
      std::vector<double> vals;
      reward_batch(sets, &vals);
      assert(vals.size() == jobs.size());
      for (size_t i = 0; i < jobs.size(); ++i) *jobs[i].out = vals[i];
    } else {
      parallel::For(jobs.size(), [&](size_t i) {
        Rng r = reward_root.ForkAt(jobs[i].key);
        *jobs[i].out = reward(*jobs[i].set, &r);
      });
    }
  };

  // Gathers the jobs for (set, key, out) triples: transposition hits are
  // resolved immediately, in-level duplicates are deferred copies, and
  // only distinct unknown subsets are evaluated. In memo-free reference
  // mode every triple becomes a job (rewards recomputed per visit).
  struct PendingLevel {
    std::vector<EvalJob> jobs;
    std::vector<std::pair<uint64_t, double*>> copies;
    std::unordered_map<uint64_t, bool> pending;
  };
  auto Gather = [&](PendingLevel* lvl, const NodeSet* set, uint64_t key,
                    double* out) {
    if (!options.reuse_rewards) {
      lvl->jobs.push_back({set, key, out});
      return;
    }
    const SearchNode* node = tt.Find(key);
    if (node != nullptr && node->reward_known) {
      *out = node->reward;
      ++result.tt_hits;
    } else if (lvl->pending.emplace(key, true).second) {
      lvl->jobs.push_back({set, key, out});
    } else {
      lvl->copies.emplace_back(key, out);
    }
  };
  auto Commit = [&](const PendingLevel& lvl) {
    if (options.reuse_rewards) {
      for (const EvalJob& j : lvl.jobs) {
        SearchNode& node = tt.At(j.key);
        if (!node.reward_known) {
          node.reward = *j.out;
          node.reward_known = true;
          ++result.subgraphs_scored;
        }
      }
      for (const auto& c : lvl.copies) {
        const SearchNode* node = tt.Find(c.first);
        assert(node != nullptr && node->reward_known);
        *c.second = node->reward;
        ++result.tt_hits;
      }
    } else {
      result.subgraphs_scored += static_cast<int>(lvl.jobs.size());
    }
  };

  NodeSet best_leaf;
  double best_score = -1e18;

  for (int wave_start = 0; wave_start < total_rollouts;
       wave_start += kRolloutSlots) {
    const int wave_n = std::min(kRolloutSlots, total_rollouts - wave_start);
    ++result.waves;
    std::vector<Slot> slots(static_cast<size_t>(wave_n));
    for (int w = 0; w < wave_n; ++w) {
      Slot& slot = slots[static_cast<size_t>(w)];
      slot.s = root;
      slot.path = {root_key};
      slot.rng = select_root.ForkAt(static_cast<uint64_t>(wave_start + w));
      slot.active = root.size() > target;
    }
    // In-wave virtual-loss counts: picks of the same child by earlier
    // slots penalize later slots' selection, spreading the wave across
    // the tree deterministically.
    std::unordered_map<uint64_t, int> wave_picks;

    // Level-synchronous descent: all active slots are always at the same
    // subset size (each level removes exactly one node).
    bool any_active = false;
    for (const Slot& slot : slots) any_active |= slot.active;
    while (any_active) {
      // Serial candidate generation (consumes each slot's own stream).
      for (Slot& slot : slots) {
        if (!slot.active) continue;
        slot.cands = ConnectedPrunings(g, slot.s);
        if (slot.cands.empty()) {
          slot.active = false;  // stuck above target: leaf at current s
          continue;
        }
        slot.rng.Shuffle(&slot.cands);
        if (slot.cands.size() > max_cands) slot.cands.resize(max_cands);
        slot.cand_keys.resize(slot.cands.size());
        slot.cand_rewards.assign(slot.cands.size(), 0.0);
        for (size_t i = 0; i < slot.cands.size(); ++i) {
          slot.cand_keys[i] = SubsetHash(slot.cands[i]);
        }
      }
      // Parallel evaluation of the level's distinct unknown rewards.
      PendingLevel lvl;
      for (Slot& slot : slots) {
        if (!slot.active) continue;
        for (size_t i = 0; i < slot.cands.size(); ++i) {
          Gather(&lvl, &slot.cands[i], slot.cand_keys[i],
                 &slot.cand_rewards[i]);
        }
      }
      Evaluate(lvl.jobs);
      Commit(lvl);
      // Serial selection in slot order (Eq. 7 over the beam, with the
      // virtual-loss diversification term).
      for (Slot& slot : slots) {
        if (!slot.active) continue;
        std::vector<size_t> order(slot.cands.size());
        for (size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
          if (slot.cand_rewards[a] != slot.cand_rewards[b]) {
            return slot.cand_rewards[a] > slot.cand_rewards[b];
          }
          return a < b;  // seeded tie-break: the slot's shuffle order
        });
        const size_t beam = std::min(order.size(), beam_width);
        double best_sel = -1e18;
        size_t pick = order[0];
        for (size_t b = 0; b < beam; ++b) {
          const size_t idx = order[b];
          const uint64_t key = slot.cand_keys[idx];
          const SearchNode* node = tt.Find(key);
          const double q = node != nullptr ? node->Q() : 0.0;
          const auto picks_it = wave_picks.find(key);
          const int picks = picks_it == wave_picks.end() ? 0
                                                         : picks_it->second;
          const double sel = q + options.lambda * slot.cand_rewards[idx] -
                             kVirtualLoss * picks;
          if (sel > best_sel) {
            best_sel = sel;
            pick = idx;
          }
        }
        ++wave_picks[slot.cand_keys[pick]];
        slot.path.push_back(slot.cand_keys[pick]);
        slot.s = std::move(slot.cands[pick]);
        if (slot.s.size() <= target) slot.active = false;
      }
      any_active = false;
      for (const Slot& slot : slots) any_active |= slot.active;
    }

    // Leaf rewards (many slots may share a leaf; evaluated once).
    std::vector<double> leaf_rewards(static_cast<size_t>(wave_n), 0.0);
    {
      PendingLevel lvl;
      for (int w = 0; w < wave_n; ++w) {
        const Slot& slot = slots[static_cast<size_t>(w)];
        Gather(&lvl, &slot.s, slot.path.back(),
               &leaf_rewards[static_cast<size_t>(w)]);
      }
      Evaluate(lvl.jobs);
      Commit(lvl);
    }

    // Best tracking + backup, serially in slot order (first slot wins
    // ties, which is deterministic because slot order is).
    for (int w = 0; w < wave_n; ++w) {
      const Slot& slot = slots[static_cast<size_t>(w)];
      const double leaf_reward = leaf_rewards[static_cast<size_t>(w)];
      if (slot.s.size() <= target && leaf_reward > best_score) {
        best_score = leaf_reward;
        best_leaf = slot.s;
      }
      for (uint64_t key : slot.path) {
        SearchNode& node = tt.At(key);
        ++node.visits;
        node.q_total += leaf_reward;
      }
    }
  }

  if (best_leaf.empty()) best_leaf = root;  // tiny graphs / zero budget
  result.subgraph_nodes = best_leaf;
  if (best_score > -1e17) {
    result.score = best_score;
  } else {
    const uint64_t key = SubsetHash(best_leaf);
    const SearchNode* node =
        options.reuse_rewards ? tt.Find(key) : nullptr;
    if (node != nullptr && node->reward_known) {
      result.score = node->reward;
      ++result.tt_hits;
    } else {
      Rng r = reward_root.ForkAt(key);
      result.score = reward(best_leaf, &r);
      ++result.subgraphs_scored;
      if (options.reuse_rewards) {
        SearchNode& fresh = tt.At(key);
        fresh.reward = result.score;
        fresh.reward_known = true;
      }
    }
  }
  result.model_evaluations = scorer.evaluations();
  result.score_memo_hits = scorer.memo_hits();
  return result;
}

}  // namespace fexiot
