#include "serving/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "common/stopwatch.h"
#include "graph/fusion.h"
#include "smarthome/rule.h"
#include "tensor/ops.h"

namespace fexiot {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

}  // namespace

Status ValidateServingConfig(const ServingConfig& config) {
  if (config.max_batch < 1) {
    return Status::InvalidArgument("serving: max_batch must be >= 1");
  }
  if (config.max_batch > 4096) {
    return Status::InvalidArgument("serving: max_batch must be <= 4096");
  }
  // NaN fails the check: a NaN linger deadline would never pass.
  if (!(config.max_linger_s >= 0.0)) {
    return Status::InvalidArgument("serving: max_linger_s must be >= 0");
  }
  return Status::OK();
}

StreamingDetectionEngine::StreamingDetectionEngine(const GnnModel* model,
                                                   const ServingConfig& config)
    : model_(model), config_(config) {
  assert(model_ != nullptr);
  assert(ValidateServingConfig(config_).ok());
}

StreamingDetectionEngine::HomeState* StreamingDetectionEngine::Find(
    int home_id) {
  const auto it = home_index_.find(home_id);
  return it == home_index_.end() ? nullptr : &homes_[it->second];
}

const StreamingDetectionEngine::HomeState* StreamingDetectionEngine::Find(
    int home_id) const {
  const auto it = home_index_.find(home_id);
  return it == home_index_.end() ? nullptr : &homes_[it->second];
}

Status StreamingDetectionEngine::AddHome(int home_id, const Home& home) {
  if (Find(home_id) != nullptr) {
    return Status::AlreadyExists("serving: home id already registered");
  }
  if (home.rules.empty()) {
    return Status::InvalidArgument("serving: home has no rules");
  }
  homes_.emplace_back();
  HomeState& hs = homes_.back();
  home_index_[home_id] = homes_.size() - 1;
  hs.home = home;
  const size_t n = home.rules.size();
  // Fixed node universe: every deployed rule is a node from day one
  // (never-fired rules stay isolated self-loop-only nodes), so churn only
  // ever changes edges.
  for (const Rule& rule : home.rules) {
    GraphNode node;
    node.rule = rule;
    node.event_time = -1.0;
    node.features = ComputeNodeFeatures(rule, -1.0);
    hs.graph.AddNode(std::move(node));
  }
  hs.related.assign(n * n, false);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      hs.related[i * n + j] = ActionTriggersRule(home.rules[i], home.rules[j]);
    }
  }
  hs.rules.assign(n, RuleStats());
  hs.clock = kNegInf;
  hs.prepared = PrepareGraph(hs.graph, model_->config());
  hs.relational_dirty = true;  // first snapshot runs the augmentation
  return Status::OK();
}

void StreamingDetectionEngine::ExpireTo(HomeState* hs, double now) {
  // Trigger candidates: the action window [tt, tt + fw] is inclusive, so
  // a candidate only dies strictly after its window end.
  while (!hs->candidates.empty() &&
         hs->candidates.front().trigger_time + kFiringWindowS < now) {
    hs->candidates.pop_front();
  }
  // Effect checks: an unresolved command past its window is a consistency
  // miss (total incremented, no hit) — tampering's "stealthy command"
  // signature.
  while (!hs->effect_checks.empty() &&
         hs->effect_checks.front().command_time + kConsistencyWindowS < now) {
    ++hs->rules[static_cast<size_t>(hs->effect_checks.front().rule)]
          .effect_total;
    hs->effect_checks.pop_front();
  }
  // Command history only needs to reach back cw before the oldest
  // possible live trigger (itself at most fw old).
  const double keep_after = now - (kFiringWindowS + kConsistencyWindowS);
  while (!hs->command_log.empty() && hs->command_log.front().time < keep_after) {
    hs->command_log.pop_front();
  }
  // Rules age out of the active window; their edges go with them.
  for (size_t r = 0; r < hs->rules.size(); ++r) {
    RuleStats& rs = hs->rules[r];
    if (rs.active && rs.last_fire + kActiveWindowS < now) {
      rs.active = false;
      SyncEdgesFor(hs, static_cast<int>(r));
    }
  }
}

void StreamingDetectionEngine::SyncEdgesFor(HomeState* hs, int r) {
  const size_t n = hs->home.rules.size();
  const size_t ri = static_cast<size_t>(r);
  uint64_t toggled = 0;
  for (size_t j = 0; j < n; ++j) {
    if (j == ri) continue;
    const int v = static_cast<int>(j);
    const bool both_active = hs->rules[ri].active && hs->rules[j].active;
    const bool fwd = both_active && hs->related[ri * n + j];
    const bool bwd = both_active && hs->related[j * n + ri];
    // Directed graph edges mirror the offline builder exactly. The
    // propagation matrix holds one undirected pair whenever either
    // direction is live (BuildPropagationCsr's symmetrization): count the
    // pairs whose presence flips.
    const bool had = hs->graph.HasEdge(r, v) || hs->graph.HasEdge(v, r);
    if (fwd) {
      hs->graph.AddEdge(r, v);
    } else {
      hs->graph.RemoveEdge(r, v);
    }
    if (bwd) {
      hs->graph.AddEdge(v, r);
    } else {
      hs->graph.RemoveEdge(v, r);
    }
    toggled += had != (fwd || bwd);
  }
  if (toggled > 0) {
    hs->relational_dirty = true;
    stats_.incremental_updates += toggled;
  }
}

void StreamingDetectionEngine::RefreshNodeFeatures(HomeState* hs, int r,
                                                   double fire_time) {
  GraphNode& node = hs->graph.mutable_node(r);
  // The text dims were set in AddHome and the relational dims belong to
  // the augmentation: a firing moves only the time and consistency dims.
  std::vector<double>& f = node.features;
  SetTimeOfDayDims(fire_time, &f);
  const RuleStats& rs = hs->rules[static_cast<size_t>(r)];
  const double cmd_c =
      rs.command_total > 0 ? static_cast<double>(rs.command_hits) /
                                 static_cast<double>(rs.command_total)
                           : 1.0;
  const double eff_c =
      rs.effect_total > 0 ? static_cast<double>(rs.effect_hits) /
                                static_cast<double>(rs.effect_total)
                          : 1.0;
  f[f.size() - static_cast<size_t>(kFeatureDimCommandConsistency)] =
      kConsistencyScale * (cmd_c - 1.0);
  f[f.size() - static_cast<size_t>(kFeatureDimEffectConsistency)] =
      kConsistencyScale * (eff_c - 1.0);
  node.event_time = fire_time;
  hs->input_dirty = true;
}

void StreamingDetectionEngine::CompleteFiring(HomeState* hs, int r,
                                              const TriggerCandidate& cand) {
  ++stats_.firings;
  RuleStats& rs = hs->rules[static_cast<size_t>(r)];
  const Rule& rule = hs->home.rules[static_cast<size_t>(r)];
  // Command-consistency mining around this firing, as in the offline
  // builder but over the pruned command history: a firing is consistent
  // when each action had a matching command in [tt - cw, tt + fw]. The
  // streaming engine resolves at completion time, so commands arriving
  // after the last action effect (legal but rare — the simulator logs
  // commands before effects) are not counted.
  const double tt = cand.trigger_time;
  for (const Action& a : rule.actions) {
    ++rs.command_total;
    bool hit = false;
    for (const CommandRecord& c : hs->command_log) {
      if (c.time < tt - kConsistencyWindowS) continue;
      if (c.device == a.device && c.value == a.state) {
        hit = true;
        break;
      }
    }
    if (hit) ++rs.command_hits;
  }
  rs.last_fire = tt;
  const bool was_active = rs.active;
  rs.active = true;
  RefreshNodeFeatures(hs, r, tt);
  if (!was_active) SyncEdgesFor(hs, r);
}

Status StreamingDetectionEngine::Ingest(int home_id, const LogEntry& entry) {
  HomeState* hs = Find(home_id);
  if (hs == nullptr) return Status::NotFound("serving: unknown home id");
  // A NaN would pass the order check below and then never expire; an
  // infinite time would reject every later entry as out of order.
  if (!std::isfinite(entry.timestamp)) {
    return Status::InvalidArgument("serving: timestamps must be finite");
  }
  if (entry.timestamp < hs->clock) {
    return Status::InvalidArgument(
        "serving: per-home timestamps must be non-decreasing");
  }
  hs->clock = entry.timestamp;
  ++stats_.ingested_events;
  ExpireTo(hs, entry.timestamp);
  const double t = entry.timestamp;
  const size_t n = hs->home.rules.size();

  if (entry.kind == LogKind::kCommand) {
    hs->command_log.push_back({t, entry.device, entry.value});
    // Every (rule, action) this command could belong to opens an effect
    // check: consistent iff the commanded state materializes within cw.
    for (size_t i = 0; i < n; ++i) {
      for (const Action& a : hs->home.rules[i].actions) {
        if (a.device == entry.device && a.state == entry.value) {
          hs->effect_checks.push_back(
              {static_cast<int>(i), a.device, a.state, t});
        }
      }
    }
    return Status::OK();
  }
  if (entry.kind != LogKind::kStateChange) return Status::OK();

  // Resolve pending effect checks this state change satisfies (all
  // remaining checks are within their window — older ones expired above).
  for (size_t k = 0; k < hs->effect_checks.size();) {
    EffectCheck& c = hs->effect_checks[k];
    if (c.device == entry.device && c.state == entry.value) {
      RuleStats& rs = hs->rules[static_cast<size_t>(c.rule)];
      ++rs.effect_total;
      ++rs.effect_hits;
      hs->effect_checks.erase(hs->effect_checks.begin() +
                              static_cast<ptrdiff_t>(k));
    } else {
      ++k;
    }
  }

  // New trigger candidates (before matching, so a trigger event that is
  // also one of the rule's action states counts — the offline builder's
  // inclusive window [tt, tt + fw] starts at the trigger itself).
  for (size_t i = 0; i < n; ++i) {
    const Rule& rule = hs->home.rules[i];
    if (rule.trigger.device == entry.device &&
        rule.trigger.state == entry.value) {
      TriggerCandidate cand;
      cand.rule = static_cast<int>(i);
      cand.trigger_time = t;
      cand.action_seen.assign(rule.actions.size(), false);
      cand.actions_remaining = static_cast<int>(rule.actions.size());
      hs->candidates.push_back(std::move(cand));
    }
  }

  // Match this state change against every live candidate's outstanding
  // actions; candidates whose last action lands complete as firings.
  for (size_t k = 0; k < hs->candidates.size();) {
    TriggerCandidate& cand = hs->candidates[k];
    const Rule& rule = hs->home.rules[static_cast<size_t>(cand.rule)];
    for (size_t ai = 0; ai < rule.actions.size(); ++ai) {
      if (cand.action_seen[ai]) continue;
      const Action& a = rule.actions[ai];
      if (a.device == entry.device && a.state == entry.value) {
        cand.action_seen[ai] = true;
        --cand.actions_remaining;
      }
    }
    if (cand.actions_remaining == 0) {
      const TriggerCandidate done = std::move(cand);
      hs->candidates.erase(hs->candidates.begin() +
                           static_cast<ptrdiff_t>(k));
      CompleteFiring(hs, done.rule, done);
    } else {
      ++k;
    }
  }
  return Status::OK();
}

void StreamingDetectionEngine::PrepareForSnapshot(HomeState* hs) {
  if (hs->relational_dirty) {
    // Deterministic (noise-free) relational augmentation over the live
    // edge set: a structural change can flip relational dims anywhere in
    // the neighborhood. The propagation matrix is rebuilt from the edge
    // list with PrepareGraph's own builder: at a home's size that costs
    // less than the SpMM refill below, which every edge change needs
    // anyway (P X), so editing the matrix in place would save nothing.
    AugmentRelationalFeatures(&hs->graph);
    hs->prepared.prop_csr = BuildPropagationCsr(
        hs->graph, model_->config().type == GnnType::kGin);
    ++stats_.rebuilds;
    hs->relational_dirty = false;
    hs->input_dirty = true;
  }
  if (hs->input_dirty) {
    // The prepared input depends on every node's features and, for
    // GCN/GIN, on the edges (it is P X): refill it whole through
    // PrepareGraph's own helper — one SpMM per dirty snapshot.
    FillPreparedInput(hs->graph, model_->config(), &hs->prepared, &raw_);
    hs->input_dirty = false;
  }
  if (config_.verify_incremental) {
    ++stats_.parity_checks;
    const PreparedGraph oracle = PrepareGraph(hs->graph, model_->config());
    const CsrMatrix& inc = hs->prepared.prop_csr;
    const CsrMatrix& ref = oracle.prop_csr;
    bool same = inc.row_ptr() == ref.row_ptr() &&
                inc.col_idx() == ref.col_idx() &&
                inc.values().size() == ref.values().size();
    // Bitwise value comparison (operator== would treat -0.0 == +0.0 and
    // NaN != NaN; memcmp pins the actual representation).
    if (same && !inc.values().empty()) {
      same = std::memcmp(inc.values().data(), ref.values().data(),
                         inc.values().size() * sizeof(double)) == 0;
    }
    if (same) {
      same = hs->prepared.input.rows() == oracle.input.rows() &&
             hs->prepared.input.cols() == oracle.input.cols() &&
             std::memcmp(hs->prepared.input.data(), oracle.input.data(),
                         oracle.input.size() * sizeof(double)) == 0;
    }
    if (!same) ++stats_.parity_failures;
  }
}

Status StreamingDetectionEngine::RequestDetection(
    int home_id, double now, std::vector<DetectionResult>* completed) {
  assert(completed != nullptr);
  HomeState* hs = Find(home_id);
  if (hs == nullptr) return Status::NotFound("serving: unknown home id");
  // A NaN clock would never reach its linger deadline.
  if (!std::isfinite(now)) {
    return Status::InvalidArgument("serving: request time must be finite");
  }
  ++stats_.requests;
  // Expiry is monotone: a request timestamped before the home's stream
  // clock sees the stream-clock view.
  const double effective = std::max(now, hs->clock);
  hs->clock = effective;
  ExpireTo(hs, effective);

  if (config_.max_batch == 1) {
    // Classic one-graph-at-a-time path: no snapshot copy, no batching
    // machinery — the honest baseline the batched path is measured
    // against.
    PrepareForSnapshot(hs);
    Stopwatch sw;
    const std::vector<double>& emb =
        model_->Forward(hs->prepared, nullptr, &ws_);
    const double wall = sw.ElapsedSeconds();
    stats_.RecordBatch(1);
    stats_.latency.Add(wall);
    DetectionResult res;
    res.home_id = home_id;
    res.request_time = now;
    res.latency_s = wall;
    res.embedding = emb;  // copy: the reference aliases engine scratch
    res.score = VectorNorm(res.embedding);
    res.batch_size = 1;
    completed->push_back(std::move(res));
    return Status::OK();
  }

  if (hs->pending_request) {
    // A second request for a home already in the batch forces an early
    // dispatch: each pending slot must keep its snapshot-at-enqueue view.
    Dispatch(effective, completed);
  }
  PrepareForSnapshot(hs);
  const size_t slot = pending_.size();
  if (slots_.size() <= slot) slots_.resize(slot + 1);
  slots_[slot] = hs->prepared;  // copy-assign reuses slot capacity
  pending_.push_back({home_id, now, slot});
  hs->pending_request = true;
  if (pending_.size() >= static_cast<size_t>(config_.max_batch) ||
      config_.max_linger_s == 0.0) {
    Dispatch(effective, completed);
  }
  return Status::OK();
}

void StreamingDetectionEngine::AdvanceTo(double now,
                                         std::vector<DetectionResult>* completed) {
  assert(completed != nullptr);
  if (pending_.empty()) return;
  const double deadline = pending_.front().enqueue_time + config_.max_linger_s;
  if (deadline <= now) Dispatch(deadline, completed);
}

void StreamingDetectionEngine::Flush(std::vector<DetectionResult>* completed) {
  assert(completed != nullptr);
  if (pending_.empty()) return;
  double latest = pending_.front().enqueue_time;
  for (const PendingRequest& p : pending_) {
    latest = std::max(latest, p.enqueue_time);
  }
  Dispatch(latest, completed);
}

void StreamingDetectionEngine::Dispatch(
    double dispatch_time, std::vector<DetectionResult>* completed) {
  if (pending_.empty()) return;
  const size_t size = pending_.size();
  std::vector<const PreparedGraph*> graphs;
  graphs.reserve(size);
  for (const PendingRequest& p : pending_) graphs.push_back(&slots_[p.slot]);
  AssembleGraphBatch(graphs, model_->config(), &batch_);
  Stopwatch sw;
  model_->ForwardBatch(batch_, &ws_, &batch_embeddings_);
  const double wall = sw.ElapsedSeconds();
  stats_.RecordBatch(size);
  for (size_t k = 0; k < size; ++k) {
    const PendingRequest& p = pending_[k];
    DetectionResult res;
    res.home_id = p.home_id;
    res.request_time = p.enqueue_time;
    // Per-home stream clocks are not globally synchronized, so a forced
    // dispatch driven by one home's time may nominally precede another
    // pending home's enqueue; the simulated wait clamps at zero.
    res.latency_s = std::max(0.0, dispatch_time - p.enqueue_time) + wall;
    res.embedding = std::move(batch_embeddings_[k]);
    res.score = VectorNorm(res.embedding);
    res.batch_size = static_cast<int>(size);
    stats_.latency.Add(res.latency_s);
    HomeState* hs = Find(p.home_id);
    if (hs != nullptr) hs->pending_request = false;
    completed->push_back(std::move(res));
  }
  pending_.clear();
}

const PreparedGraph* StreamingDetectionEngine::prepared(int home_id) const {
  const HomeState* hs = Find(home_id);
  return hs == nullptr ? nullptr : &hs->prepared;
}

PreparedGraph StreamingDetectionEngine::RebuildPrepared(int home_id) const {
  const HomeState* hs = Find(home_id);
  assert(hs != nullptr);
  return PrepareGraph(hs->graph, model_->config());
}

const InteractionGraph* StreamingDetectionEngine::graph(int home_id) const {
  const HomeState* hs = Find(home_id);
  return hs == nullptr ? nullptr : &hs->graph;
}

}  // namespace fexiot
