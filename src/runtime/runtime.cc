#include "runtime/runtime.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace fexiot {

const char* RoundPolicyName(RoundPolicy policy) {
  switch (policy) {
    case RoundPolicy::kSynchronous:
      return "synchronous";
    case RoundPolicy::kDeadline:
      return "deadline";
    case RoundPolicy::kTimeoutRetry:
      return "timeout-retry";
    case RoundPolicy::kAsync:
      return "async";
    case RoundPolicy::kSemiAsync:
      return "semi-async";
  }
  return "?";
}

namespace {

/// Exponential backoff of update retransmits and broadcast re-fetches:
/// attempt k waits timeout * kBackoffFactor^k.
constexpr double kBackoffFactor = 2.0;

Status ValidateFault(const ClientFaultProfile& fault, const char* what) {
  if (!(fault.slowdown > 0.0)) {
    return Status::InvalidArgument(std::string(what) +
                                   ": slowdown must be > 0");
  }
  if (!(fault.crash_prob >= 0.0 && fault.crash_prob < 1.0)) {
    return Status::InvalidArgument(std::string(what) +
                                   ": crash_prob must be in [0, 1)");
  }
  if (fault.rejoin_rounds < 1) {
    return Status::InvalidArgument(std::string(what) +
                                   ": rejoin_rounds must be >= 1");
  }
  return Status::OK();
}

}  // namespace

Status ValidateRuntimeConfig(const RuntimeConfig& config) {
  // Every floating-point check is written so that NaN fails it.
  if (config.policy == RoundPolicy::kDeadline && !(config.deadline_s > 0.0)) {
    return Status::InvalidArgument(
        "runtime: deadline policy requires deadline_s > 0");
  }
  if (!(config.target_fraction > 0.0 && config.target_fraction <= 1.0)) {
    return Status::InvalidArgument(
        "runtime: target_fraction must be in (0, 1]");
  }
  if (!(config.adaptive_deadline_quantile >= 0.0 &&
        config.adaptive_deadline_quantile < 1.0)) {
    return Status::InvalidArgument(
        "runtime: adaptive_deadline_quantile must be in [0, 1)");
  }
  if (!(config.over_selection >= 1.0)) {
    return Status::InvalidArgument("runtime: over_selection must be >= 1");
  }
  if (config.policy == RoundPolicy::kTimeoutRetry &&
      !(config.retry_timeout_s > 0.0)) {
    return Status::InvalidArgument(
        "runtime: timeout-retry policy requires retry_timeout_s > 0");
  }
  if (config.max_retries < 0) {
    return Status::InvalidArgument("runtime: max_retries must be >= 0");
  }
  if (config.max_refetches < 0) {
    return Status::InvalidArgument("runtime: max_refetches must be >= 0");
  }
  bool lossy_down = config.default_down.loss_prob > 0.0;
  for (const LinkModel& l : config.down_links) {
    lossy_down = lossy_down || l.loss_prob > 0.0;
  }
  if (lossy_down && !(config.refetch_timeout_s > 0.0)) {
    return Status::InvalidArgument(
        "runtime: lossy downlinks require refetch_timeout_s > 0");
  }
  if (!(config.async_alpha0 > 0.0 && config.async_alpha0 <= 1.0)) {
    return Status::InvalidArgument(
        "runtime: async_alpha0 must be in (0, 1]");
  }
  if (!(config.async_staleness_exponent >= 0.0)) {
    return Status::InvalidArgument(
        "runtime: async_staleness_exponent must be >= 0");
  }
  if (config.semi_async_tiers < 1) {
    return Status::InvalidArgument(
        "runtime: semi_async_tiers must be >= 1");
  }
  if (!(config.speed_ewma_beta > 0.0 && config.speed_ewma_beta <= 1.0)) {
    return Status::InvalidArgument(
        "runtime: speed_ewma_beta must be in (0, 1]");
  }
  if (!(config.train_seconds_per_graph >= 0.0)) {
    return Status::InvalidArgument(
        "runtime: train_seconds_per_graph must be >= 0");
  }
  if (config.clients_per_round < 0) {
    return Status::InvalidArgument(
        "runtime: clients_per_round must be >= 0 (0 invites everyone)");
  }
  if (!IsValidWireCodec(static_cast<uint32_t>(config.wire_codec))) {
    return Status::InvalidArgument("runtime: unknown wire_codec");
  }
  for (WireCodec c : config.client_codecs) {
    if (!IsValidWireCodec(static_cast<uint32_t>(c))) {
      return Status::InvalidArgument("runtime: unknown client codec");
    }
  }
  FEXIOT_RETURN_NOT_OK(ValidateTreeTopology(config.topology));
  if (config.topology.edge_fanout > 0) {
    if (config.policy != RoundPolicy::kSynchronous &&
        config.policy != RoundPolicy::kDeadline) {
      return Status::InvalidArgument(
          "runtime: the aggregation tree supports only the synchronous "
          "and deadline policies");
    }
    if (config.adaptive_deadline_quantile > 0.0) {
      return Status::InvalidArgument(
          "runtime: adaptive deadlines observe edge arrivals and cannot "
          "bound root arrivals under a tree; use a fixed deadline_s");
    }
  }
  FEXIOT_RETURN_NOT_OK(
      ValidateLinkModel(config.default_down, "runtime downlink"));
  FEXIOT_RETURN_NOT_OK(ValidateLinkModel(config.default_up, "runtime uplink"));
  for (const LinkModel& l : config.down_links) {
    FEXIOT_RETURN_NOT_OK(ValidateLinkModel(l, "runtime downlink"));
  }
  for (const LinkModel& l : config.up_links) {
    FEXIOT_RETURN_NOT_OK(ValidateLinkModel(l, "runtime uplink"));
  }
  FEXIOT_RETURN_NOT_OK(ValidateFault(config.default_fault, "runtime fault"));
  for (const ClientFaultProfile& f : config.faults) {
    FEXIOT_RETURN_NOT_OK(ValidateFault(f, "runtime fault"));
  }
  return Status::OK();
}

FederatedRuntime::FederatedRuntime(const RuntimeConfig& config,
                                   int num_clients)
    : config_(config),
      num_clients_(num_clients),
      network_(config.default_down, config.default_up, config.down_links,
               config.up_links, MixKey(config.seed, /*net*/ 11)),
      faults_(config.default_fault, config.faults, num_clients,
              MixKey(config.seed, /*fault*/ 13)),
      tree_(config.topology, MixKey(config.seed, /*tree*/ 19)),
      select_rng_(MixKey(config.seed, /*select*/ 17)),
      arrival_quantile_(config.adaptive_deadline_quantile) {
  if (config.policy == RoundPolicy::kSemiAsync) {
    speed_.assign(static_cast<size_t>(num_clients),
                  EwmaSpeed(config.speed_ewma_beta));
  }
}

void FederatedRuntime::TraceLine(const std::string& line) {
  if (config_.record_trace) trace_.push_back(line);
}

void FederatedRuntime::Trace(int round, const SimEvent& event) {
  if (!config_.record_trace) return;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "r=%d t=%.6f %s c=%d a=%d", round,
                event.time, EventKindName(event.kind), event.client,
                event.attempt);
  trace_.push_back(buf);
}

double FederatedRuntime::EffectiveDeadline() const {
  if (config_.adaptive_deadline_quantile > 0.0 && !arrival_quantile_.empty()) {
    return arrival_quantile_.Value();
  }
  return config_.deadline_s;
}

void FederatedRuntime::SendUpload(EventQueue* queue, RoundOutcome* outcome,
                                  int round, int client, int attempt,
                                  double send_time, double upload_bytes) {
  outcome->uplink_wire_bytes += upload_bytes;
  if (attempt > 0) {
    ++outcome->retransmissions;
    outcome->retransmit_bytes += upload_bytes;
  }
  const double duration = network_.TransferSeconds(
      round, client, LinkDirection::kUp, attempt, upload_bytes);
  const bool lost =
      network_.LostInTransit(round, client, LinkDirection::kUp, attempt);
  queue->Schedule(send_time + duration,
                  lost ? EventKind::kUploadLost : EventKind::kUploadArrive,
                  client, attempt);
}

void FederatedRuntime::SendBroadcast(EventQueue* queue, RoundOutcome* outcome,
                                     int round, int client, int attempt,
                                     double send_time,
                                     double broadcast_bytes) {
  outcome->downlink_wire_bytes += broadcast_bytes;
  const double duration = network_.TransferSeconds(
      round, client, LinkDirection::kDown, attempt, broadcast_bytes);
  // Lossless downlinks (the historical default) never consume a loss
  // draw, so enabling the re-fetch path leaves their traces bit-identical.
  const bool lost =
      network_.LostInTransit(round, client, LinkDirection::kDown, attempt);
  queue->Schedule(
      send_time + duration,
      lost ? EventKind::kDownlinkLost : EventKind::kDownlinkArrive, client,
      attempt);
}

RoundOutcome FederatedRuntime::ExecuteRound(int round,
                                            RoundCost broadcast_bytes,
                                            RoundCost upload_bytes,
                                            RoundCost train_seconds) {
  RoundOutcome outcome;
  outcome.start_time_s = now_;
  const bool is_async = config_.policy == RoundPolicy::kAsync ||
                        config_.policy == RoundPolicy::kSemiAsync;

  // 1. Selection: crash/rejoin filter (no scan when nobody can crash),
  // the sampled cohort, then policy-driven (over-)selection.
  std::vector<int>& participants = outcome.participants;
  const bool can_crash = faults_.can_crash();
  std::vector<int> alive;
  if (can_crash) {
    for (int c = 0; c < num_clients_; ++c) {
      if (faults_.Alive(round, c)) alive.push_back(c);
    }
  }
  const size_t alive_count =
      can_crash ? alive.size() : static_cast<size_t>(num_clients_);
  auto alive_at = [&](uint64_t i) {
    return can_crash ? alive[static_cast<size_t>(i)] : static_cast<int>(i);
  };
  if (config_.clients_per_round > 0) {
    Rng r = select_rng_.ForkAt(
        MixKey(static_cast<uint64_t>(round) + 1, /*sample*/ 0x5A17));
    for (uint64_t i : r.SampleSorted(
             alive_count, static_cast<uint64_t>(config_.clients_per_round))) {
      participants.push_back(alive_at(i));
    }
  } else {
    participants.reserve(alive_count);
    for (size_t i = 0; i < alive_count; ++i) {
      participants.push_back(alive_at(i));
    }
  }
  if (config_.policy == RoundPolicy::kDeadline && !participants.empty()) {
    // Absorb fp dust before the ceil so e.g. 0.4 * 1.5 * 10 invites
    // exactly 6 clients, not 7. Under sampled participation the
    // over-selection budget is relative to the sampled cohort.
    const double base = config_.clients_per_round > 0
                            ? static_cast<double>(participants.size())
                            : static_cast<double>(num_clients_);
    const double invited =
        config_.target_fraction * config_.over_selection * base;
    const size_t want = std::min(
        participants.size(),
        static_cast<size_t>(std::max(1.0, std::ceil(invited - 1e-9))));
    if (want < participants.size()) {
      Rng r = select_rng_.ForkAt(static_cast<uint64_t>(round) + 1);
      const std::vector<size_t> picks =
          r.SampleWithoutReplacement(participants.size(), want);
      std::vector<int> selected;
      selected.reserve(want);
      for (size_t i : picks) selected.push_back(participants[i]);
      std::sort(selected.begin(), selected.end());
      // Over-selection must never invite a client twice (a rejoin landing
      // mid-selection would train it twice and double-weight its update).
      selected.erase(std::unique(selected.begin(), selected.end()),
                     selected.end());
      participants = std::move(selected);
    }
  }
  {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "round=%d policy=%s start=%.6f participants=%zu", round,
                  RoundPolicyName(config_.policy), outcome.start_time_s,
                  participants.size());
    TraceLine(buf);
  }

  // Async policies: quorum of applied updates that closes the wave.
  const int quorum =
      is_async && !participants.empty()
          ? std::max(1, static_cast<int>(std::ceil(
                            config_.target_fraction *
                                static_cast<double>(participants.size()) -
                            1e-9)))
          : 0;

  // Round scratch is indexed by participant slot; events carry client ids
  // (traces and tie-breaks key on them), so each event looks its slot up
  // in the sorted participant list.
  auto slot_of = [&participants](int client) {
    return static_cast<size_t>(
        std::lower_bound(participants.begin(), participants.end(), client) -
        participants.begin());
  };
  std::vector<double> send_time(participants.size(), 0.0);
  ArrivalTracker tracker(static_cast<int>(participants.size()));

  // Semi-async: tier assignment from the persistent EWMA speed estimates.
  // Unknown clients predict +inf and sort into the trailing tiers; the
  // all-unknown first wave falls back to client-index chunking.
  std::vector<int> tier_of;  // per participant slot
  std::vector<int> tier_pending;
  std::vector<std::vector<UpdateApplication>> tier_buffer;
  if (config_.policy == RoundPolicy::kSemiAsync) {
    std::vector<double> expected;
    expected.reserve(participants.size());
    for (int c : participants) {
      expected.push_back(speed_[static_cast<size_t>(c)].Predict());
    }
    tier_of = AssignTiers(expected, config_.semi_async_tiers);
    tier_pending.assign(static_cast<size_t>(config_.semi_async_tiers), 0);
    tier_buffer.assign(static_cast<size_t>(config_.semi_async_tiers), {});
    for (int tier : tier_of) ++tier_pending[static_cast<size_t>(tier)];
    if (config_.record_trace) {
      for (size_t i = 0; i < participants.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "round=%d tier c=%d tier=%d", round,
                      participants[i], tier_of[i]);
        TraceLine(buf);
      }
    }
  }

  // 2. Discrete-event simulation of broadcast -> train -> upload.
  EventQueue queue(MixKey(config_.seed, static_cast<uint64_t>(round) + 1));
  // A semi-async tier is flushed once its last member resolved (arrived,
  // or lost for good).
  auto resolve_tier_member = [&](size_t slot, double time) {
    const int tier = tier_of[slot];
    if (--tier_pending[static_cast<size_t>(tier)] == 0) {
      queue.Schedule(time, EventKind::kTierFlush, tier, 0);
    }
  };
  for (int c : participants) {
    SendBroadcast(&queue, &outcome, round, c, 0, now_, broadcast_bytes[c]);
  }
  double last_event_time = now_;
  int applications = 0;    // kAsync: applied updates; kSemiAsync: tiers
  int applied_clients = 0; // updates applied (quorum progress)
  double quorum_time = -1.0;
  while (!queue.empty()) {
    const SimEvent ev = queue.Pop();
    ++outcome.events;
    last_event_time = std::max(last_event_time, ev.time);
    Trace(round, ev);
    // A tier flush carries its tier id in the client field.
    const size_t slot =
        ev.kind == EventKind::kTierFlush ? 0 : slot_of(ev.client);
    switch (ev.kind) {
      case EventKind::kDownlinkArrive:
        send_time[slot] = ev.time + train_seconds[ev.client] *
                                        faults_.Slowdown(ev.client);
        SendUpload(&queue, &outcome, round, ev.client, 0, send_time[slot],
                   upload_bytes[ev.client]);
        break;
      case EventKind::kUploadArrive:
        if (!tracker.Arrive(static_cast<int>(slot), ev.time)) {
          ++outcome.duplicate_deliveries;
          break;
        }
        if (config_.policy == RoundPolicy::kAsync) {
          // Immediate application: staleness = server updates applied
          // since this wave's dispatch = prior applications this wave.
          UpdateApplication u;
          u.client = ev.client;
          u.staleness = applications;
          u.arrival_s = ev.time;
          outcome.applied.push_back(u);
          ++applications;
          if (++applied_clients == quorum && quorum_time < 0.0) {
            quorum_time = ev.time;
          }
        } else if (config_.policy == RoundPolicy::kSemiAsync) {
          UpdateApplication u;
          u.client = ev.client;
          u.tier = tier_of[slot];
          u.arrival_s = ev.time;
          tier_buffer[static_cast<size_t>(u.tier)].push_back(u);
          resolve_tier_member(slot, ev.time);
        }
        break;
      case EventKind::kUploadLost:
        if (config_.policy == RoundPolicy::kTimeoutRetry &&
            ev.attempt < config_.max_retries) {
          // The sender times out waiting for the server ack and
          // retransmits with exponential backoff.
          const double resend = std::max(
              ev.time, send_time[slot] + config_.retry_timeout_s *
                                             std::pow(kBackoffFactor,
                                                      ev.attempt));
          queue.Schedule(resend, EventKind::kRetrySend, ev.client,
                         ev.attempt + 1);
        } else {
          ++outcome.lost_updates;
          if (config_.policy == RoundPolicy::kSemiAsync) {
            resolve_tier_member(slot, ev.time);
          }
        }
        break;
      case EventKind::kRetrySend:
        send_time[slot] = ev.time;
        SendUpload(&queue, &outcome, round, ev.client, ev.attempt, ev.time,
                   upload_bytes[ev.client]);
        break;
      case EventKind::kDownlinkLost:
        if (ev.attempt < config_.max_refetches) {
          // The client times out waiting for the broadcast and requests a
          // re-send, backed off from the round start (all broadcast copies
          // leave the server at round start, so the client's timeout
          // anchors there rather than at the lost copy's send time).
          ++outcome.broadcast_refetches;
          const double resend = std::max(
              ev.time,
              outcome.start_time_s +
                  config_.refetch_timeout_s *
                      std::pow(kBackoffFactor, ev.attempt));
          queue.Schedule(resend, EventKind::kRefetch, ev.client,
                         ev.attempt + 1);
        } else {
          // Re-fetch budget exhausted: the client never gets the model
          // this round, so it never trains or uploads. Semi-async tiers
          // must not wait for an upload that can never happen.
          ++outcome.lost_broadcasts;
          if (config_.policy == RoundPolicy::kSemiAsync) {
            resolve_tier_member(slot, ev.time);
          }
        }
        break;
      case EventKind::kRefetch:
        SendBroadcast(&queue, &outcome, round, ev.client, ev.attempt, ev.time,
                      broadcast_bytes[ev.client]);
        break;
      case EventKind::kTierFlush: {
        // Aggregate the tier as a mini-batch: every buffered member gets
        // the same per-tier staleness (= tiers applied before this one).
        auto& batch = tier_buffer[static_cast<size_t>(ev.client)];
        if (batch.empty()) break;  // all members lost: nothing to apply
        for (UpdateApplication& u : batch) {
          u.staleness = applications;
          outcome.applied.push_back(u);
        }
        applied_clients += static_cast<int>(batch.size());
        batch.clear();
        ++applications;
        if (applied_clients >= quorum && quorum_time < 0.0) {
          quorum_time = ev.time;
        }
        break;
      }
    }
  }

  // 3. Round-completion policy.
  const double effective_deadline = EffectiveDeadline();
  outcome.effective_deadline_s =
      config_.policy == RoundPolicy::kDeadline ? effective_deadline : 0.0;
  const double deadline = outcome.start_time_s + effective_deadline;
  if (is_async) {
    // Every applied update enters aggregation (staleness already priced
    // the lateness); delivered = applied clients, sorted for the callers.
    outcome.delivered.reserve(outcome.applied.size());
    for (const UpdateApplication& u : outcome.applied) {
      outcome.delivered.push_back(u.client);
    }
    std::sort(outcome.delivered.begin(), outcome.delivered.end());
    // The server re-broadcasts once the quorum is applied; stragglers'
    // updates still count above, they just don't hold the wave open.
    outcome.end_time_s = quorum_time >= 0.0 ? quorum_time : last_event_time;
  } else if (tree_.enabled()) {
    // Hierarchical topology: the event loop priced the client->edge hop;
    // route the arrived uploads through the aggregation tree and apply
    // the deadline at the *root* arrival.
    std::vector<TreeArrival> arrivals;
    double agg_msg_bytes = 0.0;
    for (size_t i = 0; i < participants.size(); ++i) {
      const int c = participants[i];
      agg_msg_bytes = std::max(agg_msg_bytes, upload_bytes[c]);
      if (tracker.arrived(static_cast<int>(i))) {
        arrivals.push_back({c, tracker.arrival_time(static_cast<int>(i))});
      }
    }
    const TreeDelivery td =
        tree_.Route(round, arrivals, agg_msg_bytes,
                    config_.record_trace ? &trace_ : nullptr);
    outcome.hop_bytes = td.hop_bytes;
    for (int c : participants) outcome.hop_bytes[0] += upload_bytes[c];
    outcome.aggregator_crashes = td.aggregator_crashes;
    outcome.subtree_lost_updates = td.subtree_lost;
    outcome.events += static_cast<uint64_t>(td.forwards);
    double last_root_arrival = last_event_time;
    for (size_t i = 0; i < td.delivered.size(); ++i) {
      if (config_.policy == RoundPolicy::kDeadline &&
          td.root_arrival_s[i] > deadline) {
        ++outcome.late_updates;
        continue;
      }
      outcome.delivered.push_back(td.delivered[i]);
      last_root_arrival = std::max(last_root_arrival, td.root_arrival_s[i]);
    }
    outcome.end_time_s = config_.policy == RoundPolicy::kDeadline
                             ? deadline
                             : last_root_arrival;
  } else {
    for (size_t i = 0; i < participants.size(); ++i) {
      const int slot = static_cast<int>(i);
      if (!tracker.arrived(slot)) continue;
      if (config_.policy == RoundPolicy::kDeadline &&
          tracker.arrival_time(slot) > deadline) {
        ++outcome.late_updates;
        continue;
      }
      outcome.delivered.push_back(participants[i]);
    }
    outcome.end_time_s = config_.policy == RoundPolicy::kDeadline
                             ? deadline
                             : last_event_time;
  }
  outcome.duplicate_deliveries += tracker.duplicates();

  // 4. Post-round estimator updates, in client index order (determinism).
  for (size_t i = 0; i < participants.size(); ++i) {
    const int slot = static_cast<int>(i);
    if (!tracker.arrived(slot)) continue;
    const double offset = tracker.arrival_time(slot) - outcome.start_time_s;
    if (config_.policy == RoundPolicy::kSemiAsync) {
      speed_[static_cast<size_t>(participants[i])].Observe(offset);
    }
    if (config_.policy == RoundPolicy::kDeadline &&
        config_.adaptive_deadline_quantile > 0.0) {
      arrival_quantile_.Add(offset);
    }
  }

  now_ = outcome.end_time_s;
  {
    char buf[144];
    if (is_async) {
      std::snprintf(buf, sizeof(buf),
                    "round=%d end=%.6f delivered=%zu applied=%zu lost=%d "
                    "dup=%d quorum=%d",
                    round, outcome.end_time_s, outcome.delivered.size(),
                    outcome.applied.size(), outcome.lost_updates,
                    outcome.duplicate_deliveries, quorum);
      TraceLine(buf);
      for (const UpdateApplication& u : outcome.applied) {
        char abuf[96];
        std::snprintf(abuf, sizeof(abuf),
                      "round=%d apply c=%d s=%d tier=%d t=%.6f", round,
                      u.client, u.staleness, u.tier, u.arrival_s);
        TraceLine(abuf);
      }
    } else {
      std::snprintf(buf, sizeof(buf),
                    "round=%d end=%.6f delivered=%zu late=%d lost=%d retx=%d",
                    round, outcome.end_time_s, outcome.delivered.size(),
                    outcome.late_updates, outcome.lost_updates,
                    outcome.retransmissions);
      TraceLine(buf);
    }
    // Only emitted when the downlink actually lost copies, so passthrough
    // (and uplink-loss-only) traces remain bit-identical.
    if (outcome.lost_broadcasts > 0 || outcome.broadcast_refetches > 0) {
      std::snprintf(buf, sizeof(buf),
                    "round=%d downlink lost_broadcasts=%d refetches=%d",
                    round, outcome.lost_broadcasts,
                    outcome.broadcast_refetches);
      TraceLine(buf);
    }
  }
  return outcome;
}

}  // namespace fexiot
