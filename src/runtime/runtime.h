#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "runtime/async_policy.h"
#include "runtime/codec.h"
#include "runtime/event_queue.h"
#include "runtime/fault_model.h"
#include "runtime/network_model.h"
#include "runtime/topology.h"

namespace fexiot {

/// \brief Server round-completion policy.
enum class RoundPolicy : int {
  /// Wait for every surviving upload (today's paper behavior; with zero
  /// latency and no faults this is exactly the synchronous simulator).
  kSynchronous = 0,
  /// Close the round at a fixed simulated deadline, aggregating whatever
  /// arrived; over-selects clients so stragglers do not starve the round.
  kDeadline = 1,
  /// Wait for every upload, but lost updates are retransmitted after a
  /// timeout with exponential backoff (up to max_retries attempts).
  kTimeoutRetry = 2,
  /// Fully asynchronous (FedAsync-style): the server applies each arriving
  /// update immediately with a staleness-decayed mixing weight
  /// alpha(s) = async_alpha0 * (s+1)^-async_staleness_exponent and moves on
  /// once a target_fraction quorum of updates has been applied. Lost
  /// updates are never retried (fire-and-forget uplinks).
  kAsync = 3,
  /// Semi-asynchronous (FedCompass-style): per-client EWMA speed estimates
  /// group expected arrivals into semi_async_tiers tiers; each tier is
  /// aggregated as a mini-batch with per-tier staleness weighting, and the
  /// wave closes once the applied tiers cover a target_fraction quorum.
  kSemiAsync = 4,
};

const char* RoundPolicyName(RoundPolicy policy);

/// \brief Configuration of the discrete-event federated runtime.
///
/// The default configuration is the *passthrough* runtime: synchronous
/// rounds, zero-latency links, no faults. Under it every client
/// participates and delivers instantly, which reproduces the paper's
/// synchronous federated results bit-identically (DESIGN.md 5.7).
struct RuntimeConfig {
  RoundPolicy policy = RoundPolicy::kSynchronous;

  /// Deadline policy: simulated seconds the server waits per round.
  double deadline_s = 0.0;
  /// Deadline / async / semi-async: fraction of clients the server wants
  /// per round. The deadline policy sizes its over-selection from it; the
  /// async policies close their dispatch wave once this fraction of
  /// participants' updates has been applied (quorum).
  double target_fraction = 1.0;
  /// Deadline policy: when > 0, the deadline adapts per round to this
  /// running quantile of all observed arrival offsets (seconds after round
  /// start) across previous rounds; deadline_s only seeds round 0. 0
  /// keeps the fixed deadline.
  double adaptive_deadline_quantile = 0.0;
  /// Deadline policy: over-selection factor — ceil(target_fraction *
  /// over_selection * n) clients are invited to absorb stragglers.
  double over_selection = 1.0;

  /// Timeout+retry policy: seconds after sending before a lost update is
  /// retransmitted; doubled on every later attempt.
  double retry_timeout_s = 1.0;
  int max_retries = 2;

  /// Downlink loss recovery (any policy): seconds after round start a
  /// client waits for the model broadcast before requesting a re-send;
  /// doubled on every later re-fetch. Only consulted when a downlink's
  /// loss_prob > 0.
  double refetch_timeout_s = 1.0;
  /// Broadcast re-sends a client may request before giving the round up.
  int max_refetches = 2;

  /// Async policy: base mixing weight alpha(0) of a perfectly fresh
  /// update, in (0, 1].
  double async_alpha0 = 0.6;
  /// Async policy: polynomial staleness decay exponent a in
  /// alpha(s) = alpha0 * (s+1)^-a; 0 disables the decay.
  double async_staleness_exponent = 0.5;
  /// Semi-async policy: number of co-scheduled arrival tiers (>= 1).
  int semi_async_tiers = 3;
  /// Semi-async policy: EWMA weight on the newest observed round-trip
  /// time, in (0, 1].
  double speed_ewma_beta = 0.5;

  /// Compute model: simulated seconds of local training per prepared
  /// graph per epoch (scaled by the client's straggler slowdown).
  double train_seconds_per_graph = 0.0;

  /// Sampled participation: clients invited per round, drawn from the
  /// alive fleet with Floyd's O(k) sampler (seeded per round), so a round
  /// costs memory in its cohort, not in the fleet. 0 invites every alive
  /// client — the passthrough default.
  int clients_per_round = 0;

  /// Hierarchical aggregation topology (edge -> regional -> root). The
  /// default flat topology (edge_fanout == 0) leaves the round untouched.
  /// Only the synchronous and fixed-deadline policies support the tree:
  /// retry/async semantics interleave with interior forwarding in ways the
  /// post-pass router does not model (rejected by ValidateRuntimeConfig).
  TreeTopologyConfig topology;

  /// Wire payload codec negotiated with every client (runtime/codec.h).
  /// kFp64 is the bit-exact passthrough default; the lossy codecs shrink
  /// the priced message sizes (and therefore every simulated transfer).
  WireCodec wire_codec = WireCodec::kFp64;
  /// Per-client codec overrides; clients beyond the vector use wire_codec.
  std::vector<WireCodec> client_codecs;

  LinkModel default_down;
  LinkModel default_up;
  /// Per-client link overrides; clients beyond the vector use the default.
  std::vector<LinkModel> down_links;
  std::vector<LinkModel> up_links;

  ClientFaultProfile default_fault;
  /// Per-client fault overrides; clients beyond the vector use the default.
  std::vector<ClientFaultProfile> faults;

  /// Record a human-readable deterministic event trace (testing/CI).
  bool record_trace = false;
  uint64_t seed = 0x7E57AB1EULL;
};

/// \brief Rejects out-of-range runtime knobs with a descriptive Status.
Status ValidateRuntimeConfig(const RuntimeConfig& config);

/// \brief One server-side model application under the async policies.
struct UpdateApplication {
  int client = -1;
  /// Server model updates applied between this client's dispatch and the
  /// application of its update (kAsync: per-update; kSemiAsync: per-tier).
  int staleness = 0;
  /// Semi-async tier the update was batched into; -1 under kAsync.
  int tier = -1;
  double arrival_s = 0.0;
};

/// \brief Outcome of one simulated federated round.
struct RoundOutcome {
  /// Clients selected and alive this round (sorted ascending). These are
  /// the clients that run local training.
  std::vector<int> participants;
  /// Clients whose updates reached the server in time (sorted ascending).
  /// Aggregation is restricted to these.
  std::vector<int> delivered;
  double start_time_s = 0.0;
  double end_time_s = 0.0;
  /// Bytes of retransmitted updates (attempt > 0) this round.
  double retransmit_bytes = 0.0;
  int retransmissions = 0;
  /// Updates permanently lost this round (retries exhausted or no retry).
  int lost_updates = 0;
  /// Broadcasts permanently lost this round (re-fetches exhausted): the
  /// client never receives the model and never trains.
  int lost_broadcasts = 0;
  /// Broadcast re-sends triggered by client re-fetch requests.
  int broadcast_refetches = 0;
  /// Updates that arrived after the deadline and were discarded.
  int late_updates = 0;
  /// Async policies: every applied update in deterministic server
  /// application order — the event scheduler's (time, tie_key, seq) pop
  /// order — with its staleness and (semi-async) tier. Empty for the
  /// round-based policies.
  std::vector<UpdateApplication> applied;
  /// Redundant deliveries ignored by first-arrival-wins bookkeeping.
  int duplicate_deliveries = 0;
  /// Deadline policy: the deadline actually used this round (equals
  /// config.deadline_s unless adaptive tuning is on).
  double effective_deadline_s = 0.0;
  /// Hierarchical topology: bytes crossing each uplink tier this round
  /// (0: clients->edge incl. lost transmissions, 1: edge->parent,
  /// 2: regional->root). Empty under the flat topology.
  std::vector<double> hop_bytes;
  /// Aggregators down this round (tree topology only).
  int aggregator_crashes = 0;
  /// Arrived updates dropped because an aggregator on their path crashed.
  int subtree_lost_updates = 0;
  /// Real on-wire uplink bytes this round: every upload copy that left a
  /// client (first attempts, retransmissions, and copies lost in transit —
  /// the bytes are spent either way), priced from the encoded message
  /// sizes the caller passed in.
  double uplink_wire_bytes = 0.0;
  /// Real on-wire downlink bytes this round: every broadcast copy that
  /// left the server, including re-fetch re-sends and lost copies.
  double downlink_wire_bytes = 0.0;
  /// Events the scheduler ran this round plus one per interior tree
  /// forward. A lossless participant costs two: its broadcast arrival and
  /// its upload arrival.
  uint64_t events = 0;
};

/// \brief Deterministic discrete-event federated round executor.
///
/// FederatedSimulator and the lazy million-client ScaleSimulator each
/// drive one ExecuteRound call per federated round: the runtime decides
/// who participates (crash/rejoin, sampled cohort, over-selection), prices
/// the model broadcast and every layer-update upload through the per-link
/// network model from serialized message sizes, injects stragglers and
/// losses, routes arrivals through the aggregation tree, and applies the
/// server's round policy. It simulates *timing and delivery* only — the
/// actual training/aggregation math stays in the drivers, so the
/// passthrough configuration leaves results bit-identical.
///
/// Memory: round scratch is indexed by participant. Per-client state
/// exists only where a feature needs it — crash rejoin windows when a
/// fault profile can crash, speed estimates under the semi-async policy —
/// so with uniform costs and a sampled cohort a round costs O(cohort)
/// whatever num_clients is.
///
/// Determinism: the scheduler is strictly serial and every stochastic draw
/// is counter-based (pure function of seed and the draw's identity), so
/// the event trace and outcome are identical for any FEXIOT_THREADS.
class FederatedRuntime {
 public:
  FederatedRuntime(const RuntimeConfig& config, int num_clients);

  /// Simulates round \p round: \p broadcast_bytes is the serialized
  /// downlink message size per client; \p upload_bytes[c] the total
  /// serialized upload of client c; \p train_seconds[c] its nominal local
  /// training time (scaled by the straggler profile inside).
  RoundOutcome ExecuteRound(int round, double broadcast_bytes,
                            const std::vector<double>& upload_bytes,
                            const std::vector<double>& train_seconds);

  /// Per-client downlink form: \p broadcast_bytes[c] is the serialized
  /// downlink message size for client c. A mixed-codec fleet encodes each
  /// client's broadcast with its own negotiated codec, so downlink sizes
  /// differ per client; the scalar overload above is the uniform special
  /// case and stays bit-identical.
  RoundOutcome ExecuteRound(int round,
                            const std::vector<double>& broadcast_bytes,
                            const std::vector<double>& upload_bytes,
                            const std::vector<double>& train_seconds);

  /// Uniform form: every client costs the same, so no per-client vector
  /// is built (the lazy driver's million-client fleets).
  RoundOutcome ExecuteRound(int round, double broadcast_bytes,
                            double upload_bytes, double train_seconds);

  /// Simulated wall-clock after the last executed round.
  double now() const { return now_; }

  /// Event trace (empty unless config.record_trace).
  const std::vector<std::string>& trace() const { return trace_; }

  const RuntimeConfig& config() const { return config_; }

  /// The aggregation tree the runtime routes uploads through; drivers
  /// reduce delivered updates along it.
  const AggregationTree& tree() const { return tree_; }

 private:
  /// One per-client round cost: one value per client, or one shared value.
  struct Cost {
    Cost(double all) : per_client(nullptr), uniform(all) {}
    Cost(const std::vector<double>& each) : per_client(&each), uniform(0) {}
    double operator[](int client) const {
      return per_client != nullptr
                 ? (*per_client)[static_cast<size_t>(client)]
                 : uniform;
    }
    const std::vector<double>* per_client;
    double uniform;
  };

  RoundOutcome Execute(int round, Cost broadcast_bytes, Cost upload_bytes,
                       Cost train_seconds);
  void SendUpload(EventQueue* queue, RoundOutcome* outcome, int round,
                  int client, int attempt, double send_time,
                  double upload_bytes);
  /// Prices one broadcast copy and schedules its arrival (or its loss,
  /// when the downlink's loss draw fires).
  void SendBroadcast(EventQueue* queue, RoundOutcome* outcome, int round,
                     int client, int attempt, double send_time,
                     double broadcast_bytes);
  void Trace(int round, const SimEvent& event);
  void TraceLine(const std::string& line);
  /// Deadline the deadline policy uses for \p round (adaptive or fixed).
  double EffectiveDeadline() const;

  RuntimeConfig config_;
  int num_clients_;
  NetworkModel network_;
  FaultModel faults_;
  AggregationTree tree_;
  Rng select_rng_;
  double now_ = 0.0;
  std::vector<std::string> trace_;
  // Semi-async persistent per-client round-trip-time estimates (empty
  // under every other policy).
  std::vector<EwmaSpeed> speed_;
  // Deadline policy: running quantile of arrival offsets (adaptive tuning).
  RunningQuantile arrival_quantile_;
};

}  // namespace fexiot
