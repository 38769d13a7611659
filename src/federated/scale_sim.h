#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "federated/client_state.h"
#include "ml/metrics.h"
#include "runtime/runtime.h"

namespace fexiot {

/// \brief Configuration of the million-client lazy-state FedAvg driver.
///
/// Unlike FlConfig (which hosts every client eagerly and evaluates all of
/// them), ScaleFlConfig describes the federation by a LazyClientSpec and
/// samples a small cohort per round, so memory is O(active clients)
/// regardless of num_clients.
struct ScaleFlConfig {
  ScaleFlConfig() { runtime.clients_per_round = 32; }

  /// At most INT_MAX: the runtime's client ids are int.
  uint64_t num_clients = 1000;
  int num_rounds = 2;
  /// Recipe materializing any client's shard + replica on demand.
  LazyClientSpec client;
  TrainConfig train;
  /// Eager baseline: pre-materialize every shard up front. Bit-identical
  /// results to the lazy default (pinned by test_scale) — only the memory
  /// profile differs.
  bool eager_state = false;
  /// The round engine's knobs: cohort size (clients_per_round, >= 1
  /// here), client links, aggregation topology, wire codec, compute
  /// model, round policy
  /// (synchronous, deadline or timeout-retry) and the seed of every draw,
  /// training streams included.
  RuntimeConfig runtime;
  /// Clients evaluated after the final round (sampled; 0 = skip eval).
  int eval_clients = 0;
  /// Worker threads for parallel client training (0 = hardware).
  int threads = 0;
};

Status ValidateScaleConfig(const ScaleFlConfig& config);

/// \brief Per-round telemetry of a scale run (copied from the runtime's
/// RoundOutcome).
struct ScaleRoundStats {
  int round = 0;
  int participants = 0;
  /// Updates aggregated at the root this round.
  int delivered = 0;
  /// Updates lost on the client uplink.
  int lost_updates = 0;
  /// Updates discarded at the root for missing the deadline.
  int late_updates = 0;
  int aggregator_crashes = 0;
  /// Arrived updates dropped because an aggregator on their path crashed.
  int subtree_lost_updates = 0;
  double mean_local_loss = 0.0;
  /// Simulated wall-clock at the end of this round.
  double sim_time_s = 0.0;
  /// Bytes crossing each uplink tier (size = tree depth; [0] = client
  /// uplink incl. lost transmissions).
  std::vector<double> hop_bytes;
  /// Events the runtime's scheduler ran this round, plus one per interior
  /// tree forward.
  uint64_t events = 0;
};

/// \brief Outcome of a scale run.
struct ScaleFlResult {
  std::vector<ScaleRoundStats> rounds;
  /// Final global model, flat per layer.
  std::vector<std::vector<double>> global_layers;
  /// Order-sensitive FNV-1a digest over the final global's bit patterns —
  /// the lazy-vs-eager / thread-parity probe.
  uint64_t global_fingerprint = 0;
  /// Final-round eval on sampled clients, (client, metrics) ascending.
  std::vector<std::pair<uint64_t, ClassificationMetrics>> sampled_metrics;
  /// Mean over sampled_metrics (zeros when eval_clients == 0).
  ClassificationMetrics mean;
  double total_sim_time_s = 0.0;
  double total_comm_bytes = 0.0;
  uint64_t total_events = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  /// Lazy-state accounting (ClientStateStore counters).
  uint64_t materializations = 0;
  uint64_t peak_live_clients = 0;
  /// Process peak / current resident set (MB; 0 off Linux).
  double peak_rss_mb = 0.0;
  double current_rss_mb = 0.0;
};

/// Peak resident set size of this process in MB (VmHWM of
/// /proc/self/status; 0.0 off Linux).
double ReadVmHwmMb();
/// Current resident set size in MB (VmRSS; 0.0 off Linux).
double ReadVmRssMb();

/// \brief Million-client FedAvg driver: a lazy client loop over the
/// event runtime.
///
/// Each round FederatedRuntime::ExecuteRound (uniform per-client costs)
/// picks the cohort and decides timing and delivery. The driver then fans
/// local training out over a thread pool where each worker Acquires its
/// client's state from the global, trains, snapshots the update, and
/// Releases before returning (peak live state <= pool width), and folds
/// the delivered updates into streaming accumulators along the runtime's
/// aggregation tree. Clients are stateless (re-initialized from the global
/// each round) and every stochastic draw is counter-based, so results are
/// bit-identical across thread counts and lazy-vs-eager state (pinned by
/// test_scale).
class ScaleSimulator {
 public:
  explicit ScaleSimulator(const ScaleFlConfig& config);

  /// Runs the configured rounds. InvalidArgument on bad config.
  Result<ScaleFlResult> Run();

 private:
  ScaleFlConfig config_;
};

}  // namespace fexiot
