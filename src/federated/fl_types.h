#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "gnn/trainer.h"
#include "ml/metrics.h"
#include "runtime/runtime.h"

namespace fexiot {

/// \brief Federated aggregation strategies compared in Figure 4.
enum class FlAlgorithm {
  kFedAvg,     ///< McMahan et al.: global weighted averaging
  kFmtl,       ///< clustered FL (Sattler et al.): whole-model bisection
  kGcfl,       ///< GCFL+ (Xie et al.): gradient-sequence clustering
  kFexiot,     ///< this paper: layer-wise recursive clustering (Alg. 1)
  kLocalOnly,  ///< "Client": self-training, no communication
};

const char* FlAlgorithmName(FlAlgorithm algorithm);

/// \brief Federated simulation configuration.
struct FlConfig {
  int num_rounds = 10;
  /// Local training done by every client each round.
  TrainConfig local;
  /// Algorithm 1 thresholds: clustering starts when the weighted global
  /// update is stationary (norm < epsilon1) while some client still moves
  /// a lot (max norm > epsilon2). The paper uses 1.2 / 0.8 and notes the
  /// values are "related to the size of model weights"; our layer deltas
  /// live at a smaller scale (see EXPERIMENTS.md), hence smaller defaults.
  double epsilon1 = 0.5;
  double epsilon2 = 0.2;
  /// Minimum cluster size eligible for further bisection.
  int min_cluster_size = 4;
  /// Worker threads for parallel client training (0 = hardware).
  int threads = 0;
  /// Evaluate every client after each round and record the mean accuracy
  /// in FlRoundStats (time-to-accuracy curves). Off by default: evaluation
  /// is deterministic and consumes no RNG, but it costs one full local
  /// eval per client per round.
  bool eval_each_round = false;
  uint64_t seed = 59;
  /// Discrete-event runtime: network links, faults, round policy. The
  /// default is the passthrough runtime (synchronous, zero latency, no
  /// faults), which reproduces the paper's results bit-identically.
  RuntimeConfig runtime;
};

/// \brief Rejects invalid federated configurations (non-positive rounds,
/// negative epsilons, a local TrainConfig ValidateTrainConfig rejects, bad
/// runtime knobs) with a descriptive Status instead of silently
/// misbehaving.
Status ValidateFlConfig(const FlConfig& config);

/// \brief Per-round telemetry.
struct FlRoundStats {
  int round = 0;
  double mean_local_loss = 0.0;
  /// Number of leaf clusters at the bottom layer after this round.
  int num_clusters = 1;
  /// Clients selected and alive this round (ran local training).
  int participants = 0;
  /// Clients whose updates arrived in time and entered aggregation.
  int delivered = 0;
  /// Simulated wall-clock at the end of this round (seconds).
  double sim_time_s = 0.0;
  /// Cumulative retransmitted bytes (timeout+retry policy) up to here.
  double retransmit_bytes = 0.0;
  /// Mean client accuracy after this round's aggregation; -1 unless
  /// FlConfig::eval_each_round is set.
  double mean_accuracy = -1.0;
  /// Async policies: mean staleness of the updates applied this round
  /// (0 under the round-based policies and when nothing was applied).
  double mean_staleness = 0.0;
  /// Hierarchical topology: bytes crossing each uplink tier this round
  /// (0: clients->edge, 1: edge->parent, 2: regional->root). Empty under
  /// the flat topology.
  std::vector<double> hop_comm_bytes;
  /// Cumulative on-wire bytes up to this round, priced from the encoded
  /// message sizes (framing + codec lanes, every copy sent incl.
  /// retransmissions and losses); they shrink under the lossy wire codecs
  /// (runtime/codec.h).
  double uplink_wire_bytes = 0.0;
  double downlink_wire_bytes = 0.0;
  /// Aggregators down this round (tree topology only).
  int aggregator_crashes = 0;
  /// Arrived updates dropped because an aggregator on their path crashed.
  int subtree_lost_updates = 0;
};

/// \brief Outcome of one federated run.
struct FlResult {
  /// Final metrics of each client's model on its local test split.
  std::vector<ClassificationMetrics> client_metrics;
  /// Averages over clients.
  ClassificationMetrics mean;
  /// Std-dev of client accuracies (stability evaluation).
  double accuracy_std = 0.0;
  /// On-wire byte totals over the whole run (see
  /// FlRoundStats::uplink_wire_bytes): what actually crossed the links,
  /// per direction, under the negotiated wire codecs. Their sum is the
  /// run's communication cost (Figure 7).
  double total_uplink_wire_bytes = 0.0;
  double total_downlink_wire_bytes = 0.0;
  /// Simulated wall-clock of the whole run (seconds; 0 under the
  /// passthrough runtime's zero-latency links).
  double total_sim_time_s = 0.0;
  double total_retransmit_bytes = 0.0;
  std::vector<FlRoundStats> rounds;
  /// Final first-layer cluster assignment per client.
  std::vector<int> client_cluster;
  /// Async policies: histogram of per-update staleness over the whole run.
  /// Bucket i counts updates applied with staleness i; the last bucket
  /// absorbs the overflow. Empty under the round-based policies.
  std::vector<uint64_t> staleness_hist;

  std::string Summary() const;
};

}  // namespace fexiot
