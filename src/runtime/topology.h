#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "runtime/network_model.h"

namespace fexiot {

/// \brief Hierarchical aggregation topology: clients report to edge
/// aggregators, edges to regional aggregators, regionals to the root
/// server (the FL-testbed shape). Each interior hop is priced by its own
/// link model, and every tier aggregates with a streaming weighted-sum
/// accumulator, so no tier ever holds more than its fan-out's deltas.
///
/// The default (edge_fanout == 0) is the degenerate fan-out=all, depth-1
/// flat topology: clients upload straight to the root and the runtime
/// behaves bit-identically to the pre-tree code path.
struct TreeTopologyConfig {
  /// Clients per edge aggregator; 0 disables the tree (flat topology).
  int edge_fanout = 0;
  /// Edge aggregators per regional aggregator; 0 = edges forward straight
  /// to the root (depth 2), > 0 adds the regional tier (depth 3).
  int regional_fanout = 0;
  /// Interior links: edge->parent and regional->root. Reliable backbone
  /// (no per-transfer loss draw — interior failure is modeled by
  /// aggregator crashes instead) but priced for latency/bandwidth/jitter.
  LinkModel edge_up;
  LinkModel regional_up;
  /// Per-round aggregator crash probability. Draws are counter-based
  /// (pure function of (seed, round, tier, node)); a crashed aggregator
  /// drops its whole subtree's updates for that round.
  double aggregator_crash_prob = 0.0;
  /// Rounds a crashed aggregator stays offline before rejoining.
  int aggregator_rejoin_rounds = 1;
};

/// \brief Rejects out-of-range topology knobs with a descriptive Status.
Status ValidateTreeTopology(const TreeTopologyConfig& config);

/// \brief Running (sum w_i * x_i, sum w_i) weighted-sum accumulator with a
/// fixed reduction order.
///
/// Add performs exactly one multiply-add per element. It is the one
/// weighted-sum kernel of the federated code: FederatedSimulator's
/// AverageLayer feeds it pre-normalized weights (w_c * scale_c /
/// weight_sum, with weight_sum accumulated over the same clients in the
/// same ascending order) in ascending client order, and any other caller
/// doing the same reproduces that result bit-exactly (pinned by
/// test_scale). Merge folds a child tier's partial
/// sums in; merging reassociates the floating-point sum, so deep trees
/// are near-equal rather than bit-equal to the flat reduction
/// (DESIGN.md 5.10).
class StreamingAccumulator {
 public:
  /// sum[i] += weight * x[i]; the first call sizes the accumulator.
  void Add(double weight, const std::vector<double>& x);
  /// Element-wise fold of another accumulator (tier merge).
  void Merge(const StreamingAccumulator& other);

  bool empty() const { return count_ == 0; }
  uint64_t count() const { return count_; }
  double weight_sum() const { return weight_sum_; }
  const std::vector<double>& weighted_sum() const { return sum_; }

  /// Finalized weighted mean: weighted_sum / weight_sum. Mirrors
  /// AverageLayer's guards: empty when nothing was accumulated or the
  /// accumulated weight is <= 0 (the weight-zero degenerate case).
  std::vector<double> Mean() const;

 private:
  std::vector<double> sum_;
  double weight_sum_ = 0.0;
  uint64_t count_ = 0;
};

/// \brief One arrived client upload entering the tree (client ascending).
struct TreeArrival {
  int client = -1;
  /// Arrival time at the client's edge aggregator (the event-simulated
  /// uplink arrival).
  double edge_arrival_s = 0.0;
};

/// \brief Delivery outcome of routing one round's arrivals up the tree.
struct TreeDelivery {
  /// Clients whose updates reached the root (ascending). Deadline
  /// filtering is the caller's job (it owns the round policy).
  std::vector<int> delivered;
  /// Root arrival time per delivered client (parallel to delivered).
  std::vector<double> root_arrival_s;
  /// Per-hop uplink bytes, hop_bytes[t] = bytes crossing tier t's uplink
  /// (0: clients->edge, 1: edge->parent, 2: regional->root). Size equals
  /// the tree depth; hop 0 is filled by the caller, which knows every
  /// transmission attempt (including lost ones).
  std::vector<double> hop_bytes;
  int aggregator_crashes = 0;
  /// Arrived updates dropped because an aggregator on their path crashed.
  int subtree_lost = 0;
  /// Interior forwards sent (edge and regional aggregators).
  int forwards = 0;
};

/// \brief Deterministic aggregation tree: the runtime routes a round's
/// arrivals through it (Route), and a driver reduces the delivered updates
/// along the same edge/regional grouping (Accumulate).
///
/// Node mapping is static: client c reports to edge c / edge_fanout, edge
/// e to regional e / regional_fanout. An aggregator forwards once every
/// surviving upload of its subtree has arrived (lost uploads never hold a
/// forward open); the forward costs one aggregated message on the
/// interior link. All stochastic draws (crashes, interior jitter) are
/// counter-based, so routing is a pure function of (seed, round, inputs).
class AggregationTree {
 public:
  AggregationTree(const TreeTopologyConfig& config, uint64_t seed);

  bool enabled() const { return config_.edge_fanout > 0; }
  /// 1 = flat, 2 = edge->root, 3 = edge->regional->root.
  int depth() const;
  int EdgeOf(int client) const { return client / config_.edge_fanout; }
  int RegionalOf(int edge) const { return edge / config_.regional_fanout; }

  /// Whether aggregator \p node of \p tier (0 = edge, 1 = regional) is up
  /// in \p round. Pure: a crash draw at round r takes the node out for
  /// rounds [r, r + rejoin_rounds).
  bool AggregatorAlive(int round, int tier, int node) const;

  /// Routes the round's arrived uploads root-ward. \p agg_msg_bytes is
  /// the size of one aggregated interior message (the running-sum
  /// accumulator has the model's shape regardless of fan-in). Trace lines
  /// are appended to \p trace when non-null, in deterministic
  /// (tier, node) order.
  TreeDelivery Route(int round, const std::vector<TreeArrival>& arrivals,
                     double agg_msg_bytes,
                     std::vector<std::string>* trace) const;

  /// Streams updates up the tree tier by tier: \p add(i, acc) folds the
  /// update of \p clients[i] into its edge aggregator's accumulator, each
  /// finished edge merges into its regional aggregator (depth 3) or the
  /// root, each finished regional into the root. \p clients must be
  /// ascending, which makes every group a contiguous run, so only one
  /// accumulator per tier is live. Under the flat topology every update
  /// is added straight into the root in order. Returns the root.
  StreamingAccumulator Accumulate(
      const std::vector<int>& clients,
      const std::function<void(size_t, StreamingAccumulator*)>& add) const;

  const TreeTopologyConfig& config() const { return config_; }

 private:
  double InteriorTransferSeconds(int round, int tier, int node,
                                 double bytes) const;

  TreeTopologyConfig config_;
  Rng base_;
};

}  // namespace fexiot
