#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "federated/fl_client.h"
#include "graph/dataset.h"
#include "runtime/runtime.h"

namespace fexiot {

/// \brief In-process federated learning simulator.
///
/// Hosts n FlClients and a logical server, runs rounds of local training +
/// aggregation under one of five strategies, and accounts every byte
/// exchanged (Figure 7). The FexIoT strategy implements the paper's
/// Algorithm 1: bottom-up layer-wise recursive clustering with the
/// (epsilon1, epsilon2) stationarity/heterogeneity gate, progressive layer
/// unlocking ("at the initial stage only the first layer's parameters are
/// uploaded"), and per-cluster FedAvg.
///
/// Each strategy executes as a program on the discrete-event
/// FederatedRuntime (runtime/runtime.h): the runtime decides who
/// participates (crash/rejoin faults), prices the broadcast and every
/// upload through per-link network models from serialized wire-message
/// sizes, and applies the server round policy (synchronous / deadline /
/// timeout+retry). Aggregation is restricted to the updates the runtime
/// delivered. Under the default passthrough runtime (zero latency, no
/// faults, synchronous rounds) every client delivers instantly and the
/// results are bit-identical to the plain synchronous simulator
/// (DESIGN.md 5.7).
class FederatedSimulator {
 public:
  FederatedSimulator(GnnConfig model_config, FlConfig fl_config);

  /// \brief Builds clients whose entire shard is training data and whose
  /// evaluation set is the held-out pool of the client's latent cluster
  /// (the Section IV-C 80/20 protocol). Fails with InvalidArgument, and
  /// leaves no clients (so Run reports FailedPrecondition), when the
  /// GnnConfig fails ValidateGnnConfig, \p cluster_tests is empty,
  /// part.client_cluster is non-empty but
  /// shorter than part.indices, a shard index is past the end of \p data,
  /// or the shards hold no graph at all.
  Status SetupClients(const GraphDataset& data, const ClientPartition& part,
                      const std::vector<GraphDataset>& cluster_tests);

  /// \brief Runs \p algorithm for the configured rounds and evaluates.
  /// Fails with InvalidArgument when the FlConfig (or its runtime section)
  /// is out of range.
  Result<FlResult> Run(FlAlgorithm algorithm);

  size_t num_clients() const { return clients_.size(); }
  FlClient* client(size_t i) { return clients_[i].get(); }

  /// Event trace of the last Run (empty unless
  /// fl_config.runtime.record_trace).
  const std::vector<std::string>& runtime_trace() const {
    static const std::vector<std::string> kEmpty;
    return runtime_ ? runtime_->trace() : kEmpty;
  }

 private:
  /// Weighted FedAvg of one layer over a client group; installs result.
  /// Under the async runtime policies each client's weight is additionally
  /// scaled by its staleness decay alpha(s) (agg_scale_, 1.0 otherwise).
  void AverageLayer(int layer, const std::vector<int>& group);

  /// Downlink install of one layer: each of \p clients receives
  /// \p weights as encoded with its own codec (fp64: the weights
  /// themselves).
  void InstallLayer(int layer, const std::vector<double>& weights,
                    const std::vector<int>& clients);

  /// Async FedAvg: sequential server-side mixing in the runtime's
  /// deterministic application order. kAsync mixes every update
  /// immediately (global <- (1-alpha(s)) * global + alpha(s) * update);
  /// kSemiAsync mixes each flushed tier as a client-weighted mini-batch.
  /// Installs the resulting global to the delivered clients.
  void AsyncFedAvgRound(const RoundOutcome& outcome);

  /// What the server observes after \p raw crossed client \p c's uplink:
  /// \p raw itself under the fp64 passthrough (no copy), otherwise
  /// \p *scratch filled with the quantize-dequantize image of \p raw.
  const std::vector<double>& ThroughWire(int c, const std::vector<double>& raw,
                                         std::vector<double>* scratch) const;

  /// Members of \p group whose updates the runtime delivered this round.
  /// \p delivered is RoundOutcome::delivered (sorted ascending) — looked
  /// up by binary search, so no O(total-clients) mask is materialized.
  std::vector<int> FilterDelivered(const std::vector<int>& group,
                                   const std::vector<int>& delivered) const;

  /// Staleness decay alpha(s) of client \p c this round (async policies);
  /// 1.0 for every client the runtime applied no update for.
  double AggScale(int c) const;

  /// Parameter layers FexIoT exchanges this round: the unlocked layers
  /// minus the stable ones that sync lazily. Called once per round; it
  /// advances the round counter and the stable-round count of every
  /// layer it skips.
  std::vector<int> FexiotSchedule();

  /// Serialized wire bytes of one round's downlink broadcast / uplink
  /// update per client when \p layers are exchanged (prices the network
  /// model transfers). Indexed by client id: each client's messages are
  /// encoded with its own negotiated codec, so a mixed fleet prices
  /// unevenly.
  std::vector<double> RoundWireBytesPerClient(
      const std::vector<int>& layers) const;

  /// One FexIoT round (Algorithm 1 with a persistent layer-wise cluster
  /// tree): aggregates each of this round's \p layers within its current
  /// groups (restricted to delivered clients), evaluates the Eq. 3 gate
  /// per group, and permanently bisects a group when the gate fires and
  /// the halves are clearly separated — the split refines the partition
  /// of that layer and all deeper layers. Returns true if any split
  /// happened this round.
  bool FexiotRound(const std::vector<int>& layers,
                   const std::vector<int>& delivered);

  /// Whole-model clustered aggregation step used by FMTL / GCFL+.
  void ClusteredWholeModelRound(FlAlgorithm algorithm,
                                const std::vector<int>& delivered);

  using Vectors = std::vector<std::vector<double>>;

  /// Eq. 3 gate and cosine bisection (Algorithm 1 lines 13-16) of one
  /// group. \p observe_updates()[i] is what the server observed of
  /// active[i]'s update; \p observe_signals()[i] is what it clusters
  /// active[i] on (zero-padded to a common length). A group splits only
  /// when every member delivered, it holds at least min_cluster_size
  /// members, its weighted mean update is stationary (norm < epsilon1)
  /// while some member still moves (max norm > epsilon2), and neither
  /// half is empty. Each observation is requested at most once and only
  /// when needed: the updates once the group is whole and large enough,
  /// the signals once the gate opens. Returns the half (0/1) of each group
  /// member and fills \p sim with the signals' cosine similarities;
  /// returns empty when the group stays whole.
  std::vector<int> GateAndBisect(
      const std::vector<int>& group, const std::vector<int>& active,
      const std::function<const Vectors&()>& observe_updates,
      const std::function<Vectors()>& observe_signals, Matrix* sim) const;

  /// Server-side view of the client's whole-model delta: each layer
  /// crosses the wire on its own (quantization is per tensor).
  std::vector<double> ConcatAllDeltas(int client) const;

  GnnConfig model_config_;
  FlConfig fl_config_;
  Rng rng_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<FederatedRuntime> runtime_;
  std::vector<std::unique_ptr<FlClient>> clients_;
  std::vector<double> client_weight_;  // |G_c| / |G|
  // Negotiated per-client wire codec of the current Run: the configured
  // default, then the per-client overrides.
  std::vector<WireCodec> codec_of_;
  // Per-round staleness decay alpha(s), keyed by client id and sparse on
  // the clients an update was applied for (async policies); every absent
  // client scales by 1.0 via AggScale, so AverageLayer is unchanged and
  // the map stays O(applied updates), not O(total clients).
  std::unordered_map<int, double> agg_scale_;
  // Explicit server model for sequential async mixing (per layer).
  std::vector<std::vector<double>> async_global_;

  // FMTL / GCFL+ persistent cluster state.
  std::vector<std::vector<int>> whole_model_clusters_;
  // GCFL+ per-client gradient sequences (flattened deltas, truncated).
  std::vector<std::deque<std::vector<double>>> gradient_sequences_;
  // FexIoT persistent layer-wise cluster tree: fexiot_partition_[l] is the
  // client partition used when aggregating layer l (deeper layers refine
  // shallower ones). Progressive unlocking: only layers < unlocked_layers_
  // are exchanged, starting from the first layer (paper Section IV-C,
  // communication cost discussion).
  std::vector<std::vector<std::vector<int>>> fexiot_partition_;
  int unlocked_layers_ = 1;
  // Rounds since the partition of each layer last changed; stable layers
  // (>= 3 rounds unchanged) are exchanged only every other round — the
  // steady-state component of FexIoT's communication saving ("clients in
  // the same cluster share more layers").
  std::vector<int> layer_stable_rounds_;
  int fexiot_round_counter_ = 0;
};

}  // namespace fexiot
