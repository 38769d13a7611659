#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "gnn/gnn_model.h"
#include "gnn/trainer.h"
#include "graph/corpus.h"

namespace fexiot {

/// \brief Recipe for materializing any client's private state on demand.
///
/// A LazyClientSpec is the *entire* description of a (possibly
/// million-client) federation: no per-client vector anywhere. A client's
/// shard is a pure function of (corpus, corpus_seed, client_id) via
/// MaterializeClientShard, so state can be built while one of the
/// client's events is in flight and released afterwards, and
/// rematerialization is bit-identical for any participation schedule and
/// thread count.
struct LazyClientSpec {
  CorpusOptions corpus;
  uint64_t corpus_seed = 0xC0FFEEULL;
  /// Graphs per client shard (>= 2 so the train/test split is non-empty).
  int graphs_per_client = 6;
  /// Latent household clusters (device-profile covariate shift); client c
  /// belongs to cluster c % num_clusters. 0 or strength 0 disables it.
  int num_clusters = 1;
  double profile_strength = 0.0;
  /// Leading fraction of the shard used for local training; the rest is
  /// the local test split.
  double local_train_fraction = 0.8;
  /// Shared GNN architecture; every materialization starts from the same
  /// seeded initialization, so install-global + train is stateless FedAvg.
  GnnConfig model;
};

/// \brief Training graphs in every client's shard: the leading
/// local_train_fraction of graphs_per_client, always leaving at least one
/// test graph. Shards all have the same size, so a driver can price local
/// training without materializing anyone.
int LocalTrainGraphs(const LazyClientSpec& spec);

/// \brief One client's fully materialized state: prepared graph splits
/// plus a model replica, built by ClientStateStore::Acquire and handed
/// back via Release when the client's in-flight event completes.
struct MaterializedClient {
  explicit MaterializedClient(const GnnConfig& config) : model(config) {}

  uint64_t id = 0;
  std::vector<PreparedGraph> train_graphs;
  std::vector<PreparedGraph> test_graphs;
  GnnModel model;
  /// CorpusContentFingerprint of the raw shard this state was built from
  /// (rematerialization-identity probe).
  uint64_t shard_fingerprint = 0;
};

/// \brief On-demand client-state factory with peak-liveness accounting.
///
/// Lazy mode (the default) holds *nothing* per client: every Acquire
/// regenerates the shard from the spec's counter streams, prepares the
/// graph splits, and seeds a fresh model replica (optionally installing
/// the current global weights). Eager mode — the bit-identity baseline —
/// pre-materializes every raw shard up front and only re-prepares on
/// Acquire, so both modes return identical state.
///
/// Thread safety: Acquire/Release may be called concurrently for distinct
/// clients (the scale simulator's ParallelFor does exactly that); all
/// bookkeeping is atomic. Acquiring the same client twice concurrently is
/// allowed and yields two independent identical states.
class ClientStateStore {
 public:
  ClientStateStore(const LazyClientSpec& spec, uint64_t num_clients,
                   bool eager);

  /// \brief Materializes client \p client. When \p global is non-null its
  /// flat layers are installed into the replica (FedAvg broadcast).
  std::unique_ptr<MaterializedClient> Acquire(
      uint64_t client, const std::vector<std::vector<double>>* global);

  /// \brief Returns a client's state; its memory is freed here, so peak
  /// live state tracks in-flight clients, not the federation size.
  void Release(std::unique_ptr<MaterializedClient> client);

  /// Shard fingerprint of \p client (materializes transiently when lazy).
  uint64_t ShardFingerprint(uint64_t client) const;

  uint64_t num_clients() const { return num_clients_; }
  bool eager() const { return eager_; }

  /// Total Acquire calls served (lazy rematerialization count).
  uint64_t materializations() const { return materializations_.load(); }
  /// Currently acquired-but-unreleased clients.
  uint64_t live() const { return live_.load(); }
  /// High-water mark of live() — the O(active clients) memory witness.
  uint64_t peak_live() const { return peak_live_.load(); }

 private:
  std::vector<InteractionGraph> ShardFor(uint64_t client) const;

  LazyClientSpec spec_;
  uint64_t num_clients_;
  bool eager_;
  /// Eager mode only: raw shards, indexed by client.
  std::vector<std::vector<InteractionGraph>> eager_shards_;

  std::atomic<uint64_t> materializations_{0};
  std::atomic<uint64_t> live_{0};
  std::atomic<uint64_t> peak_live_{0};
};

}  // namespace fexiot
