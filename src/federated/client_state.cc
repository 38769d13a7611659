#include "federated/client_state.h"

#include <algorithm>
#include <utility>

namespace fexiot {

namespace {

// Suffix split: the leading fraction of an n-graph shard trains, the rest
// is the local test pool; when that leaves the test side empty, one
// training graph moves over.
int TrainSplit(int n, double local_train_fraction) {
  const int n_train =
      std::min(std::max(1, static_cast<int>(local_train_fraction * n)), n);
  return n_train == n && n_train > 1 ? n_train - 1 : n_train;
}

}  // namespace

int LocalTrainGraphs(const LazyClientSpec& spec) {
  return TrainSplit(spec.graphs_per_client, spec.local_train_fraction);
}

ClientStateStore::ClientStateStore(const LazyClientSpec& spec,
                                   uint64_t num_clients, bool eager)
    : spec_(spec), num_clients_(num_clients), eager_(eager) {
  if (eager_) {
    eager_shards_.resize(num_clients_);
    for (uint64_t c = 0; c < num_clients_; ++c) {
      eager_shards_[c] = MaterializeClientShard(
          spec_.corpus, spec_.corpus_seed, c, spec_.graphs_per_client,
          spec_.num_clusters, spec_.profile_strength);
    }
  }
}

std::vector<InteractionGraph> ClientStateStore::ShardFor(
    uint64_t client) const {
  if (eager_) return eager_shards_[client];
  return MaterializeClientShard(spec_.corpus, spec_.corpus_seed, client,
                                spec_.graphs_per_client, spec_.num_clusters,
                                spec_.profile_strength);
}

std::unique_ptr<MaterializedClient> ClientStateStore::Acquire(
    uint64_t client, const std::vector<std::vector<double>>* global) {
  const std::vector<InteractionGraph> shard = ShardFor(client);
  auto state = std::make_unique<MaterializedClient>(spec_.model);
  state->id = client;
  state->shard_fingerprint = CorpusContentFingerprint(shard);

  const int n_train =
      TrainSplit(static_cast<int>(shard.size()), spec_.local_train_fraction);
  const std::vector<InteractionGraph> train(shard.begin(),
                                            shard.begin() + n_train);
  const std::vector<InteractionGraph> test(shard.begin() + n_train,
                                           shard.end());
  state->train_graphs = PrepareGraphs(train, spec_.model);
  state->test_graphs = PrepareGraphs(test, spec_.model);

  if (global != nullptr) {
    for (int l = 0; l < state->model.num_layers(); ++l) {
      state->model.SetLayerFlat(l, (*global)[static_cast<size_t>(l)]);
    }
  }

  materializations_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t now_live = live_.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t peak = peak_live_.load(std::memory_order_relaxed);
  while (now_live > peak &&
         !peak_live_.compare_exchange_weak(peak, now_live,
                                           std::memory_order_relaxed)) {
  }
  return state;
}

void ClientStateStore::Release(std::unique_ptr<MaterializedClient> client) {
  if (client == nullptr) return;
  live_.fetch_sub(1, std::memory_order_relaxed);
  client.reset();  // state freed here: peak memory tracks in-flight clients
}

uint64_t ClientStateStore::ShardFingerprint(uint64_t client) const {
  return CorpusContentFingerprint(ShardFor(client));
}

}  // namespace fexiot
