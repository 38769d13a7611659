#include "federated/fl_simulator.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ml/kmeans.h"
#include "ml/metrics.h"
#include "runtime/message.h"
#include "runtime/topology.h"
#include "tensor/ops.h"

namespace fexiot {

namespace {

/// A bisection is committed only when the mean within-half cosine
/// similarity exceeds the mean cross-half similarity by this margin
/// (guards against splitting on label-skew noise).
constexpr double kSplitQualityMargin = 0.05;

/// Cosine-similarity matrix over per-client vectors, with each vector's
/// norm computed once instead of once per pair.
Matrix SimilarityMatrix(const std::vector<std::vector<double>>& v) {
  std::vector<double> norm(v.size());
  for (size_t i = 0; i < v.size(); ++i) norm[i] = VectorNorm(v[i]);
  Matrix m(v.size(), v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    m.At(i, i) = 1.0;
    for (size_t j = i + 1; j < v.size(); ++j) {
      const double s = CosineSimilarity(v[i], v[j], norm[i], norm[j]);
      m.At(i, j) = s;
      m.At(j, i) = s;
    }
  }
  return m;
}

}  // namespace

FederatedSimulator::FederatedSimulator(GnnConfig model_config,
                                       FlConfig fl_config)
    : model_config_(model_config),
      fl_config_(fl_config),
      rng_(fl_config.seed),
      pool_(std::make_unique<ThreadPool>(
          static_cast<size_t>(std::max(0, fl_config.threads)))) {}

Status FederatedSimulator::SetupClients(
    const GraphDataset& data, const ClientPartition& part,
    const std::vector<GraphDataset>& cluster_tests) {
  clients_.clear();
  client_weight_.clear();
  FEXIOT_RETURN_NOT_OK(ValidateGnnConfig(model_config_));
  if (cluster_tests.empty()) {
    return Status::InvalidArgument("SetupClients: no cluster test pool");
  }
  if (!part.client_cluster.empty() &&
      part.client_cluster.size() < part.indices.size()) {
    return Status::InvalidArgument(
        "SetupClients: client_cluster is shorter than the partition");
  }
  size_t total = 0;
  for (const auto& shard : part.indices) {
    for (size_t i : shard) {
      if (i >= data.size()) {
        return Status::InvalidArgument(
            "SetupClients: shard index past the end of the dataset");
      }
    }
    total += shard.size();
  }
  if (total == 0) {
    return Status::InvalidArgument("SetupClients: the shards hold no graph");
  }
  // Each cluster's test pool is prepared once and shared by its clients.
  std::vector<std::shared_ptr<const std::vector<PreparedGraph>>> test_pools(
      cluster_tests.size());
  for (size_t c = 0; c < part.indices.size(); ++c) {
    std::vector<InteractionGraph> train_graphs;
    for (size_t i : part.indices[c]) train_graphs.push_back(data.graph(i));
    const int cluster =
        part.client_cluster.empty() ? 0 : part.client_cluster[c];
    const size_t k = static_cast<size_t>(cluster) % cluster_tests.size();
    if (test_pools[k] == nullptr) {
      test_pools[k] = std::make_shared<const std::vector<PreparedGraph>>(
          PrepareDataset(cluster_tests[k], model_config_));
    }
    clients_.push_back(std::make_unique<FlClient>(
        static_cast<int>(c), model_config_, fl_config_.local,
        PrepareGraphs(train_graphs, model_config_), test_pools[k],
        rng_.Fork()));
    client_weight_.push_back(static_cast<double>(part.indices[c].size()) /
                             static_cast<double>(total));
  }
  return Status::OK();
}

double FederatedSimulator::AggScale(int c) const {
  const auto it = agg_scale_.find(c);
  return it == agg_scale_.end() ? 1.0 : it->second;
}

const std::vector<double>& FederatedSimulator::ThroughWire(
    int c, const std::vector<double>& raw,
    std::vector<double>* scratch) const {
  const WireCodec codec = codec_of_[static_cast<size_t>(c)];
  if (codec == WireCodec::kFp64) return raw;
  *scratch = raw;
  CodecRoundTrip(codec, scratch);
  return *scratch;
}

void FederatedSimulator::AverageLayer(int layer,
                                      const std::vector<int>& group) {
  double weight_sum = 0.0;
  for (int c : group) {
    weight_sum += client_weight_[static_cast<size_t>(c)] * AggScale(c);
  }
  if (weight_sum <= 0.0) return;
  StreamingAccumulator avg;
  std::vector<double> scratch;
  for (int c : group) {
    // The server accumulates what arrived over the uplink: the client's
    // weights as seen through its codec (fp64: the weights themselves).
    const std::vector<double> local =
        clients_[static_cast<size_t>(c)]->LayerWeights(layer);
    avg.Add(client_weight_[static_cast<size_t>(c)] * AggScale(c) / weight_sum,
            ThroughWire(c, local, &scratch));
  }
  InstallLayer(layer, avg.weighted_sum(), group);
}

void FederatedSimulator::InstallLayer(int layer,
                                      const std::vector<double>& weights,
                                      const std::vector<int>& clients) {
  // The encoding depends on nothing but the codec and the weights, so
  // each codec among the clients encodes once.
  std::vector<double> encoded[kNumWireCodecs];
  for (int c : clients) {
    const WireCodec codec = codec_of_[static_cast<size_t>(c)];
    std::vector<double>& install = encoded[static_cast<int>(codec)];
    if (codec != WireCodec::kFp64 && install.empty()) {
      install = CodecRoundTripped(codec, weights);
    }
    clients_[static_cast<size_t>(c)]->SetLayerWeights(
        layer, codec == WireCodec::kFp64 ? weights : install);
  }
}

void FederatedSimulator::AsyncFedAvgRound(const RoundOutcome& outcome) {
  const RuntimeConfig& rc = fl_config_.runtime;
  const int num_layers = clients_.front()->num_layers();
  std::vector<double> scratch;
  if (rc.policy == RoundPolicy::kAsync) {
    // Immediate per-update mixing in the runtime's application order.
    for (const UpdateApplication& u : outcome.applied) {
      const double a = StalenessWeight(rc.async_alpha0,
                                       rc.async_staleness_exponent,
                                       u.staleness);
      for (int l = 0; l < num_layers; ++l) {
        const std::vector<double> local =
            clients_[static_cast<size_t>(u.client)]->LayerWeights(l);
        const std::vector<double>& w = ThroughWire(u.client, local, &scratch);
        auto& g = async_global_[static_cast<size_t>(l)];
        for (size_t i = 0; i < g.size(); ++i) {
          g[i] = (1.0 - a) * g[i] + a * w[i];
        }
      }
    }
  } else {
    // Semi-async: each flushed tier is one client-weighted mini-batch;
    // the runtime appends whole tiers, so equal (tier, staleness) runs
    // are consecutive in the application order.
    size_t i = 0;
    while (i < outcome.applied.size()) {
      size_t j = i;
      while (j < outcome.applied.size() &&
             outcome.applied[j].tier == outcome.applied[i].tier &&
             outcome.applied[j].staleness == outcome.applied[i].staleness) {
        ++j;
      }
      double wsum = 0.0;
      for (size_t k = i; k < j; ++k) {
        wsum += client_weight_[static_cast<size_t>(outcome.applied[k].client)];
      }
      const double a = StalenessWeight(rc.async_alpha0,
                                       rc.async_staleness_exponent,
                                       outcome.applied[i].staleness);
      for (int l = 0; l < num_layers; ++l) {
        StreamingAccumulator batch;
        for (size_t k = i; k < j; ++k) {
          const int c = outcome.applied[k].client;
          const std::vector<double> local =
              clients_[static_cast<size_t>(c)]->LayerWeights(l);
          batch.Add(client_weight_[static_cast<size_t>(c)] / wsum,
                    ThroughWire(c, local, &scratch));
        }
        const std::vector<double>& avg = batch.weighted_sum();
        auto& g = async_global_[static_cast<size_t>(l)];
        for (size_t x = 0; x < g.size(); ++x) {
          g[x] = (1.0 - a) * g[x] + a * avg[x];
        }
      }
      i = j;
    }
  }
  // The delivered clients sync to the new global (the others keep their
  // local replica until they next deliver, as in FedAsync).
  for (int l = 0; l < num_layers; ++l) {
    InstallLayer(l, async_global_[static_cast<size_t>(l)], outcome.delivered);
  }
}

std::vector<int> FederatedSimulator::FilterDelivered(
    const std::vector<int>& group, const std::vector<int>& delivered) const {
  std::vector<int> active;
  active.reserve(group.size());
  for (int c : group) {
    if (std::binary_search(delivered.begin(), delivered.end(), c)) {
      active.push_back(c);
    }
  }
  return active;
}

std::vector<int> FederatedSimulator::FexiotSchedule() {
  ++fexiot_round_counter_;
  std::vector<int> layers;
  const int unlocked =
      std::min(unlocked_layers_, clients_.front()->num_layers());
  for (int l = 0; l < unlocked; ++l) {
    // Stable layers sync lazily: once a layer's partition has been
    // unchanged for >= 3 rounds, it is exchanged only every other round.
    int& stable = layer_stable_rounds_[static_cast<size_t>(l)];
    if (stable >= 3 && fexiot_round_counter_ % 2 == 1) {
      ++stable;
    } else {
      layers.push_back(l);
    }
  }
  return layers;
}

std::vector<double> FederatedSimulator::RoundWireBytesPerClient(
    const std::vector<int>& layers) const {
  // One message per exchanged layer; the encoded size is shared by every
  // client negotiating the same codec.
  const FlClient& c0 = *clients_.front();
  double by_codec[kNumWireCodecs] = {};
  for (int k = 0; k < kNumWireCodecs; ++k) {
    for (int l : layers) {
      by_codec[k] += static_cast<double>(MessageWireBytes(
          c0.LayerBytes(l) / sizeof(double), static_cast<WireCodec>(k)));
    }
  }
  std::vector<double> bytes(clients_.size());
  for (size_t c = 0; c < clients_.size(); ++c) {
    bytes[c] = by_codec[static_cast<int>(codec_of_[c])];
  }
  return bytes;
}

std::vector<double> FederatedSimulator::ConcatAllDeltas(int client) const {
  std::vector<double> out, scratch;
  const auto& cl = clients_[static_cast<size_t>(client)];
  for (int l = 0; l < cl->num_layers(); ++l) {
    const std::vector<double>& d =
        ThroughWire(client, cl->LayerDelta(l), &scratch);
    out.insert(out.end(), d.begin(), d.end());
  }
  return out;
}

std::vector<int> FederatedSimulator::GateAndBisect(
    const std::vector<int>& group, const std::vector<int>& active,
    const std::function<const Vectors&()>& observe_updates,
    const std::function<Vectors()>& observe_signals, Matrix* sim) const {
  // Splits wait until the whole group delivered fresh updates: bisecting
  // on a partial view would assign absent members by stale information
  // (and could duplicate them across halves).
  if (active.size() != group.size() ||
      static_cast<int>(group.size()) < fl_config_.min_cluster_size) {
    return {};
  }
  const Vectors& updates = observe_updates();
  double weight_sum = 0.0;
  for (int c : active) weight_sum += client_weight_[static_cast<size_t>(c)];
  StreamingAccumulator mean;
  double max_norm = 0.0;
  for (size_t i = 0; i < active.size(); ++i) {
    mean.Add(client_weight_[static_cast<size_t>(active[i])] / weight_sum,
             updates[i]);
    max_norm = std::max(max_norm, VectorNorm(updates[i]));
  }
  if (!(VectorNorm(mean.weighted_sum()) < fl_config_.epsilon1 &&
        max_norm > fl_config_.epsilon2)) {
    return {};
  }
  // GCFL+ sequences can have different lengths early on; pad.
  Vectors signals = observe_signals();
  size_t max_len = 0;
  for (const auto& s : signals) max_len = std::max(max_len, s.size());
  for (auto& s : signals) s.resize(max_len, 0.0);
  *sim = SimilarityMatrix(signals);
  std::vector<int> split = BinaryClusterSimilarity(*sim);
  const auto n0 = std::count(split.begin(), split.end(), 0);
  if (n0 == 0 || n0 == static_cast<std::ptrdiff_t>(split.size())) return {};
  return split;
}

bool FederatedSimulator::FexiotRound(const std::vector<int>& layers,
                                     const std::vector<int>& delivered) {
  const int num_layers = clients_.front()->num_layers();
  bool split_happened = false;
  for (int l : layers) {
    bool layer_changed = false;
    // Work on a copy: splits replace groups in this and deeper layers.
    const std::vector<std::vector<int>> groups =
        fexiot_partition_[static_cast<size_t>(l)];
    for (const auto& group : groups) {
      // Only clients whose updates the runtime delivered contribute to
      // (and receive) this round's aggregate; absent members keep their
      // local weights and re-sync when they next deliver.
      const std::vector<int> active = FilterDelivered(group, delivered);
      if (active.empty()) continue;
      AverageLayer(l, active);

      // Gate of Eq. 3 on this layer's deltas within the delivered part of
      // the group. The server observes every clustering signal through the
      // member's uplink codec (fp64: the delta itself).
      // Lines 13-16: bisect by cosine similarity of the layer's local
      // updates. (The pseudocode writes similarity over W^l; all group
      // members share the aggregated W^l, so the informative signal is
      // the local update DeltaW^l, as in Sattler et al.) The gate asks for
      // the deltas only once the whole group delivered, and for the drift
      // signals only once it opens.
      Vectors deltas;
      Matrix sim;
      const std::vector<int> split = GateAndBisect(
          group, active,
          [&]() -> const Vectors& {
            for (int c : active) {
              deltas.push_back(CodecRoundTripped(
                  codec_of_[static_cast<size_t>(c)],
                  clients_[static_cast<size_t>(c)]->LayerDelta(l)));
            }
            return deltas;
          },
          [&] {
            // Cluster on the stable cross-round drift direction.
            Vectors drift;
            for (int c : active) {
              drift.push_back(CodecRoundTripped(
                  codec_of_[static_cast<size_t>(c)],
                  clients_[static_cast<size_t>(c)]->LayerDeltaEma(l)));
            }
            return drift;
          },
          &sim);
      if (split.empty()) continue;
      // Split-quality check: only commit the bisection when real cluster
      // structure exists — the mean within-half similarity must clearly
      // exceed the mean cross-half similarity. Label-skew noise alone
      // fails this and the group stays whole.
      double within = 0.0, cross = 0.0;
      int n_within = 0, n_cross = 0;
      for (size_t i = 0; i < group.size(); ++i) {
        for (size_t j = i + 1; j < group.size(); ++j) {
          if (split[i] == split[j]) {
            within += sim.At(i, j);
            ++n_within;
          } else {
            cross += sim.At(i, j);
            ++n_cross;
          }
        }
      }
      if (n_within == 0 || n_cross == 0) continue;
      if (within / n_within - cross / n_cross < kSplitQualityMargin) continue;
      std::vector<int> g0;
      for (size_t i = 0; i < group.size(); ++i) {
        if (split[i] == 0) g0.push_back(group[i]);
      }
      split_happened = true;
      layer_changed = true;
      // The split permanently refines this layer and all deeper layers.
      // Deeper partitions refine shallower ones, so every group there lies
      // inside the split group or outside it: cut it along the halves, or
      // keep it whole when the cut leaves one side empty.
      for (int l2 = l; l2 < num_layers; ++l2) {
        auto& part = fexiot_partition_[static_cast<size_t>(l2)];
        std::vector<std::vector<int>> next;
        for (const auto& existing : part) {
          std::vector<int> h0, h1;
          for (int c : existing) {
            (std::find(g0.begin(), g0.end(), c) != g0.end() ? h0 : h1)
                .push_back(c);
          }
          if (h0.empty() || h1.empty()) {
            next.push_back(existing);
          } else {
            next.push_back(std::move(h0));
            next.push_back(std::move(h1));
          }
        }
        part = std::move(next);
        if (l2 > l) layer_stable_rounds_[static_cast<size_t>(l2)] = 0;
      }
    }
    layer_stable_rounds_[static_cast<size_t>(l)] =
        layer_changed ? 0 : layer_stable_rounds_[static_cast<size_t>(l)] + 1;
  }
  return split_happened;
}

void FederatedSimulator::ClusteredWholeModelRound(
    FlAlgorithm algorithm, const std::vector<int>& delivered) {
  std::vector<std::vector<int>> next_clusters;
  for (const auto& cluster : whole_model_clusters_) {
    const std::vector<int> active = FilterDelivered(cluster, delivered);
    std::vector<int> split;
    if (!active.empty()) {
      // Whole model exchanged by every delivered cluster member.
      for (int l = 0; l < clients_.front()->num_layers(); ++l) {
        AverageLayer(l, active);
      }
      // Split test (Eq. 3 over whole-model deltas of delivered members).
      std::vector<std::vector<double>> deltas, sequences;
      for (int c : active) {
        deltas.push_back(ConcatAllDeltas(c));
        if (algorithm != FlAlgorithm::kGcfl) continue;
        // GCFL+: similarity over the recent gradient *sequence*.
        auto& seq = gradient_sequences_[static_cast<size_t>(c)];
        seq.push_back(deltas.back());
        if (seq.size() > 3) seq.pop_front();
        std::vector<double> concat;
        for (const auto& past : seq) {
          concat.insert(concat.end(), past.begin(), past.end());
        }
        sequences.push_back(std::move(concat));
      }
      Matrix sim;
      split = GateAndBisect(
          cluster, active, [&]() -> const Vectors& { return deltas; },
          [&] {
            return algorithm == FlAlgorithm::kGcfl ? std::move(sequences)
                                                   : deltas;
          },
          &sim);
    }
    if (split.empty()) {
      next_clusters.push_back(cluster);
      continue;
    }
    std::vector<int> g0, g1;
    for (size_t i = 0; i < cluster.size(); ++i) {
      (split[i] == 0 ? g0 : g1).push_back(cluster[i]);
    }
    next_clusters.push_back(std::move(g0));
    next_clusters.push_back(std::move(g1));
  }
  whole_model_clusters_ = std::move(next_clusters);
}

Result<FlResult> FederatedSimulator::Run(FlAlgorithm algorithm) {
  FEXIOT_RETURN_NOT_OK(ValidateFlConfig(fl_config_));
  if (clients_.empty()) {
    return Status::FailedPrecondition(
        "FederatedSimulator::Run called before SetupClients");
  }
  FlResult result;
  const int num_layers = clients_.front()->num_layers();
  // Every strategy starts from one cluster holding the whole federation.
  std::vector<int> all(clients_.size());
  std::iota(all.begin(), all.end(), 0);
  whole_model_clusters_ = {all};
  gradient_sequences_.assign(clients_.size(), {});
  fexiot_partition_.assign(static_cast<size_t>(num_layers), {all});
  layer_stable_rounds_.assign(static_cast<size_t>(num_layers), 0);
  unlocked_layers_ = 1;
  fexiot_round_counter_ = 0;
  const std::vector<std::vector<int>>& clusters =
      algorithm == FlAlgorithm::kFexiot ? fexiot_partition_.back()
                                        : whole_model_clusters_;
  std::vector<int> all_layers(static_cast<size_t>(num_layers));
  std::iota(all_layers.begin(), all_layers.end(), 0);

  runtime_ = std::make_unique<FederatedRuntime>(
      fl_config_.runtime, static_cast<int>(clients_.size()));

  const RuntimeConfig& rc = fl_config_.runtime;
  // Codec negotiation: the configured default, then per-client overrides.
  codec_of_.assign(clients_.size(), rc.wire_codec);
  const size_t n_over = std::min(codec_of_.size(), rc.client_codecs.size());
  for (size_t c = 0; c < n_over; ++c) codec_of_[c] = rc.client_codecs[c];
  const bool async_policy = rc.policy == RoundPolicy::kAsync ||
                            rc.policy == RoundPolicy::kSemiAsync;
  agg_scale_.clear();
  async_global_.clear();
  if (async_policy && algorithm == FlAlgorithm::kFedAvg) {
    // Snapshot the server model before any local training: all clients
    // still hold the shared initial weights (weighted average == each).
    for (int l = 0; l < num_layers; ++l) {
      StreamingAccumulator global;
      for (size_t c = 0; c < clients_.size(); ++c) {
        global.Add(client_weight_[c], clients_[c]->LayerWeights(l));
      }
      async_global_.push_back(global.weighted_sum());
    }
  }
  constexpr size_t kStalenessBuckets = 16;
  if (async_policy) {
    result.staleness_hist.assign(kStalenessBuckets, 0);
  }

  // Compute model: nominal local-training seconds per client (scaled by
  // the straggler profile inside the runtime).
  std::vector<double> train_seconds(clients_.size(), 0.0);
  for (size_t c = 0; c < clients_.size(); ++c) {
    train_seconds[c] = fl_config_.runtime.train_seconds_per_graph *
                       static_cast<double>(clients_[c]->num_train_graphs()) *
                       static_cast<double>(fl_config_.local.epochs);
  }

  for (int round = 0; round < fl_config_.num_rounds; ++round) {
    // 1. Discrete-event round: selection, faults, wire-priced transfers.
    // Broadcast and update carry the same layers, so each client's
    // downlink message prices like its uplink one.
    const std::vector<int> layers =
        algorithm == FlAlgorithm::kFexiot      ? FexiotSchedule()
        : algorithm == FlAlgorithm::kLocalOnly ? std::vector<int>{}
                                               : all_layers;
    const std::vector<double> wire_bytes = RoundWireBytesPerClient(layers);
    const RoundOutcome outcome =
        runtime_->ExecuteRound(round, wire_bytes, wire_bytes, train_seconds);
    // Async policies: staleness-decayed per-client aggregation scales for
    // the group-averaging algorithms (kFedAvg mixes sequentially instead).
    // Sparse on the applied updates: absent clients read as 1.0.
    agg_scale_.clear();
    if (async_policy) {
      for (const UpdateApplication& u : outcome.applied) {
        agg_scale_[u.client] = StalenessWeight(
            rc.async_alpha0, rc.async_staleness_exponent, u.staleness);
      }
    }

    // 2. Parallel local training of this round's participants. Losses are
    // indexed by participant slot, not client id: the scratch is sized by
    // who trains this round, never by the federation.
    const std::vector<int>& participants = outcome.participants;
    std::vector<double> losses(participants.size(), 0.0);
    pool_->ParallelFor(participants.size(), [&](size_t i) {
      losses[i] = clients_[static_cast<size_t>(participants[i])]->LocalTrain();
    });

    // 3. Aggregation over the updates the runtime delivered.
    switch (algorithm) {
      case FlAlgorithm::kLocalOnly:
        break;
      case FlAlgorithm::kFedAvg:
        if (async_policy) {
          AsyncFedAvgRound(outcome);
        } else {
          for (int l : layers) AverageLayer(l, outcome.delivered);
        }
        break;
      case FlAlgorithm::kFmtl:
      case FlAlgorithm::kGcfl:
        ClusteredWholeModelRound(algorithm, outcome.delivered);
        break;
      case FlAlgorithm::kFexiot: {
        const bool split = FexiotRound(layers, outcome.delivered);
        // Progressive unlock: once the current layers' clustering is
        // stable (no split this round), start exchanging the next layer.
        if (!split && unlocked_layers_ < num_layers) ++unlocked_layers_;
        break;
      }
    }
    result.total_retransmit_bytes += outcome.retransmit_bytes;
    result.total_uplink_wire_bytes += outcome.uplink_wire_bytes;
    result.total_downlink_wire_bytes += outcome.downlink_wire_bytes;

    FlRoundStats stats;
    stats.round = round;
    double loss_sum = 0.0;
    for (double loss : losses) loss_sum += loss;
    stats.mean_local_loss =
        participants.empty()
            ? 0.0
            : loss_sum / static_cast<double>(participants.size());
    stats.num_clusters = static_cast<int>(clusters.size());
    stats.participants = static_cast<int>(participants.size());
    stats.delivered = static_cast<int>(outcome.delivered.size());
    stats.sim_time_s = outcome.end_time_s;
    stats.retransmit_bytes = result.total_retransmit_bytes;
    stats.hop_comm_bytes = outcome.hop_bytes;
    stats.aggregator_crashes = outcome.aggregator_crashes;
    stats.subtree_lost_updates = outcome.subtree_lost_updates;
    stats.uplink_wire_bytes = result.total_uplink_wire_bytes;
    stats.downlink_wire_bytes = result.total_downlink_wire_bytes;
    if (async_policy && !outcome.applied.empty()) {
      double staleness_sum = 0.0;
      for (const UpdateApplication& u : outcome.applied) {
        staleness_sum += static_cast<double>(u.staleness);
        const size_t bucket =
            std::min(static_cast<size_t>(u.staleness), kStalenessBuckets - 1);
        ++result.staleness_hist[bucket];
      }
      stats.mean_staleness =
          staleness_sum / static_cast<double>(outcome.applied.size());
    }
    if (fl_config_.eval_each_round) {
      std::vector<double> accs(clients_.size(), 0.0);
      pool_->ParallelFor(clients_.size(), [&](size_t c) {
        accs[c] = clients_[c]->EvaluateLocal().accuracy;
      });
      double acc_sum = 0.0;
      for (double a : accs) acc_sum += a;
      stats.mean_accuracy = acc_sum / static_cast<double>(clients_.size());
    }
    result.rounds.push_back(stats);
  }

  // Final evaluation (parallel across clients).
  result.client_metrics.resize(clients_.size());
  pool_->ParallelFor(clients_.size(), [&](size_t c) {
    result.client_metrics[c] = clients_[c]->EvaluateLocal();
  });

  std::vector<double> accs;
  for (const auto& m : result.client_metrics) {
    result.mean.accuracy += m.accuracy;
    result.mean.precision += m.precision;
    result.mean.recall += m.recall;
    result.mean.f1 += m.f1;
    accs.push_back(m.accuracy);
  }
  const double n = static_cast<double>(clients_.size());
  result.mean.accuracy /= n;
  result.mean.precision /= n;
  result.mean.recall /= n;
  result.mean.f1 /= n;
  result.accuracy_std = ComputeMeanStd(accs).stddev;
  result.total_sim_time_s = runtime_->now();

  // Final cluster assignment per client (bottom layer).
  result.client_cluster.assign(clients_.size(), 0);
  for (size_t k = 0; k < clusters.size(); ++k) {
    for (int c : clusters[k]) {
      result.client_cluster[static_cast<size_t>(c)] = static_cast<int>(k);
    }
  }
  return result;
}

}  // namespace fexiot
