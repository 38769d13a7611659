#include "federated/fl_simulator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "ml/kmeans.h"
#include "ml/metrics.h"
#include "runtime/message.h"
#include "tensor/ops.h"

namespace fexiot {

FederatedSimulator::FederatedSimulator(GnnConfig model_config,
                                       FlConfig fl_config)
    : model_config_(model_config),
      fl_config_(fl_config),
      rng_(fl_config.seed),
      pool_(std::make_unique<ThreadPool>(
          static_cast<size_t>(std::max(0, fl_config.threads)))) {}

void FederatedSimulator::SetupClients(
    const GraphDataset& data, const ClientPartition& part,
    const std::vector<GraphDataset>& cluster_tests) {
  clients_.clear();
  client_weight_.clear();
  size_t total = 0;
  for (const auto& shard : part.indices) total += shard.size();
  assert(total > 0);
  for (size_t c = 0; c < part.indices.size(); ++c) {
    std::vector<InteractionGraph> train_graphs;
    for (size_t i : part.indices[c]) train_graphs.push_back(data.graph(i));
    const int cluster =
        part.client_cluster.empty() ? 0 : part.client_cluster[c];
    const GraphDataset& test_pool =
        cluster_tests[static_cast<size_t>(cluster) % cluster_tests.size()];
    clients_.push_back(std::make_unique<FlClient>(
        static_cast<int>(c), model_config_, fl_config_.local,
        PrepareGraphs(train_graphs, model_config_),
        PrepareDataset(test_pool, model_config_), rng_.Fork()));
    client_weight_.push_back(static_cast<double>(part.indices[c].size()) /
                             static_cast<double>(total));
  }
  whole_model_clusters_.clear();
  gradient_sequences_.assign(clients_.size(), {});
  unlocked_layers_ = 1;
  fexiot_partition_.clear();
  agg_scale_.clear();
  codec_of_.clear();
  async_global_.clear();
}

void FederatedSimulator::SetupClients(const GraphDataset& data,
                                      const ClientPartition& part) {
  clients_.clear();
  client_weight_.clear();
  size_t total = 0;
  for (const auto& shard : part.indices) total += shard.size();
  assert(total > 0);

  for (size_t c = 0; c < part.indices.size(); ++c) {
    std::vector<size_t> shard = part.indices[c];
    rng_.Shuffle(&shard);
    const size_t n_train = std::max<size_t>(
        1, static_cast<size_t>(fl_config_.local_train_fraction *
                               static_cast<double>(shard.size())));
    std::vector<InteractionGraph> train_graphs, test_graphs;
    for (size_t i = 0; i < shard.size(); ++i) {
      (i < n_train ? train_graphs : test_graphs)
          .push_back(data.graph(shard[i]));
    }
    if (test_graphs.empty() && train_graphs.size() > 1) {
      test_graphs.push_back(train_graphs.back());
      train_graphs.pop_back();
    }
    clients_.push_back(std::make_unique<FlClient>(
        static_cast<int>(c), model_config_, fl_config_.local,
        PrepareGraphs(train_graphs, model_config_),
        PrepareGraphs(test_graphs, model_config_), rng_.Fork()));
    client_weight_.push_back(static_cast<double>(shard.size()) /
                             static_cast<double>(total));
  }
  whole_model_clusters_.clear();
  gradient_sequences_.assign(clients_.size(), {});
  unlocked_layers_ = 1;
  fexiot_partition_.clear();
  agg_scale_.clear();
  codec_of_.clear();
  async_global_.clear();
}

Matrix FederatedSimulator::SimilarityMatrix(
    const std::vector<std::vector<double>>& v) {
  Matrix m(v.size(), v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    m.At(i, i) = 1.0;
    for (size_t j = i + 1; j < v.size(); ++j) {
      const double s = CosineSimilarity(v[i], v[j]);
      m.At(i, j) = s;
      m.At(j, i) = s;
    }
  }
  return m;
}

double FederatedSimulator::AggScale(int c) const {
  const auto it = agg_scale_.find(c);
  return it == agg_scale_.end() ? 1.0 : it->second;
}

WireCodec FederatedSimulator::CodecOf(int c) const {
  return static_cast<size_t>(c) < codec_of_.size()
             ? codec_of_[static_cast<size_t>(c)]
             : WireCodec::kFp64;
}

const std::vector<double>& FederatedSimulator::ThroughWire(
    int c, const std::vector<double>& raw,
    std::vector<double>* scratch) const {
  const WireCodec codec = CodecOf(c);
  if (codec == WireCodec::kFp64) return raw;
  *scratch = raw;
  CodecRoundTrip(codec, scratch);
  return *scratch;
}

void FederatedSimulator::AverageLayer(int layer,
                                      const std::vector<int>& group) {
  if (group.empty()) return;
  double weight_sum = 0.0;
  for (int c : group) {
    weight_sum += client_weight_[static_cast<size_t>(c)] * AggScale(c);
  }
  if (weight_sum <= 0.0) return;
  std::vector<double> avg;
  std::vector<double> scratch;
  for (int c : group) {
    // The server accumulates what arrived over the uplink: the client's
    // weights as seen through its codec (fp64: the weights themselves).
    const std::vector<double> local =
        clients_[static_cast<size_t>(c)]->LayerWeights(layer);
    const std::vector<double>& w = ThroughWire(c, local, &scratch);
    const double wc =
        client_weight_[static_cast<size_t>(c)] * AggScale(c) / weight_sum;
    if (avg.empty()) avg.assign(w.size(), 0.0);
    for (size_t i = 0; i < w.size(); ++i) avg[i] += wc * w[i];
  }
  for (int c : group) {
    // The install crosses the downlink: each member receives the average
    // as encoded with its own codec.
    clients_[static_cast<size_t>(c)]->SetLayerWeights(
        layer, ThroughWire(c, avg, &scratch));
  }
}

void FederatedSimulator::EnsureAsyncGlobal() {
  if (!async_global_.empty()) return;
  const int num_layers = clients_.front()->num_layers();
  async_global_.resize(static_cast<size_t>(num_layers));
  for (int l = 0; l < num_layers; ++l) {
    auto& g = async_global_[static_cast<size_t>(l)];
    for (size_t c = 0; c < clients_.size(); ++c) {
      const std::vector<double> w = clients_[c]->LayerWeights(l);
      if (g.empty()) g.assign(w.size(), 0.0);
      for (size_t i = 0; i < w.size(); ++i) g[i] += client_weight_[c] * w[i];
    }
  }
}

void FederatedSimulator::AsyncFedAvgRound(const RoundOutcome& outcome,
                                          double* bytes) {
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
        auto& g = async_global_[static_cast<size_t>(l)];
        std::vector<double> avg(g.size(), 0.0);
        for (size_t k = i; k < j; ++k) {
          const size_t c = static_cast<size_t>(outcome.applied[k].client);
          const std::vector<double> local =
              clients_[c]->LayerWeights(static_cast<int>(l));
          const std::vector<double>& w =
              ThroughWire(static_cast<int>(c), local, &scratch);
          const double wc = client_weight_[c] / wsum;
          for (size_t x = 0; x < w.size(); ++x) avg[x] += wc * w[x];
        }
        for (size_t x = 0; x < g.size(); ++x) {
          g[x] = (1.0 - a) * g[x] + a * avg[x];
        }
      }
      i = j;
    }
  }
  // The delivered clients sync to the new global (the others keep their
  // local replica until they next deliver, as in FedAsync).
  for (int c : outcome.delivered) {
    for (int l = 0; l < num_layers; ++l) {
      clients_[static_cast<size_t>(c)]->SetLayerWeights(
          l, ThroughWire(c, async_global_[static_cast<size_t>(l)], &scratch));
    }
  }
  for (int l = 0; l < num_layers; ++l) {
    *bytes += LayerExchangeBytes(l, outcome.delivered);
  }
}

double FederatedSimulator::LayerExchangeBytes(
    int layer, const std::vector<int>& group) const {
  // Upload + download of the layer's payload lanes for each group member,
  // under the member's codec. The lane bytes exclude the u64 count prefix
  // so the fp64 default prices exactly LayerBytes(layer) per direction —
  // the historical accounting, bit for bit.
  const size_t n = clients_.front()->LayerBytes(layer) / sizeof(double);
  double bytes = 0.0;
  for (int c : group) {
    bytes += 2.0 * static_cast<double>(EncodedPayloadBytes(n, CodecOf(c)) -
                                       sizeof(uint64_t));
  }
  return bytes;
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

std::vector<int> FederatedSimulator::FexiotLayersThisRound() const {
  const int num_layers = clients_.front()->num_layers();
  const int exchanged = std::min(unlocked_layers_, num_layers);
  std::vector<int> layers;
  // FexiotRound increments the round counter before the lazy-sync check;
  // mirror the post-increment value it will see.
  const int counter = fexiot_round_counter_ + 1;
  for (int l = 0; l < exchanged; ++l) {
    const bool stable =
        static_cast<size_t>(l) < layer_stable_rounds_.size() &&
        layer_stable_rounds_[static_cast<size_t>(l)] >= 3;
    if (stable && counter % 2 == 1) continue;
    layers.push_back(l);
  }
  return layers;
}

std::vector<double> FederatedSimulator::RoundWireBytesPerClient(
    FlAlgorithm algorithm) const {
  std::vector<double> bytes(clients_.size(), 0.0);
  if (algorithm == FlAlgorithm::kLocalOnly) return bytes;
  const FlClient& c0 = *clients_.front();
  std::vector<int> layers;
  if (algorithm == FlAlgorithm::kFexiot) {
    layers = FexiotLayersThisRound();
  } else {
    for (int l = 0; l < c0.num_layers(); ++l) layers.push_back(l);
  }
  // One message per exchanged layer; the encoded size is shared by every
  // client negotiating the same codec.
  double by_codec[kNumWireCodecs] = {};
  for (int k = 0; k < kNumWireCodecs; ++k) {
    for (int l : layers) {
      by_codec[k] += static_cast<double>(MessageWireBytes(
          c0.LayerBytes(l) / sizeof(double), static_cast<WireCodec>(k)));
    }
  }
  for (size_t c = 0; c < clients_.size(); ++c) {
    bytes[c] = by_codec[static_cast<int>(CodecOf(static_cast<int>(c)))];
  }
  return bytes;
}

std::vector<double> FederatedSimulator::ConcatAllLayers(int client) const {
  std::vector<double> out;
  const auto& cl = clients_[static_cast<size_t>(client)];
  for (int l = 0; l < cl->num_layers(); ++l) {
    const std::vector<double> w = cl->LayerWeights(l);
    out.insert(out.end(), w.begin(), w.end());
  }
  return out;
}

std::vector<double> FederatedSimulator::ConcatAllDeltas(int client) const {
  // Server-side view of the client's whole-model delta. Quantization is
  // per tensor, so each layer is round-tripped before the concat.
  std::vector<double> out, scratch;
  const auto& cl = clients_[static_cast<size_t>(client)];
  for (int l = 0; l < cl->num_layers(); ++l) {
    const std::vector<double>& d =
        ThroughWire(client, cl->LayerDelta(l), &scratch);
    out.insert(out.end(), d.begin(), d.end());
  }
  return out;
}

bool FederatedSimulator::FexiotRound(double* bytes,
                                     const std::vector<int>& delivered) {
  const int num_layers = clients_.front()->num_layers();
  if (fexiot_partition_.empty()) {
    std::vector<int> all(clients_.size());
    std::iota(all.begin(), all.end(), 0);
    fexiot_partition_.assign(static_cast<size_t>(num_layers), {all});
    layer_stable_rounds_.assign(static_cast<size_t>(num_layers), 0);
    fexiot_round_counter_ = 0;
  }
  ++fexiot_round_counter_;
  bool split_happened = false;
  for (int l = 0; l < std::min(unlocked_layers_, num_layers); ++l) {
    // Stable layers sync lazily: once a layer's partition has been
    // unchanged for >= 3 rounds, it is exchanged only every other round.
    if (layer_stable_rounds_[static_cast<size_t>(l)] >= 3 &&
        fexiot_round_counter_ % 2 == 1) {
      ++layer_stable_rounds_[static_cast<size_t>(l)];
      continue;
    }
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
      *bytes += LayerExchangeBytes(l, active);
      AverageLayer(l, active);

      // Gate of Eq. 3 on this layer's deltas within the delivered part of
      // the group. The server observes every clustering signal through the
      // member's uplink codec (fp64: the delta itself).
      double weight_sum = 0.0;
      for (int c : active) {
        weight_sum += client_weight_[static_cast<size_t>(c)];
      }
      std::vector<double> weighted_delta;
      std::vector<double> scratch;
      double max_norm = 0.0;
      std::vector<std::vector<double>> deltas;
      for (int c : active) {
        const std::vector<double>& d = ThroughWire(
            c, clients_[static_cast<size_t>(c)]->LayerDelta(l), &scratch);
        if (weighted_delta.empty()) weighted_delta.assign(d.size(), 0.0);
        const double wc = client_weight_[static_cast<size_t>(c)] / weight_sum;
        for (size_t i = 0; i < d.size(); ++i) weighted_delta[i] += wc * d[i];
        max_norm = std::max(max_norm, VectorNorm(d));
        // Cluster on the stable cross-round drift direction.
        deltas.push_back(CodecRoundTripped(
            CodecOf(c),
            clients_[static_cast<size_t>(c)]->LayerDeltaEma(l)));
      }
      const double mean_norm = VectorNorm(weighted_delta);
      // Splits are deferred until the whole group delivered fresh updates:
      // bisecting on a partial view would assign absent members by stale
      // information (and could duplicate them across halves).
      const bool should_split =
          active.size() == group.size() &&
          static_cast<int>(group.size()) >= fl_config_.min_cluster_size &&
          mean_norm < fl_config_.epsilon1 && max_norm > fl_config_.epsilon2;
      if (!should_split) continue;

      // Lines 13-16: bisect by cosine similarity of the layer's local
      // updates. (The pseudocode writes similarity over W^l; all group
      // members share the aggregated W^l, so the informative signal is
      // the local update DeltaW^l, as in Sattler et al.)
      const Matrix sim = SimilarityMatrix(deltas);
      const std::vector<int> split = BinaryClusterSimilarity(sim);
      std::vector<int> g0, g1;
      for (size_t i = 0; i < group.size(); ++i) {
        (split[i] == 0 ? g0 : g1).push_back(group[i]);
      }
      if (g0.empty() || g1.empty()) continue;
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
      if (within / n_within - cross / n_cross <
          fl_config_.split_quality_margin) {
        continue;
      }
      split_happened = true;
      layer_changed = true;
      // The split permanently refines this layer and all deeper layers.
      for (int l2 = l; l2 < num_layers; ++l2) {
        auto& part = fexiot_partition_[static_cast<size_t>(l2)];
        std::vector<std::vector<int>> next;
        for (const auto& existing : part) {
          // Intersect the existing group with the two halves.
          std::vector<int> h0, h1;
          for (int c : existing) {
            const bool in0 =
                std::find(g0.begin(), g0.end(), c) != g0.end();
            const bool in1 =
                std::find(g1.begin(), g1.end(), c) != g1.end();
            if (in0) {
              h0.push_back(c);
            } else if (in1) {
              h1.push_back(c);
            } else {
              h0.push_back(c);
              h1.push_back(c);
            }
          }
          // A group untouched by the split stays intact.
          if (h0.size() == existing.size() || h1.size() == existing.size()) {
            next.push_back(existing);
            continue;
          }
          if (!h0.empty()) next.push_back(h0);
          if (!h1.empty()) next.push_back(h1);
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
    FlAlgorithm algorithm, double* bytes,
    const std::vector<int>& delivered) {
  if (whole_model_clusters_.empty()) {
    std::vector<int> all(clients_.size());
    std::iota(all.begin(), all.end(), 0);
    whole_model_clusters_.push_back(std::move(all));
  }
  std::vector<std::vector<int>> next_clusters;
  for (const auto& cluster : whole_model_clusters_) {
    const std::vector<int> active = FilterDelivered(cluster, delivered);
    if (active.empty()) {
      next_clusters.push_back(cluster);
      continue;
    }
    // Whole model exchanged by every delivered cluster member.
    for (int l = 0; l < clients_.front()->num_layers(); ++l) {
      *bytes += LayerExchangeBytes(l, active);
      AverageLayer(l, active);
    }
    // Split test (Eq. 3 over whole-model deltas of delivered members).
    double weight_sum = 0.0;
    for (int c : active) weight_sum += client_weight_[static_cast<size_t>(c)];
    std::vector<double> weighted;
    double max_norm = 0.0;
    std::vector<std::vector<double>> sims;
    for (int c : active) {
      std::vector<double> d = ConcatAllDeltas(c);
      max_norm = std::max(max_norm, VectorNorm(d));
      if (weighted.empty()) weighted.assign(d.size(), 0.0);
      const double wc = client_weight_[static_cast<size_t>(c)] / weight_sum;
      for (size_t i = 0; i < d.size(); ++i) weighted[i] += wc * d[i];
      if (algorithm == FlAlgorithm::kGcfl) {
        // GCFL+: similarity over the recent gradient *sequence*.
        auto& seq = gradient_sequences_[static_cast<size_t>(c)];
        seq.push_back(d);
        if (seq.size() > 3) seq.pop_front();
        std::vector<double> concat;
        for (const auto& past : seq) {
          concat.insert(concat.end(), past.begin(), past.end());
        }
        sims.push_back(std::move(concat));
      } else {
        sims.push_back(std::move(d));
      }
    }
    // As in FexiotRound, re-clustering waits for a complete view.
    const bool should_split =
        active.size() == cluster.size() &&
        static_cast<int>(cluster.size()) >= fl_config_.min_cluster_size &&
        VectorNorm(weighted) < fl_config_.epsilon1 &&
        max_norm > fl_config_.epsilon2;
    if (should_split) {
      // GCFL+ sequences can have different lengths early on; pad.
      size_t max_len = 0;
      for (const auto& s : sims) max_len = std::max(max_len, s.size());
      for (auto& s : sims) s.resize(max_len, 0.0);
      const std::vector<int> split =
          BinaryClusterSimilarity(SimilarityMatrix(sims));
      std::vector<int> g0, g1;
      for (size_t i = 0; i < cluster.size(); ++i) {
        (split[i] == 0 ? g0 : g1).push_back(cluster[i]);
      }
      if (!g0.empty() && !g1.empty()) {
        next_clusters.push_back(std::move(g0));
        next_clusters.push_back(std::move(g1));
        continue;
      }
    }
    next_clusters.push_back(cluster);
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
  whole_model_clusters_.clear();
  for (auto& seq : gradient_sequences_) seq.clear();
  unlocked_layers_ = 1;
  fexiot_partition_.clear();
  layer_stable_rounds_.clear();
  fexiot_round_counter_ = 0;
  double bytes = 0.0;
  double retransmit_bytes = 0.0;
  double uplink_wire_bytes = 0.0;
  double downlink_wire_bytes = 0.0;

  runtime_ = std::make_unique<FederatedRuntime>(
      fl_config_.runtime, static_cast<int>(clients_.size()));

  const RuntimeConfig& rc = fl_config_.runtime;
  // Codec negotiation: the configured default resolved through the
  // FEXIOT_WIRE_CODEC env override, then per-client overrides. When the
  // env var actively overrode the default it forces a uniform fleet (CI
  // sweeps re-run whole configurations under one codec).
  const WireCodec default_codec = ResolveWireCodec(rc.wire_codec);
  codec_of_.assign(clients_.size(), default_codec);
  if (default_codec == rc.wire_codec) {
    const size_t n_over = std::min(codec_of_.size(), rc.client_codecs.size());
    for (size_t c = 0; c < n_over; ++c) codec_of_[c] = rc.client_codecs[c];
  }
  const bool async_policy = rc.policy == RoundPolicy::kAsync ||
                            rc.policy == RoundPolicy::kSemiAsync;
  agg_scale_.clear();
  async_global_.clear();
  if (async_policy && algorithm == FlAlgorithm::kFedAvg) {
    // Snapshot the server model before any local training: all clients
    // still hold the shared initial weights (weighted average == each).
    EnsureAsyncGlobal();
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
                       static_cast<double>(std::max(1, fl_config_.local.epochs));
  }

  const int num_layers = clients_.front()->num_layers();
  for (int round = 0; round < fl_config_.num_rounds; ++round) {
    // 1. Discrete-event round: selection, faults, wire-priced transfers.
    // Broadcast and update carry the same layers, so each client's
    // downlink message prices like its uplink one.
    const std::vector<double> wire_bytes = RoundWireBytesPerClient(algorithm);
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
      case FlAlgorithm::kFedAvg: {
        if (async_policy) {
          AsyncFedAvgRound(outcome, &bytes);
          break;
        }
        for (int l = 0; l < num_layers; ++l) {
          AverageLayer(l, outcome.delivered);
          bytes += LayerExchangeBytes(l, outcome.delivered);
        }
        break;
      }
      case FlAlgorithm::kFmtl:
      case FlAlgorithm::kGcfl:
        ClusteredWholeModelRound(algorithm, &bytes, outcome.delivered);
        break;
      case FlAlgorithm::kFexiot: {
        const bool split = FexiotRound(&bytes, outcome.delivered);
        // Progressive unlock: once the current layers' clustering is
        // stable (no split this round), start exchanging the next layer.
        if (!split && unlocked_layers_ < num_layers) ++unlocked_layers_;
        break;
      }
    }
    retransmit_bytes += outcome.retransmit_bytes;
    uplink_wire_bytes += outcome.uplink_wire_bytes;
    downlink_wire_bytes += outcome.downlink_wire_bytes;

    FlRoundStats stats;
    stats.round = round;
    double loss_sum = 0.0;
    for (double loss : losses) loss_sum += loss;
    stats.mean_local_loss =
        participants.empty()
            ? 0.0
            : loss_sum / static_cast<double>(participants.size());
    stats.cumulative_comm_bytes = bytes;
    stats.num_clusters = static_cast<int>(std::max<size_t>(
        1, algorithm == FlAlgorithm::kFexiot
               ? (fexiot_partition_.empty() ? 1
                                            : fexiot_partition_.back().size())
               : whole_model_clusters_.size()));
    stats.participants = static_cast<int>(participants.size());
    stats.delivered = static_cast<int>(outcome.delivered.size());
    stats.sim_time_s = outcome.end_time_s;
    stats.retransmit_bytes = retransmit_bytes;
    stats.hop_comm_bytes = outcome.hop_bytes;
    stats.aggregator_crashes = outcome.aggregator_crashes;
    stats.subtree_lost_updates = outcome.subtree_lost_updates;
    stats.uplink_wire_bytes = uplink_wire_bytes;
    stats.downlink_wire_bytes = downlink_wire_bytes;
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
  result.total_comm_bytes = bytes;
  result.total_uplink_wire_bytes = uplink_wire_bytes;
  result.total_downlink_wire_bytes = downlink_wire_bytes;
  result.total_sim_time_s = runtime_->now();
  result.total_retransmit_bytes = retransmit_bytes;

  // Final cluster assignment per client (bottom layer).
  result.client_cluster.assign(clients_.size(), 0);
  static const std::vector<std::vector<int>> kEmpty;
  const auto& clusters =
      algorithm == FlAlgorithm::kFexiot
          ? (fexiot_partition_.empty() ? kEmpty : fexiot_partition_.back())
          : whole_model_clusters_;
  for (size_t k = 0; k < clusters.size(); ++k) {
    for (int c : clusters[k]) {
      result.client_cluster[static_cast<size_t>(c)] = static_cast<int>(k);
    }
  }
  return result;
}

}  // namespace fexiot
