#include "federated/scale_sim.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/hash.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "gnn/trainer.h"
#include "runtime/message.h"

namespace fexiot {

Status ValidateScaleConfig(const ScaleFlConfig& config) {
  if (config.num_clients < 1)
    return Status::InvalidArgument("num_clients must be >= 1");
  if (config.num_clients > static_cast<uint64_t>(INT_MAX))
    return Status::InvalidArgument(
        "num_clients must be <= INT_MAX (runtime client ids are int)");
  if (config.runtime.clients_per_round < 1)
    return Status::InvalidArgument(
        "runtime.clients_per_round must be >= 1 (the driver trains a "
        "sampled cohort)");
  if (config.runtime.policy == RoundPolicy::kAsync ||
      config.runtime.policy == RoundPolicy::kSemiAsync)
    return Status::InvalidArgument(
        "the scale driver runs round-based FedAvg; use the synchronous, "
        "deadline or timeout-retry policy");
  if (!config.runtime.client_codecs.empty())
    return Status::InvalidArgument(
        "the scale driver negotiates one wire codec for the whole fleet");
  FEXIOT_RETURN_NOT_OK(ValidateRuntimeConfig(config.runtime));
  if (config.num_rounds < 1)
    return Status::InvalidArgument("num_rounds must be >= 1");
  FEXIOT_RETURN_NOT_OK(ValidateTrainConfig(config.train));
  if (config.client.graphs_per_client < 2)
    return Status::InvalidArgument(
        "graphs_per_client must be >= 2 (local test split)");
  if (!(config.client.local_train_fraction > 0.0 &&
        config.client.local_train_fraction < 1.0))
    return Status::InvalidArgument(
        "local_train_fraction must be in (0, 1)");
  if (config.client.num_clusters < 0)
    return Status::InvalidArgument("num_clusters must be >= 0");
  if (config.eval_clients < 0)
    return Status::InvalidArgument("eval_clients must be >= 0");
  if (config.threads < 0)
    return Status::InvalidArgument("threads must be >= 0");
  return Status::OK();
}

#ifdef __linux__
namespace {
double ReadProcStatusKb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  const size_t key_len = std::strlen(key);
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      kb = std::atof(line + key_len);
      break;
    }
  }
  std::fclose(f);
  return kb;
}
}  // namespace

double ReadVmHwmMb() { return ReadProcStatusKb("VmHWM:") / 1024.0; }
double ReadVmRssMb() { return ReadProcStatusKb("VmRSS:") / 1024.0; }
#else
double ReadVmHwmMb() { return 0.0; }
double ReadVmRssMb() { return 0.0; }
#endif

ScaleSimulator::ScaleSimulator(const ScaleFlConfig& config)
    : config_(config) {}

Result<ScaleFlResult> ScaleSimulator::Run() {
  FEXIOT_RETURN_NOT_OK(ValidateScaleConfig(config_));
  Stopwatch wall;
  const ScaleFlConfig& cfg = config_;
  const uint64_t n = cfg.num_clients;

  ClientStateStore store(cfg.client, n, cfg.eager_state);
  FederatedRuntime runtime(cfg.runtime, static_cast<int>(n));
  const Rng train_base(MixKey(cfg.runtime.seed, /*train*/ 23));
  const size_t pool_threads =
      cfg.threads > 0 ? static_cast<size_t>(cfg.threads)
                      : parallel::NumThreads();
  ThreadPool pool(pool_threads);

  // Probe replica: layer shapes and the initial global (every client
  // replica starts from the same seeded initialization).
  GnnModel probe(cfg.client.model);
  const int num_layers = probe.num_layers();
  const WireCodec codec = cfg.runtime.wire_codec;
  std::vector<std::vector<double>> global(static_cast<size_t>(num_layers));
  // Broadcast and update carry every layer, so both price alike.
  double message_bytes = 0.0;
  for (int l = 0; l < num_layers; ++l) {
    global[static_cast<size_t>(l)] = probe.GetLayerFlat(l);
    message_bytes +=
        static_cast<double>(MessageWireBytes(probe.LayerSize(l), codec));
  }
  const double train_seconds = cfg.runtime.train_seconds_per_graph *
                               LocalTrainGraphs(cfg.client) *
                               cfg.train.epochs;

  ScaleFlResult result;
  for (int round = 0; round < cfg.num_rounds; ++round) {
    const RoundOutcome out = runtime.ExecuteRound(round, message_bytes,
                                                  message_bytes, train_seconds);
    const std::vector<int>& participants = out.participants;
    const size_t k = participants.size();
    std::vector<double> losses(k, 0.0);
    std::vector<std::vector<std::vector<double>>> updates(k);

    // Downlink: participants receive the global as it survives the wire
    // codec (fp64 passes &global straight through — no copy, bit-exact).
    const std::vector<std::vector<double>>* broadcast_global = &global;
    std::vector<std::vector<double>> downlinked;
    if (codec != WireCodec::kFp64) {
      downlinked = global;
      for (auto& layer : downlinked) CodecRoundTrip(codec, &layer);
      broadcast_global = &downlinked;
    }

    pool.ParallelFor(k, [&](size_t i) {
      const auto client = static_cast<uint64_t>(participants[i]);
      std::unique_ptr<MaterializedClient> mc =
          store.Acquire(client, broadcast_global);
      Rng train_rng = train_base.ForkAt(
          MixKey(client, static_cast<uint64_t>(round) + 1));
      GnnTrainer trainer(&mc->model, cfg.train);
      losses[i] = trainer.Train(mc->train_graphs, &train_rng);
      auto& up = updates[i];
      up.resize(static_cast<size_t>(num_layers));
      for (int l = 0; l < num_layers; ++l) {
        // Snapshot what the server will observe: the trained layer after
        // the uplink codec. A pure per-tensor function, so the parallel
        // workers stay bit-identical across thread counts.
        up[static_cast<size_t>(l)] = mc->model.GetLayerFlat(l);
        CodecRoundTrip(codec, &up[static_cast<size_t>(l)]);
      }
      // Release inside the worker: peak live state <= pool width.
      store.Release(std::move(mc));
    });

    // Streaming FedAvg over the delivered updates along the aggregation
    // tree. Shards are equal, so each delivered client weighs
    // 1 / delivered — AverageLayer's w_c / weight_sum. Under the flat
    // topology this replays the eager aggregation bit-exactly; tree
    // merges reassociate (DESIGN.md 5.10).
    if (!out.delivered.empty()) {
      std::vector<size_t> slot;  // delivered is a sorted subset
      slot.reserve(out.delivered.size());
      for (int c : out.delivered) {
        slot.push_back(static_cast<size_t>(
            std::lower_bound(participants.begin(), participants.end(), c) -
            participants.begin()));
      }
      const double wc = 1.0 / static_cast<double>(out.delivered.size());
      for (size_t l = 0; l < global.size(); ++l) {
        global[l] = runtime.tree()
                        .Accumulate(out.delivered,
                                    [&](size_t d, StreamingAccumulator* acc) {
                                      acc->Add(wc, updates[slot[d]][l]);
                                    })
                        .weighted_sum();
      }
    }

    ScaleRoundStats stats;
    stats.round = round;
    stats.participants = static_cast<int>(k);
    stats.delivered = static_cast<int>(out.delivered.size());
    stats.lost_updates = out.lost_updates;
    stats.late_updates = out.late_updates;
    stats.aggregator_crashes = out.aggregator_crashes;
    stats.subtree_lost_updates = out.subtree_lost_updates;
    double loss_sum = 0.0;
    for (double loss : losses) loss_sum += loss;
    stats.mean_local_loss = k > 0 ? loss_sum / static_cast<double>(k) : 0.0;
    stats.sim_time_s = out.end_time_s;
    // A flat round's only hop is the client uplink.
    stats.hop_bytes = out.hop_bytes.empty()
                          ? std::vector<double>{out.uplink_wire_bytes}
                          : out.hop_bytes;
    stats.events = out.events;
    double round_comm = out.downlink_wire_bytes;
    for (double b : stats.hop_bytes) round_comm += b;
    result.total_comm_bytes += round_comm;
    result.total_events += stats.events;
    result.rounds.push_back(std::move(stats));
  }

  // Final-round evaluation on a sampled client set.
  if (cfg.eval_clients > 0) {
    Rng eval_rng(MixKey(cfg.runtime.seed, /*eval*/ 29));
    const std::vector<uint64_t> eval_clients = eval_rng.SampleSorted(
        n, static_cast<uint64_t>(cfg.eval_clients));
    std::vector<ClassificationMetrics> metrics(eval_clients.size());
    pool.ParallelFor(eval_clients.size(), [&](size_t i) {
      std::unique_ptr<MaterializedClient> mc =
          store.Acquire(eval_clients[i], &global);
      GnnTrainer trainer(&mc->model, cfg.train);
      metrics[i] = trainer.Evaluate(mc->train_graphs, mc->test_graphs);
      store.Release(std::move(mc));
    });
    for (size_t i = 0; i < eval_clients.size(); ++i) {
      result.sampled_metrics.emplace_back(eval_clients[i], metrics[i]);
      result.mean.accuracy += metrics[i].accuracy;
      result.mean.precision += metrics[i].precision;
      result.mean.recall += metrics[i].recall;
      result.mean.f1 += metrics[i].f1;
      result.mean.true_positive += metrics[i].true_positive;
      result.mean.true_negative += metrics[i].true_negative;
      result.mean.false_positive += metrics[i].false_positive;
      result.mean.false_negative += metrics[i].false_negative;
    }
    if (!eval_clients.empty()) {
      const auto m = static_cast<double>(eval_clients.size());
      result.mean.accuracy /= m;
      result.mean.precision /= m;
      result.mean.recall /= m;
      result.mean.f1 /= m;
    }
  }

  result.global_layers = std::move(global);
  Fnv1a fingerprint;
  fingerprint.U64(result.global_layers.size());
  for (const auto& layer : result.global_layers) {
    fingerprint.U64(layer.size());
    for (double v : layer) fingerprint.Double(v);
  }
  result.global_fingerprint = fingerprint.digest();
  result.total_sim_time_s = runtime.now();
  result.materializations = store.materializations();
  result.peak_live_clients = store.peak_live();
  result.peak_rss_mb = ReadVmHwmMb();
  result.current_rss_mb = ReadVmRssMb();
  result.wall_seconds = wall.ElapsedSeconds();
  result.events_per_sec =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.total_events) / result.wall_seconds
          : 0.0;
  return result;
}

}  // namespace fexiot
