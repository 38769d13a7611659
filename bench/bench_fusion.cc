// Online fusion (Section III-A2 cleaning + III-A3 online graph building)
// on audit-logs-shaped inputs: 64 testbed homes, 20 raw 3 h windows each,
// every other window tampered with one of the five attack classes.
//
// At one thread it times FexIoT::Fuse per window, and then the stages
// the public calls expose, each over the same windows:
//   cleaned   EventLog::Cleaned() of the raw window;
//   build     OnlineGraphBuilder::Build of the cleaned window;
//   features  ComputeNodeFeatures of every fused node (text + time dims);
//   augment   AugmentRelationalFeatures of every fused graph;
//   check     VulnerabilityChecker::Check of every fused graph.
// The stages overlap (Build embeds and augments), so they do not add up
// to Fuse. Every figure is the median (MedianSeconds) of an odd number of
// passes over all windows, divided by the window count.
//
// A digest of every fused graph (features, event times, edges, label,
// vulnerability, witness) is printed and recorded, so two builds that
// fuse bit for bit record the same digest.
//
// Usage: bench_fusion [out.json] [--label TEXT] [--keep earlier.json]
// Writes out.json (default BENCH_fusion.json) with one record for this
// run, tagged with TEXT and the source tree's `git describe`. The records
// (one line each) of earlier.json are kept ahead of it, so one file can
// hold the numbers of two builds, e.g. a parent commit and a change.

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "core/fexiot.h"
#include "core/testbed.h"
#include "graph/vuln_checker.h"
#include "smarthome/attacks.h"

#ifndef FEXIOT_BUILD_TYPE
#define FEXIOT_BUILD_TYPE "unknown"
#endif
#ifndef FEXIOT_SOURCE_DIR
#define FEXIOT_SOURCE_DIR "."
#endif

using namespace fexiot;
using namespace fexiot::bench;

namespace {

constexpr int kHomes = 64;
constexpr int kWindowsPerHome = 20;
constexpr int kPasses = 11;  // odd, so the median is one pass

struct Window {
  size_t home = 0;
  EventLog raw;
};

/// The source tree's `git describe` (with -dirty for uncommitted edits),
/// or "unknown" outside a git checkout.
std::string GitDescribe() {
  const std::string cmd = std::string("git -C '") + FEXIOT_SOURCE_DIR +
                          "' describe --always --dirty --abbrev=12 2>/dev/null";
  std::string out;
  if (FILE* p = popen(cmd.c_str(), "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), p) != nullptr) out += buf;
    pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

/// Window i of home i % kHomes: a 3 h simulated log, tampered with attack
/// class (w / 2) % 5 when its window index w is even (the audit-logs
/// workload's shape).
std::vector<Window> BuildWindows(const std::vector<Home>& homes) {
  const Rng root(0xB0F5100000000000ULL);
  std::vector<Window> out(homes.size() * kWindowsPerHome);
  parallel::For(out.size(), [&](size_t i) {
    Window& win = out[i];
    win.home = i % homes.size();
    const size_t w = i / homes.size();
    Rng rng = root.ForkAt(i);
    const Home& home = homes[win.home];
    SimulationConfig sc;
    sc.duration_seconds = 3.0 * 3600.0;
    sc.exogenous_mean_gap = 120.0;
    HomeSimulator sim(home, sc, &rng);
    win.raw = sim.Run();
    if (w % 2 == 0) {
      AttackInjector injector(home, &rng);
      const auto attack = static_cast<AttackType>((w / 2) % kNumAttackTypes);
      win.raw = injector.Inject(win.raw, attack, 0.45).log;
    }
  });
  return out;
}

void DigestGraph(const InteractionGraph& g, Fnv1a* d) {
  d->U64(static_cast<uint64_t>(g.num_nodes()));
  for (int i = 0; i < g.num_nodes(); ++i) {
    const GraphNode& n = g.node(i);
    d->U64(static_cast<uint64_t>(n.rule.id));
    d->Double(n.event_time);
    d->U64(n.features.size());
    for (double x : n.features) d->Double(x);
  }
  d->U64(static_cast<uint64_t>(g.num_edges()));
  for (const auto& [u, v] : g.edges()) {
    d->U64(static_cast<uint64_t>(u));
    d->U64(static_cast<uint64_t>(v));
  }
  d->U64(static_cast<uint64_t>(g.label()));
  d->U64(static_cast<uint64_t>(g.vulnerability()));
  d->U64(g.witness().size());
  for (int w : g.witness()) d->U64(static_cast<uint64_t>(w));
}

/// Median over kPasses passes of \p pass, in microseconds per window.
template <typename Pass>
double MicrosPerWindow(size_t windows, Pass pass) {
  std::vector<double> seconds;
  for (int r = 0; r < kPasses; ++r) {
    Stopwatch sw;
    pass();
    seconds.push_back(sw.ElapsedSeconds());
  }
  return MedianSeconds(seconds) * 1e6 / static_cast<double>(windows);
}

/// The record lines of an earlier output file (empty if it is missing).
std::vector<std::string> EarlierRecords(const char* path) {
  std::vector<std::string> out;
  if (path == nullptr) return out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("{\"git\":") == std::string::npos) continue;
    while (!line.empty() && (line.back() == ',' || line.back() == ' ')) {
      line.pop_back();
    }
    out.push_back(line);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  PrintHeader("bench_fusion", "online fusion per audit-logs window, 1 thread");
  std::string out_path = "BENCH_fusion.json";
  std::string label;
  const char* keep = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--label" && i + 1 < argc) {
      label = argv[++i];
    } else if (arg == "--keep" && i + 1 < argc) {
      keep = argv[++i];
    } else {
      out_path = arg;
    }
  }
  const std::vector<std::string> earlier = EarlierRecords(keep);

  std::vector<Home> homes;
  const Rng home_root(0xB0F5000000000000ULL);
  const TestbedOptions topt;
  for (int h = 0; h < kHomes; ++h) {
    Rng hr = home_root.ForkAt(static_cast<uint64_t>(h));
    homes.push_back(BuildTestbedHome(topt, &hr));
  }
  const std::vector<Window> windows = BuildWindows(homes);
  parallel::SetThreads(1);
  const size_t n = windows.size();

  const FexIoT fexiot{FexIotConfig{}};
  std::vector<EventLog> cleaned(n);
  std::vector<InteractionGraph> fused(n);
  Fnv1a digest;
  double entries = 0.0, nodes = 0.0, edges = 0.0, labelled = 0.0;
  for (size_t i = 0; i < n; ++i) {
    cleaned[i] = windows[i].raw.Cleaned();
    fused[i] = fexiot.Fuse(homes[windows[i].home], windows[i].raw);
    DigestGraph(fused[i], &digest);
    entries += static_cast<double>(windows[i].raw.size());
    nodes += fused[i].num_nodes();
    edges += fused[i].num_edges();
    labelled += fused[i].label();
  }

  size_t sink = 0;  // keeps every timed result observable
  const double fuse_us = MicrosPerWindow(n, [&] {
    for (size_t i = 0; i < n; ++i) {
      sink += static_cast<size_t>(
          fexiot.Fuse(homes[windows[i].home], windows[i].raw).num_nodes());
    }
  });
  const double cleaned_us = MicrosPerWindow(n, [&] {
    for (size_t i = 0; i < n; ++i) sink += windows[i].raw.Cleaned().size();
  });
  const double build_us = MicrosPerWindow(n, [&] {
    for (size_t i = 0; i < n; ++i) {
      const OnlineGraphBuilder builder(homes[windows[i].home]);
      sink += static_cast<size_t>(builder.Build(cleaned[i]).num_edges());
    }
  });
  const double features_us = MicrosPerWindow(n, [&] {
    for (const InteractionGraph& g : fused) {
      for (int v = 0; v < g.num_nodes(); ++v) {
        sink += ComputeNodeFeatures(g.node(v).rule, g.node(v).event_time)
                    .size();
      }
    }
  });
  // Augmentation writes into its graph: each pass augments fresh copies,
  // made outside the timer.
  std::vector<InteractionGraph> copies;
  std::vector<double> augment_s;
  for (int r = 0; r < kPasses; ++r) {
    copies = fused;
    Stopwatch sw;
    for (InteractionGraph& g : copies) AugmentRelationalFeatures(&g);
    augment_s.push_back(sw.ElapsedSeconds());
  }
  const double augment_us =
      MedianSeconds(augment_s) * 1e6 / static_cast<double>(n);
  const double check_us = MicrosPerWindow(n, [&] {
    for (const InteractionGraph& g : fused) {
      sink += VulnerabilityChecker::Check(g).size();
    }
  });

  const std::string git = GitDescribe();
  const double w = static_cast<double>(n);
  char record[1024];
  std::snprintf(
      record, sizeof(record),
      "    {\"git\": \"%s\", \"label\": \"%s\", \"threads\": 1, "
      "\"fuse_us\": %.2f, "
      "\"cleaned_us\": %.2f, \"build_us\": %.2f, \"features_us\": %.2f, "
      "\"augment_us\": %.2f, \"check_us\": %.2f, \"digest\": \"%016llx\"}",
      git.c_str(), label.c_str(), fuse_us, cleaned_us, build_us, features_us,
      augment_us, check_us,
      static_cast<unsigned long long>(digest.digest()));

  std::printf("windows %zu (homes %d), mean raw entries %.1f, mean fused "
              "nodes %.2f, edges %.2f, internally vulnerable %.3f\n",
              n, kHomes, entries / w, nodes / w, edges / w, labelled / w);
  std::printf("git %s, passes %d (median), digest %016llx\n", git.c_str(),
              kPasses, static_cast<unsigned long long>(digest.digest()));
  TablePrinter table({"stage", "us/window"});
  table.AddRow({"Fuse", Fmt(fuse_us, 2)});
  table.AddRow({"Cleaned", Fmt(cleaned_us, 2)});
  table.AddRow({"Build(cleaned)", Fmt(build_us, 2)});
  table.AddRow({"ComputeNodeFeatures", Fmt(features_us, 2)});
  table.AddRow({"AugmentRelationalFeatures", Fmt(augment_us, 2)});
  table.AddRow({"Check", Fmt(check_us, 2)});
  table.Print();
  std::printf("(sink %zu)\n", sink);

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"fusion\",\n  \"version\": 1,\n");
  std::fprintf(f,
               "  \"workload\": \"%zu raw 3 h windows of %d testbed homes, "
               "half tampered (audit-logs shape); per-window medians of %d "
               "passes at 1 thread; stages overlap (Build embeds and "
               "augments)\",\n",
               n, kHomes, kPasses);
  std::fprintf(f, "  \"host_cpus\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"build_type\": \"%s\",\n", FEXIOT_BUILD_TYPE);
  std::fprintf(f, "  \"mean_raw_entries\": %.1f,\n", entries / w);
  std::fprintf(f, "  \"mean_fused_nodes\": %.3f,\n", nodes / w);
  std::fprintf(f, "  \"records\": [\n");
  for (const std::string& line : earlier) std::fprintf(f, "%s,\n", line.c_str());
  std::fprintf(f, "%s\n  ]\n}\n", record);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
