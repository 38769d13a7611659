// bench_e2e: one workload of the FexIoT end-to-end benchmark per process.
//
//   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-out FILE] [--setup-reps N] [--smoke]
//
// Prints one JSON object on its last stdout line: correctness, attempted
// and failed operations, the end-to-end metrics (always from untraced
// execution), the per-layer metrics and span summary of a traced run, the
// output digest, and provenance. e2ebench/run.py builds this binary and
// wraps it; see e2ebench/README.md.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.h"
#include "common/parallel.h"
#include "tensor/gemm.h"

#ifndef FEXIOT_E2E_BUILD_TYPE
#define FEXIOT_E2E_BUILD_TYPE "unknown"
#endif

namespace fexiot {
namespace e2e {
namespace {

/// Self-time shares reported by every traced run: metric -> span prefix.
/// Each is the prefix's self time over the worker-seconds of the traced
/// half; a layer a workload never calls reports 0.
const std::vector<std::pair<const char*, const char*>> kShares = {
    {"core.fuse_frac", "core.fuse"},
    {"core.drift_frac", "core.drift"},
    {"gnn.prepare_frac", "gnn.prepare"},
    {"gnn.forward_frac", "gnn.forward"},
    {"ml.head_frac", "ml.head"},
    {"explain.explain_frac", "explain."},
    {"serving.ingest_frac", "serving.ingest"},
    {"serving.enqueue_frac", "serving.enqueue"},
    {"serving.dispatch_frac", "serving.dispatch"},
    {"loadgen.wait_frac", "loadgen.wait"},
    {"federated.local_train_frac", "federated.local_train"},
    {"federated.aggregate_frac", "federated.aggregate"},
    {"federated.evaluate_frac", "federated.evaluate"},
    {"runtime.execute_round_frac", "runtime.execute_round"},
    {"runtime.codec_frac", "runtime.codec"},
};

/// Counters every traced run reports; a workload that has no such layer
/// leaves them at 0.
const std::vector<std::pair<const char*, const char*>> kCounters = {
    {"graph.nodes_per_item", "count"},
    {"graph.edges_per_item", "count"},
    {"gnn.flops_per_forward", "count"},
    {"explain.flagged_frac", "fraction"},
    {"explain.model_evals_per_explain", "count"},
    {"explain.tt_hit_rate", "fraction"},
    {"explain.memo_hit_rate", "fraction"},
    {"explain.waves_per_explain", "count"},
    {"serving.batch_size_mean", "count"},
    {"serving.events_per_request", "count"},
    {"serving.incremental_updates_per_request", "count"},
    {"serving.rebuilds_per_1k_requests", "count"},
    {"runtime.delivered_frac", "fraction"},
    {"runtime.retransmit_frac", "fraction"},
    {"federated.round_residual_frac", "fraction"},
    {"trace.overhead_frac", "fraction"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload audit-logs|audit-graphs|"
               "serve-steady|serve-churn|federate [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out FILE] [--setup-reps N] [--smoke]\n");
  return 2;
}

void PrintNumberMap(const char* key,
                    const std::map<std::string, std::pair<double, std::string>>& m) {
  std::printf("\"%s\": {", key);
  const char* sep = "";
  for (const auto& [name, vu] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), vu.first, vu.second.c_str());
    sep = ", ";
  }
  std::printf("}");
}

void PrintJson(const Options& opts, const Report& r,
               const std::vector<Tracer::NameStats>& spans) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
              "\"trace\": %d, ",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0);
  std::printf("\"correct\": %s, \"errors\": [", r.errors.empty() ? "true" : "false");
  for (size_t i = 0; i < r.errors.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", r.errors[i].c_str());
  }
  std::printf("], \"attempted\": %llu, \"failed\": %llu, \"digest\": \"%s\", ",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), r.digest.c_str());
  PrintNumberMap("metrics", r.metrics);
  std::printf(", ");
  PrintNumberMap("per_layer", r.layers);
  std::printf(", \"info\": {");
  const char* sep = "";
  for (const auto& [name, v] : r.info) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), v);
    sep = ", ";
  }
  std::printf("}, \"spans\": [");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Tracer::NameStats& s = spans[i];
    std::printf("%s{\"name\": \"%s\", \"count\": %llu, \"total_ms\": %.6f, "
                "\"self_ms\": %.6f, \"p50_us\": %.3f, \"p95_us\": %.3f}",
                i ? ", " : "", s.name.c_str(),
                static_cast<unsigned long long>(s.count), s.total_ms,
                s.self_ms, s.p50_us, s.p95_us);
  }
  std::printf("], \"provenance\": {\"isa\": \"%s\", \"pool_threads\": %zu, "
              "\"host_cpus\": %u, \"build_type\": \"%s\", "
              "\"compiler\": \"g++ %s\"}}\n",
              gemm::ActiveKernel().name, parallel::NumThreads(),
              std::thread::hardware_concurrency(), FEXIOT_E2E_BUILD_TYPE,
              __VERSION__);
}

int Main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--smoke") {
      opts.smoke = true;
    } else if ((v = value()) == nullptr) {
      return Usage();
    } else if (a == "--workload") {
      opts.workload = v;
    } else if (a == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opts.seconds = std::atof(v);
    } else if (a == "--trace") {
      opts.trace = std::atoi(v) != 0;
    } else if (a == "--trace-out") {
      opts.trace_out = v;
    } else if (a == "--setup-reps") {
      opts.setup_reps = std::atoi(v);
    } else {
      return Usage();
    }
  }
  if (!(opts.seconds > 0.0) || opts.setup_reps < 1) return Usage();
  opts.workers = static_cast<int>(parallel::NumThreads());

  Tracer tracer(opts.trace);
  Report report;
  if (opts.workload == "audit-logs") {
    RunAuditLogs(opts, &tracer, &report);
  } else if (opts.workload == "audit-graphs") {
    RunAuditGraphs(opts, &tracer, &report);
  } else if (opts.workload == "serve-steady") {
    RunServeSteady(opts, &tracer, &report);
  } else if (opts.workload == "serve-churn") {
    RunServeChurn(opts, &tracer, &report);
  } else if (opts.workload == "federate") {
    RunFederate(opts, &tracer, &report);
  } else {
    return Usage();
  }

  std::vector<Tracer::NameStats> spans;
  if (opts.trace) {
    for (const auto& [metric, prefix] : kShares) {
      report.Layer(metric,
                   Ratio(tracer.SelfSeconds(prefix), report.traced_worker_s),
                   "fraction");
    }
    for (const auto& [metric, unit] : kCounters) {
      if (report.layers.count(metric) == 0) report.Layer(metric, 0.0, unit);
    }
    report.Layer("trace.coverage_frac",
                 Ratio(tracer.TopLevelSeconds(), report.traced_worker_s),
                 "fraction");
    spans = tracer.Summarize();
    if (!opts.trace_out.empty() && !tracer.WriteJsonl(opts.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", opts.trace_out.c_str());
      return 1;
    }
  }
  PrintJson(opts, report, spans);
  return 0;
}

}  // namespace
}  // namespace e2e
}  // namespace fexiot

int main(int argc, char** argv) { return fexiot::e2e::Main(argc, argv); }
