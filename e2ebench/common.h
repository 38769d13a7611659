#pragma once

// Types shared by the end-to-end workloads: run options, the report a
// workload fills in, the worker runner, and the repeated set-up helper
// behind setup_s.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "gnn/gnn_model.h"
#include "stats.h"
#include "trace.h"

namespace fexiot {
namespace e2e {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase. A traced run measures the end-to-end
  /// metrics untraced in the first half and spends the second half in
  /// alternating untraced and traced slices (see AlternateTraced).
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans as JSON Lines (empty = nowhere).
  std::string trace_out;
  /// Tiny inputs for the determinism smoke check.
  bool smoke = false;
  /// Independent set-ups per run; setup_s is the fastest.
  int setup_reps = 3;
  /// Worker threads that drive the program concurrently while measuring
  /// (one per CPU the pool may use).
  int workers = 1;

  double untraced_seconds() const { return trace ? seconds / 2 : seconds; }
  double traced_seconds() const { return trace ? seconds / 2 : 0.0; }
};

/// What one workload run reports.
struct Report {
  /// End-to-end metrics (untraced): name -> (value, unit).
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Per-layer metrics (traced run only): name -> (value, unit).
  std::map<std::string, std::pair<double, std::string>> layers;
  /// Descriptive numbers that are not gated (accuracy, p99, counts...).
  std::map<std::string, double> info;
  /// Correctness failures; the run is correct when this stays empty.
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Output digest (hex) the determinism smoke check compares.
  std::string digest;
  /// Worker-seconds spent in the traced slices of the measured phase (the
  /// denominator of every per-layer time share).
  double traced_worker_s = 0.0;

  void Metric(const std::string& name, double value, const char* unit) {
    metrics[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const char* unit) {
    layers[name] = {value, unit};
  }
  /// Records \p what as a correctness failure unless \p ok (once per
  /// distinct message).
  void Check(bool ok, const std::string& what) {
    if (!ok && std::find(errors.begin(), errors.end(), what) == errors.end()) {
      errors.push_back(what);
    }
  }
  /// Folds in a worker's operation counts and correctness failures.
  void Merge(const Report& worker) {
    attempted += worker.attempted;
    failed += worker.failed;
    for (const std::string& e : worker.errors) Check(false, e);
  }
};

/// \brief Runs fn(w) for every worker w in [0, workers), each on its own
/// thread of a ThreadPool, and waits. Library calls made by a worker run
/// serially inside it: parallel::For runs inline on pool threads, so the
/// workers never oversubscribe the CPUs.
inline void RunOnWorkers(int workers, const std::function<void(int)>& fn) {
  ThreadPool pool(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) pool.Submit([&fn, w] { fn(w); });
  pool.Wait();
}

inline std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

inline double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// \brief Runs \p setup (returning std::unique_ptr<State>) opts.setup_reps
/// times from scratch, reports the fastest wall time as setup_s, and keeps
/// the last state for the measured phase. Each repetition does the same
/// work, so the fastest is the one the shared host disturbed least. Each
/// repetition gets its index, so a workload can vary how its warm-up pass
/// calls the program; every repetition must produce the same warm-up
/// digest.
template <typename State, typename SetupFn>
std::unique_ptr<State> RepeatedSetup(const Options& opts, Report* report,
                                     SetupFn setup) {
  std::vector<double> seconds;
  std::unique_ptr<State> state;
  std::string first_digest;
  for (int rep = 0; rep < opts.setup_reps; ++rep) {
    state.reset();  // the previous repetition's memory is gone first
    Stopwatch sw;
    state = setup(rep);
    seconds.push_back(sw.ElapsedSeconds());
    if (state == nullptr) return nullptr;
    if (rep == 0) first_digest = state->warmup_digest;
    report->Check(state->warmup_digest == first_digest,
                  "warm-up digest differs between set-up repetitions");
  }
  report->Metric("setup_s", *std::min_element(seconds.begin(), seconds.end()), "s");
  report->digest = first_digest;
  return state;
}

/// Slices of each kind in the second half of a traced run.
constexpr int kTraceSlicePairs = 8;

/// \brief Runs the second half of a traced run as kTraceSlicePairs pairs of
/// one untraced and one traced slice, ordered off-on, on-off, off-on, ...,
/// so that a steady drift of the host's speed favours neither side.
/// slice(traced, pair_start, seconds) runs one slice and returns the work
/// it completed per second; pair_start is true for the first slice of a
/// pair. A workload whose work can be replayed starts the second slice of
/// a pair where the first began, so that both measure the same items.
/// Returns the tracing overhead: 1 - (traced rate / untraced rate), the
/// median over the pairs, so a burst of interference in one slice does not
/// decide it.
template <typename SliceFn>
double AlternateTraced(const Options& opts, SliceFn slice) {
  const double seconds = opts.traced_seconds() / (2 * kTraceSlicePairs);
  std::vector<double> ratios;
  for (int pair = 0; pair < kTraceSlicePairs; ++pair) {
    const bool on_first = pair % 2 == 1;
    const double first = slice(on_first, true, seconds);
    const double second = slice(!on_first, false, seconds);
    ratios.push_back(on_first ? Ratio(first, second) : Ratio(second, first));
  }
  return 1.0 - Percentile(ratios, 50.0);
}

/// \brief Floating-point operations of one GCN/GIN forward pass, computed
/// from the graph and model shapes (not counted by the program): per
/// message-passing layer one SpMM (2 * nnz * d_in), one dense transform
/// (2 * n * d_in * hidden) and bias + ReLU (2 * n * hidden); then the
/// [mean | max] pooling (2 * n * hidden) and the readout projection.
inline double ForwardFlops(const GnnConfig& c, int nodes, size_t nnz) {
  const double n = nodes;
  const double h = c.hidden_dim;
  double flops = 0.0;
  for (int l = 0; l < c.num_layers; ++l) {
    const double d_in = l == 0 ? c.input_dim : h;
    flops += 2.0 * static_cast<double>(nnz) * d_in + 2.0 * n * d_in * h +
             2.0 * n * h;
  }
  return flops + 2.0 * n * h + 2.0 * (2.0 * h) * c.embedding_dim;
}

inline bool Finite(const std::vector<double>& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

// Workload entry points. Each builds its inputs from opts.seed, sets up
// opts.setup_reps times, measures, checks its outputs, and fills \p report;
// \p tracer is enabled only for a traced run.
void RunAuditLogs(const Options& opts, Tracer* tracer, Report* report);
void RunAuditGraphs(const Options& opts, Tracer* tracer, Report* report);
void RunServeSteady(const Options& opts, Tracer* tracer, Report* report);
void RunServeChurn(const Options& opts, Tracer* tracer, Report* report);
void RunFederate(const Options& opts, Tracer* tracer, Report* report);

}  // namespace e2e
}  // namespace fexiot
