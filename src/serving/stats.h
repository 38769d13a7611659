#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fexiot {

/// \brief Exact-percentile latency recorder: keeps every sample (a serving
/// session records one double per request — cheap at bench/test scales)
/// and computes order statistics on demand. Percentiles use linear
/// interpolation between closest ranks, so p50/p95/p99 are exact for the
/// recorded distribution rather than bucketed approximations.
class LatencyRecorder {
 public:
  void Add(double seconds) { samples_.push_back(seconds); }

  size_t count() const { return samples_.size(); }

  /// \brief The \p p-th percentile (p in [0, 100]) of the recorded
  /// samples; 0.0 when empty. Linear interpolation between closest ranks.
  double Percentile(double p) const;

  double Max() const;
  double Mean() const;

  const std::vector<double>& samples() const { return samples_; }

  void Clear() { samples_.clear(); }

 private:
  std::vector<double> samples_;
};

/// \brief Telemetry block of a StreamingDetectionEngine. Counters cover
/// the whole ingest -> graph edit -> snapshot -> batcher -> inference
/// pipeline; `latency` records one end-to-end sample per served detection
/// request.
struct ServingStats {
  uint64_t requests = 0;          ///< detection requests served
  uint64_t batches = 0;           ///< inference dispatches (incl. size 1)
  uint64_t ingested_events = 0;   ///< log entries consumed
  uint64_t firings = 0;           ///< rule firings mined from the streams
  /// Undirected pairs of a home's graph whose presence flipped at ingest
  /// (either direction live counts as present, as in the propagation
  /// matrix).
  uint64_t incremental_updates = 0;
  /// Propagation matrices rebuilt at a snapshot: one per snapshot of a
  /// home whose edges changed since its previous snapshot, and one at
  /// each home's first snapshot.
  uint64_t rebuilds = 0;
  uint64_t parity_checks = 0;     ///< snapshot-vs-PrepareGraph verifications
  uint64_t parity_failures = 0;   ///< ...that found a mismatch (bug!)
  /// batch_size_hist[s] = number of dispatches of size s (index 0 unused).
  std::vector<uint64_t> batch_size_hist;
  LatencyRecorder latency;

  void RecordBatch(size_t size) {
    ++batches;
    if (batch_size_hist.size() <= size) batch_size_hist.resize(size + 1, 0);
    ++batch_size_hist[size];
  }
};

}  // namespace fexiot
