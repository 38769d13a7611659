#pragma once

// Order statistics, digests and process probes shared by the end-to-end
// workloads. Header-only; everything here is deterministic except the
// clock and /proc reads.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "serving/arrivals.h"

namespace fexiot {
namespace e2e {

// Percentiles and the latency summary (which carries its sample count) are
// the repository's bench helpers.
using bench::LatencySummary;
using bench::Percentile;
using bench::Summarize;

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds (the span timestamp unit).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// \brief Completions bucketed into fixed wall-time windows from a common
/// start. Throughput is the median rate over the windows, so a burst of
/// interference on the host moves a few windows, not the reported value.
/// One counter per worker thread; merge them when the phase ends.
class WindowCounter {
 public:
  WindowCounter(int64_t start_ns, double window_s)
      : start_ns_(start_ns), window_ns_(static_cast<int64_t>(window_s * 1e9)) {}

  void Add(int64_t t_ns) {
    if (t_ns < start_ns_) return;
    const size_t w = static_cast<size_t>((t_ns - start_ns_) / window_ns_);
    if (counts_.size() <= w) counts_.resize(w + 1, 0);
    ++counts_[w];
  }

  void Merge(const WindowCounter& other) {
    if (counts_.size() < other.counts_.size()) counts_.resize(other.counts_.size(), 0);
    for (size_t w = 0; w < other.counts_.size(); ++w) counts_[w] += other.counts_[w];
  }

  /// Median completions per second over the windows that closed by
  /// \p end_ns; falls back to the overall rate when none did.
  double MedianRate(int64_t end_ns) const {
    const size_t full = static_cast<size_t>(std::max<int64_t>(0, end_ns - start_ns_) / window_ns_);
    std::vector<double> rates;
    double total = 0.0;
    for (size_t w = 0; w < counts_.size(); ++w) {
      total += static_cast<double>(counts_[w]);
      if (w < full) rates.push_back(static_cast<double>(counts_[w]) * 1e9 / window_ns_);
    }
    if (!rates.empty()) return Percentile(rates, 50.0);
    return end_ns > start_ns_ ? total * 1e9 / static_cast<double>(end_ns - start_ns_) : 0.0;
  }

 private:
  int64_t start_ns_;
  int64_t window_ns_;
  std::vector<uint64_t> counts_;
};

/// \brief Due times, in seconds from the schedule's start, of every
/// arrival of a seeded Poisson process (ArrivalGenerator) before
/// \p horizon_s. An open-loop sender sends request k at due(k) whatever
/// happened to earlier requests, and times it from due(k).
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double rate_hz, uint64_t seed, double horizon_s) {
    ArrivalConfig ac;
    ac.rate_hz = rate_hz;
    ac.seed = seed;
    ArrivalGenerator gen(ac);
    for (double t = gen.Next(); t < horizon_s; t = gen.Next()) due_.push_back(t);
  }

  size_t size() const { return due_.size(); }
  double due(size_t k) const { return due_[k]; }

 private:
  std::vector<double> due_;
};

/// \brief 64-bit FNV-1a over raw bytes; doubles are hashed by bit pattern,
/// so two digests agree only when every value is bit-identical.
class Digest {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { Bytes(&v, sizeof(v)); }
  void F64s(const std::vector<double>& v) {
    U64(v.size());
    if (!v.empty()) Bytes(v.data(), v.size() * sizeof(double));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Peak resident set size of this process (VmHWM) in MiB; 0 if unknown.
inline double PeakRssMiB() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace e2e
}  // namespace fexiot
