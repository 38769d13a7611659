#pragma once

// In-memory span recorder for the traced benchmark run. Each benchmark
// worker thread owns one tracer and opens and closes spans around each
// public call into a layer; after the measured phase the workers' spans
// are absorbed into one tracer, summarized, and optionally written as JSON
// Lines. A disabled tracer records nothing and costs one branch per call.

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace fexiot {
namespace e2e {

class Tracer {
 public:
  /// Span index returned when tracing is off.
  static constexpr int kNone = -1;

  /// \p worker tags every span this tracer records.
  explicit Tracer(bool enabled, int worker = 0)
      : enabled_(enabled), worker_(worker) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }

  /// Opens span \p name (a string literal: layer.function) as a child of
  /// the innermost open span. \p item is the item or request id.
  int Begin(const char* name, int64_t item) {
    if (!enabled_) return kNone;
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back({name, Parent(), worker_, item, NowNs(), 0});
    stack_.push_back(idx);
    return idx;
  }

  /// Closes the innermost open span \p idx; \p rename, when given,
  /// replaces its name (for calls whose kind is known only on return).
  void End(int idx, const char* rename = nullptr) {
    if (idx < 0) return;
    Span& s = spans_[static_cast<size_t>(idx)];
    s.end_ns = NowNs();
    if (rename != nullptr) s.name = rename;
    stack_.pop_back();
  }

  /// Records an already-finished span under the innermost open span.
  void Record(const char* name, int64_t item, int64_t start_ns,
              int64_t end_ns) {
    if (!enabled_) return;
    spans_.push_back({name, Parent(), worker_, item, start_ns, end_ns});
  }

  /// Appends the finished spans of another (worker's) tracer.
  void Absorb(const Tracer& other) {
    const int offset = static_cast<int>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += offset;
      spans_.push_back(s);
    }
  }

  struct NameStats {
    std::string name;
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
    double p50_us = 0.0;
    double p95_us = 0.0;
  };

  /// Per span name: count, total and self time (duration minus the part
  /// covered by child spans), and duration percentiles.
  std::vector<NameStats> Summarize() const {
    const std::vector<double> self = SelfNs();
    std::map<std::string, std::vector<double>> durations;
    std::map<std::string, NameStats> stats;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      NameStats& st = stats[s.name];
      st.name = s.name;
      ++st.count;
      st.total_ms += dur * 1e-6;
      st.self_ms += self[i] * 1e-6;
      durations[s.name].push_back(dur * 1e-3);
    }
    std::vector<NameStats> out;
    for (auto& [name, st] : stats) {
      const LatencySummary d = e2e::Summarize(durations[name]);
      st.p50_us = d.p50;
      st.p95_us = d.p95;
      out.push_back(st);
    }
    return out;
  }

  /// Self time, in seconds, of every span whose name starts with
  /// \p prefix (a layer "gnn." or one function "gnn.forward").
  double SelfSeconds(const std::string& prefix) const {
    const std::vector<double> self = SelfNs();
    double ns = 0.0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (std::string(spans_[i].name).rfind(prefix, 0) == 0) ns += self[i];
    }
    return ns * 1e-9;
  }

  /// Total duration, in seconds, of spans with no parent.
  double TopLevelSeconds() const {
    double ns = 0.0;
    for (const Span& s : spans_) {
      if (s.parent < 0) ns += static_cast<double>(s.end_ns - s.start_ns);
    }
    return ns * 1e-9;
  }

  /// Writes one JSON object per span: id, name, parent id (-1 = none),
  /// worker, item id, start and end in steady_clock nanoseconds.
  bool WriteJsonl(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                   "\"worker\": %d, \"item\": %lld, \"start_ns\": %lld, "
                   "\"end_ns\": %lld}\n",
                   i, s.name, s.parent, s.worker, static_cast<long long>(s.item),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    int parent;
    int worker;
    int64_t item;
    int64_t start_ns;
    int64_t end_ns;
  };

  int Parent() const { return stack_.empty() ? -1 : stack_.back(); }

  std::vector<double> SelfNs() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<size_t>(s.parent)] -=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    return self;
  }

  bool enabled_;
  int worker_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t item)
      : tracer_(tracer), idx_(tracer->Begin(name, item)) {}
  ~ScopedSpan() { tracer_->End(idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int idx_;
};

}  // namespace e2e
}  // namespace fexiot
