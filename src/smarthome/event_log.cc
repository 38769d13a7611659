#include "smarthome/event_log.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "nlp/jenks.h"

namespace fexiot {

const char* LogKindName(LogKind kind) {
  switch (kind) {
    case LogKind::kStateChange:
      return "state";
    case LogKind::kCommand:
      return "command";
    case LogKind::kSensorReading:
      return "reading";
    case LogKind::kExecutionError:
      return "error";
  }
  return "?";
}

std::string LogEntry::ToString() const {
  const int total = static_cast<int>(timestamp);
  const int h = (total / 3600) % 24;
  const int m = (total / 60) % 60;
  const int s = total % 60;
  char buf[160];
  if (numeric_value.has_value()) {
    std::snprintf(buf, sizeof(buf), "%02d:%02d:%02d dev%-3d %-12s %s=%.1f [%s]",
                  h, m, s, device_id, DeviceNoun(device).c_str(),
                  attribute.c_str(), *numeric_value, LogKindName(kind));
  } else {
    std::snprintf(buf, sizeof(buf), "%02d:%02d:%02d dev%-3d %-12s %s=%s [%s]",
                  h, m, s, device_id, DeviceNoun(device).c_str(),
                  attribute.c_str(), value.c_str(), LogKindName(kind));
  }
  return buf;
}

void EventLog::SortByTime() {
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const LogEntry& a, const LogEntry& b) {
                     return a.timestamp < b.timestamp;
                   });
}

namespace {

/// A reading with a logical value to give: numeric and finite.
bool IsFiniteReading(const LogEntry& e) {
  return e.kind == LogKind::kSensorReading && e.numeric_value.has_value() &&
         std::isfinite(*e.numeric_value);
}

/// The two-class Jenks label of class \p cls, as a static string.
const std::string& ClassLabel(int cls) {
  static const std::string kLabels[2] = {JenksBreaks::ClassLabel(0, 2),
                                         JenksBreaks::ClassLabel(1, 2)};
  return kLabels[cls == 0 ? 0 : 1];
}

}  // namespace

void EventLog::ForEachCleaned(
    const std::function<void(const CleanedEntry&)>& keep) const {
  // Jenks breaks per device id over its finite readings; a device with
  // fewer than 4 of them (or ones Compute refuses) has none.
  std::map<int, std::vector<double>> numeric_by_device;
  for (const auto& e : entries_) {
    if (std::isfinite(e.timestamp) && IsFiniteReading(e)) {
      numeric_by_device[e.device_id].push_back(*e.numeric_value);
    }
  }
  std::map<int, std::vector<double>> breaks_by_device;
  for (auto& [id, values] : numeric_by_device) {
    if (values.size() < 4) continue;
    std::vector<double> breaks =
        JenksBreaks::Compute(std::move(values), /*num_classes=*/2);
    if (!breaks.empty()) breaks_by_device.emplace(id, std::move(breaks));
  }

  // Per device id, the last kept state change's logical value.
  std::unordered_map<int, const std::string*> last_value;
  for (const auto& e : entries_) {
    if (!std::isfinite(e.timestamp)) continue;  // no place in time
    if (e.kind == LogKind::kExecutionError) continue;  // noise
    CleanedEntry c{&e, e.kind, &e.value};
    if (e.kind == LogKind::kSensorReading) {
      if (!IsFiniteReading(e)) continue;  // no logical value
      const auto it = breaks_by_device.find(e.device_id);
      if (it == breaks_by_device.end()) continue;
      c.value = &ClassLabel(JenksBreaks::Classify(*e.numeric_value, it->second));
      c.kind = LogKind::kStateChange;
    }
    // Drop repetitive readings: consecutive identical logical values for
    // the same device do not change state. Only state changes participate
    // in the dedup — a command for a value must not swallow the state
    // change that realizes it.
    if (c.kind == LogKind::kStateChange) {
      const auto [last, first] = last_value.try_emplace(e.device_id, c.value);
      if (!first) {
        if (*last->second == *c.value) continue;
        last->second = c.value;
      }
    }
    keep(c);
  }
}

EventLog EventLog::Cleaned() const {
  EventLog out;
  ForEachCleaned([&out](const CleanedEntry& c) {
    LogEntry e = *c.entry;
    if (e.kind == LogKind::kSensorReading) {
      e.value = *c.value;
      e.numeric_value.reset();
      e.kind = LogKind::kStateChange;
    }
    out.Append(std::move(e));
  });
  return out;
}

}  // namespace fexiot
