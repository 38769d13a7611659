#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "smarthome/device.h"

namespace fexiot {

/// \brief Kind of a raw event-log record.
enum class LogKind {
  kStateChange = 0,  ///< device attribute changed (Figure 1b style entries)
  kCommand,          ///< an app issued a command to a device
  kSensorReading,    ///< periodic numeric sensor report (noise)
  kExecutionError,   ///< command failed; state unchanged (noise)
};

const char* LogKindName(LogKind kind);

/// \brief One record of a smart-home event log.
struct LogEntry {
  double timestamp = 0.0;  ///< seconds since simulation start
  int device_id = 0;
  DeviceType device = DeviceType::kLight;
  std::string attribute;
  /// Logical value ("on", "open", ...) for state changes/commands.
  std::string value;
  /// Raw numeric reading for kSensorReading records.
  std::optional<double> numeric_value;
  LogKind kind = LogKind::kStateChange;
  /// Rule that caused this entry (-1 for exogenous events).
  int source_rule_id = -1;

  /// Renders "12:30:01 kitchen light switch on" style text.
  std::string ToString() const;
};

/// \brief One entry as the cleaned log keeps it (Section III-A2): the raw
/// entry with its cleaned kind and logical value. For a numeric reading
/// the kind is kStateChange and the value its Jenks class label ("low" or
/// "high", a static string); otherwise both are the entry's own.
struct CleanedEntry {
  const LogEntry* entry = nullptr;
  LogKind kind = LogKind::kStateChange;
  const std::string* value = nullptr;
};

/// \brief An ordered event log plus cleaning utilities (Section III-A2).
class EventLog {
 public:
  EventLog() = default;
  explicit EventLog(std::vector<LogEntry> entries)
      : entries_(std::move(entries)) {}

  void Append(LogEntry entry) { entries_.push_back(std::move(entry)); }

  const std::vector<LogEntry>& entries() const { return entries_; }
  std::vector<LogEntry>& mutable_entries() { return entries_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// \brief Cleans the log per the paper: drops repetitive sensor readings
  /// and execution errors that do not change device state, and converts
  /// numeric readings into logical values ("low"/"high") with Jenks natural
  /// breaks computed per numeric device. Returns the cleaned log; the
  /// original is untouched. Built on ForEachCleaned.
  EventLog Cleaned() const;

  /// \brief The cleaning rules as one pass that copies nothing: calls
  /// \p keep for every entry Cleaned() keeps, in log order, with the
  /// entry's cleaned kind and value (pointers into this log or to static
  /// labels). The rules, per device id:
  ///  - an entry with a non-finite timestamp is dropped as if absent: it
  ///    takes no part in the Jenks fit or the repeat check below, so no
  ///    NaN or infinite time reaches a consumer's window test;
  ///  - execution errors are dropped;
  ///  - a numeric reading is dropped unless it is finite and its device
  ///    has at least 4 finite readings with two-class Jenks breaks
  ///    (JenksBreaks::Compute may refuse them), which turn it into a
  ///    "low"/"high" state change;
  ///  - a state change repeating the device's last kept value is dropped.
  /// Cleaning is idempotent: a cleaned log has no errors or readings and
  /// no repeats, so this pass keeps all of it.
  void ForEachCleaned(
      const std::function<void(const CleanedEntry&)>& keep) const;

  /// \brief Sorts entries by timestamp (stable).
  void SortByTime();

 private:
  std::vector<LogEntry> entries_;
};

}  // namespace fexiot
