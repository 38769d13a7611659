#pragma once

// Test-only fusion oracle.
//
// Production fusion (graph/fusion.cc) cleans the raw log and mines it in
// one pass, over per-device-type arrays that point into the log, and
// takes each fused node's text features from a process-wide memo. This
// header keeps the construction it replaced, verbatim but for reading the
// mining windows from graph/fusion.h: EventLog::Cleaned() as a copy of the
// log, OnlineGraphBuilder::Build over a std::map of device timelines with
// copied value strings and ComputeNodeFeatures per node, and FexIoT::Fuse
// as clean-then-build with the checker run twice. Tests pin the
// production path to it bit for bit.
//
// The oracle's cleaning has no guard for non-finite readings (production
// drops them; the old Jenks fit read out of bounds on them) or non-finite
// timestamps (production drops those entries; the oracle's window test
// counts a NaN time as inside every window), so tests feed it logs
// without either.

#include <map>
#include <string>
#include <vector>

#include "graph/fusion.h"
#include "graph/vuln_checker.h"
#include "nlp/jenks.h"
#include "smarthome/event_log.h"

namespace fexiot {
namespace testing {

/// EventLog::Cleaned() as it was: a rewritten copy of the log.
inline EventLog OracleCleaned(const EventLog& log) {
  // Pass 1: collect numeric readings per device to fit Jenks breaks.
  std::map<int, std::vector<double>> numeric_by_device;
  for (const auto& e : log.entries()) {
    if (e.kind == LogKind::kSensorReading && e.numeric_value.has_value()) {
      numeric_by_device[e.device_id].push_back(*e.numeric_value);
    }
  }
  std::map<int, std::vector<double>> breaks_by_device;
  for (auto& [id, values] : numeric_by_device) {
    if (values.size() >= 4) {
      breaks_by_device[id] = JenksBreaks::Compute(values, /*num_classes=*/2);
    }
  }

  // Pass 2: rewrite entries.
  EventLog out;
  std::map<int, std::string> last_value;  // per device, last logical value
  for (const auto& e : log.entries()) {
    if (e.kind == LogKind::kExecutionError) continue;  // noise
    LogEntry rewritten = e;
    if (e.kind == LogKind::kSensorReading) {
      if (!e.numeric_value.has_value()) continue;
      auto it = breaks_by_device.find(e.device_id);
      if (it == breaks_by_device.end()) continue;
      const int cls = JenksBreaks::Classify(*e.numeric_value, it->second);
      rewritten.value = JenksBreaks::ClassLabel(cls, 2);
      rewritten.numeric_value.reset();
      rewritten.kind = LogKind::kStateChange;
    }
    // Drop repetitive readings: consecutive identical logical values for
    // the same device do not change state. Only state changes participate
    // in the dedup — a command for a value must not swallow the state
    // change that realizes it.
    if (rewritten.kind == LogKind::kStateChange) {
      auto last = last_value.find(rewritten.device_id);
      if (last != last_value.end() && last->second == rewritten.value) {
        continue;
      }
      last_value[rewritten.device_id] = rewritten.value;
    }
    out.Append(std::move(rewritten));
  }
  return out;
}

/// A device's logical state-change timeline mined from the log.
struct OracleDeviceTimeline {
  std::vector<double> times;
  std::vector<std::string> values;
  std::vector<LogKind> kinds;
};

/// OnlineGraphBuilder::Build as it was, over a cleaned log.
inline InteractionGraph OracleBuild(const Home& home,
                                    const EventLog& cleaned_log) {
  const Home& home_ = home;
  const auto& entries = cleaned_log.entries();

  // Index log entries per device type.
  std::map<DeviceType, OracleDeviceTimeline> timeline;
  for (const auto& e : entries) {
    auto& t = timeline[e.device];
    t.times.push_back(e.timestamp);
    t.values.push_back(e.value);
    t.kinds.push_back(e.kind);
  }

  auto has_record = [&](DeviceType d, const std::string& value, double lo,
                        double hi, LogKind kind) {
    auto it = timeline.find(d);
    if (it == timeline.end()) return false;
    const auto& t = it->second;
    for (size_t i = 0; i < t.times.size(); ++i) {
      if (t.times[i] < lo || t.times[i] > hi) continue;
      if (t.kinds[i] == kind && t.values[i] == value) return true;
    }
    return false;
  };

  InteractionGraph g;
  std::map<int, int> rule_to_node;  // rule id -> node id

  // Pass 1: detect rule firings. A rule fired at time t if its trigger
  // event appears at t and each action's state appears within the window.
  for (const auto& rule : home_.rules) {
    auto it = timeline.find(rule.trigger.device);
    if (it == timeline.end()) continue;
    const auto& t = it->second;
    double last_fire = -1.0;
    int fires = 0;
    int command_hits = 0, command_total = 0;
    int effect_hits = 0, effect_total = 0;
    for (size_t i = 0; i < t.times.size(); ++i) {
      if (t.kinds[i] != LogKind::kStateChange) continue;
      if (t.values[i] != rule.trigger.state) continue;
      // Do all actions materialize in the window?
      bool all_actions = true;
      for (const auto& a : rule.actions) {
        if (!has_record(a.device, a.state, t.times[i],
                        t.times[i] + kFiringWindowS,
                        LogKind::kStateChange)) {
          all_actions = false;
        }
      }
      if (!all_actions) continue;
      ++fires;
      last_fire = t.times[i];
      // Consistency mining around this firing.
      for (const auto& a : rule.actions) {
        ++command_total;
        if (has_record(a.device, a.state,
                       t.times[i] - kConsistencyWindowS,
                       t.times[i] + kFiringWindowS,
                       LogKind::kCommand)) {
          ++command_hits;
        }
      }
    }
    // Effect consistency: commands for this rule's action devices followed
    // by the commanded state.
    for (const auto& a : rule.actions) {
      auto at = timeline.find(a.device);
      if (at == timeline.end()) continue;
      for (size_t i = 0; i < at->second.times.size(); ++i) {
        if (at->second.kinds[i] != LogKind::kCommand) continue;
        if (at->second.values[i] != a.state) continue;
        ++effect_total;
        if (has_record(a.device, a.state, at->second.times[i],
                       at->second.times[i] + kConsistencyWindowS,
                       LogKind::kStateChange)) {
          ++effect_hits;
        }
      }
    }
    if (fires == 0) continue;

    GraphNode node;
    node.rule = rule;
    node.event_time = last_fire;
    node.features = ComputeNodeFeatures(rule, last_fire);
    const double cmd_consistency =
        command_total > 0
            ? static_cast<double>(command_hits) / command_total
            : 1.0;
    const double eff_consistency =
        effect_total > 0 ? static_cast<double>(effect_hits) / effect_total
                         : 1.0;
    node.features[node.features.size() - kFeatureDimCommandConsistency] =
        kConsistencyScale * (cmd_consistency - 1.0);
    node.features[node.features.size() - kFeatureDimEffectConsistency] =
        kConsistencyScale * (eff_consistency - 1.0);
    rule_to_node[rule.id] = g.AddNode(std::move(node));
  }

  // Pass 2: edges from the deployed rules' trigger-action logic, restricted
  // to rules that actually fired, honoring time order.
  for (const auto& ra : home_.rules) {
    auto ia = rule_to_node.find(ra.id);
    if (ia == rule_to_node.end()) continue;
    for (const auto& rb : home_.rules) {
      if (ra.id == rb.id) continue;
      auto ib = rule_to_node.find(rb.id);
      if (ib == rule_to_node.end()) continue;
      if (!ActionTriggersRule(ra, rb)) continue;
      g.AddEdge(ia->second, ib->second);
    }
  }
  AugmentRelationalFeatures(&g);
  return g;
}

/// FexIoT::Fuse as it was: clean, build, then label from the checker.
inline InteractionGraph OracleFuse(const Home& home, const EventLog& raw_log) {
  const EventLog cleaned = OracleCleaned(raw_log);
  InteractionGraph g = OracleBuild(home, cleaned);
  if (VulnerabilityChecker::IsVulnerable(g)) {
    g.set_label(1);
    const auto findings = VulnerabilityChecker::Check(g);
    if (!findings.empty()) {
      g.set_vulnerability(findings.front().type);
      g.set_witness(findings.front().witness_nodes);
    }
  }
  return g;
}

}  // namespace testing
}  // namespace fexiot
