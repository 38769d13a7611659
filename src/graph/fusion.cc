#include "graph/fusion.h"

#include <array>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>

namespace fexiot {
namespace {

/// The text half of fused nodes' features (RuleTextEmbedding), memoized
/// by the exact text it is a function of. One table for the whole
/// process, filled only by OnlineGraphBuilder::Build: a home's deployed
/// rules do not change between windows, so every window after a rule's
/// first firing copies its text features instead of re-embedding them.
class TextFeatureMemo {
 public:
  static TextFeatureMemo& Get() {
    static TextFeatureMemo memo;
    return memo;
  }

  /// Appends RuleTextEmbedding(rule) to \p out.
  void Append(const Rule& rule, std::vector<double>* out) {
    const std::string key = Key(rule);
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      const auto it = table_.find(key);
      if (it != table_.end()) {
        out->insert(out->end(), it->second.begin(), it->second.end());
        return;
      }
    }
    std::vector<double> text = RuleTextEmbedding(rule);
    out->insert(out->end(), text.begin(), text.end());
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (table_.size() < OnlineGraphBuilder::kTextMemoCapacity) {
      table_.try_emplace(key, std::move(text));
    }
  }

  size_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return table_.size();
  }

 private:
  /// The text RuleTextEmbedding reads, tagged by the encoder that reads
  /// it. The trigger text's length keeps a pair key unambiguous.
  static std::string Key(const Rule& rule) {
    std::string key;
    if (PlatformFeatureDim(rule.platform) == kHeteroFeatureDim) {
      key.append("s").append(rule.description);
    } else {
      key.append("p")
          .append(std::to_string(rule.trigger_text.size()))
          .append(":")
          .append(rule.trigger_text)
          .append(rule.action_text);
    }
    return key;
  }

  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, std::vector<double>> table_;
};

/// One record of the cleaned log, as mining reads it.
struct Record {
  double time;
  LogKind kind;
  const std::string* value;  ///< into the log, or a static class label
};

/// The cleaned log's records grouped by device type, each group in log
/// order: one cleaning pass, then a stable counting sort by type.
class DeviceTimelines {
 public:
  explicit DeviceTimelines(const EventLog& log) {
    std::vector<std::pair<int, Record>> kept;
    kept.reserve(log.size());
    log.ForEachCleaned([&kept](const CleanedEntry& c) {
      // No deployed rule names an unknown device type.
      const int d = TypeIndex(c.entry->device);
      if (d >= 0) kept.push_back({d, {c.entry->timestamp, c.kind, c.value}});
    });
    for (const auto& [d, r] : kept) ++begin_[static_cast<size_t>(d) + 1];
    for (size_t d = 1; d < begin_.size(); ++d) begin_[d] += begin_[d - 1];
    records_.resize(kept.size());
    std::array<size_t, kNumDeviceTypes + 1> next = begin_;
    for (const auto& [d, r] : kept) records_[next[static_cast<size_t>(d)]++] = r;
  }

  /// Device type \p d's records (none for an unknown type).
  std::span<const Record> Of(DeviceType d) const {
    const int i = TypeIndex(d);
    if (i < 0) return {};
    const size_t first = begin_[static_cast<size_t>(i)];
    return {records_.data() + first,
            begin_[static_cast<size_t>(i) + 1] - first};
  }

 private:
  static int TypeIndex(DeviceType d) {
    const int i = static_cast<int>(d);
    return i >= 0 && i < kNumDeviceTypes ? i : -1;
  }

  std::array<size_t, kNumDeviceTypes + 1> begin_{};
  std::vector<Record> records_;
};

/// The window test of the mining, inclusive at both ends. Cleaning drops
/// entries with a non-finite time, so every time and bound is finite.
bool InWindow(double t, double lo, double hi) { return lo <= t && t <= hi; }

bool AnyInWindow(const std::vector<double>& times, double lo, double hi) {
  for (double t : times) {
    if (InWindow(t, lo, hi)) return true;
  }
  return false;
}

/// One action's evidence in the log: the times of state changes to, and
/// of commands for, its state on its device.
struct ActionTimes {
  std::vector<double> effects;
  std::vector<double> commands;
};

}  // namespace

size_t OnlineGraphBuilder::TextMemoSize() {
  return TextFeatureMemo::Get().size();
}

InteractionGraph OnlineGraphBuilder::Build(const EventLog& log) const {
  const DeviceTimelines timeline(log);
  TextFeatureMemo& memo = TextFeatureMemo::Get();

  InteractionGraph g;
  // Per fired node, the index of its rule in home_.rules.
  std::vector<size_t> fired;
  std::vector<double> triggers;
  std::vector<ActionTimes> actions;

  // Pass 1: detect rule firings. A rule fired at time t if its trigger
  // event appears at t and each action's state appears within the window.
  for (size_t r = 0; r < home_.rules.size(); ++r) {
    const Rule& rule = home_.rules[r];
    triggers.clear();
    for (const Record& e : timeline.Of(rule.trigger.device)) {
      if (e.kind == LogKind::kStateChange && *e.value == rule.trigger.state) {
        triggers.push_back(e.time);
      }
    }
    if (triggers.empty()) continue;
    actions.resize(rule.actions.size());
    for (size_t k = 0; k < rule.actions.size(); ++k) {
      const Action& a = rule.actions[k];
      ActionTimes& at = actions[k];
      at.effects.clear();
      at.commands.clear();
      for (const Record& e : timeline.Of(a.device)) {
        if (*e.value != a.state) continue;
        if (e.kind == LogKind::kStateChange) {
          at.effects.push_back(e.time);
        } else if (e.kind == LogKind::kCommand) {
          at.commands.push_back(e.time);
        }
      }
    }

    double last_fire = -1.0;
    int fires = 0;
    int command_hits = 0, command_total = 0;
    for (double t : triggers) {
      // Do all actions materialize in the window?
      bool all_actions = true;
      for (size_t k = 0; k < rule.actions.size() && all_actions; ++k) {
        all_actions =
            AnyInWindow(actions[k].effects, t, t + kFiringWindowS);
      }
      if (!all_actions) continue;
      ++fires;
      last_fire = t;
      // Consistency mining around this firing.
      for (size_t k = 0; k < rule.actions.size(); ++k) {
        ++command_total;
        if (AnyInWindow(actions[k].commands, t - kConsistencyWindowS,
                        t + kFiringWindowS)) {
          ++command_hits;
        }
      }
    }
    if (fires == 0) continue;
    // Effect consistency: commands for this rule's action devices followed
    // by the commanded state.
    int effect_hits = 0, effect_total = 0;
    for (size_t k = 0; k < rule.actions.size(); ++k) {
      for (double c : actions[k].commands) {
        ++effect_total;
        if (AnyInWindow(actions[k].effects, c,
                        c + kConsistencyWindowS)) {
          ++effect_hits;
        }
      }
    }

    GraphNode node;
    node.rule = rule;
    node.event_time = last_fire;
    std::vector<double>& f = node.features;
    f.reserve(static_cast<size_t>(PlatformFeatureDim(rule.platform)));
    memo.Append(rule, &f);
    f.resize(f.size() + kExtraFeatureDims, 0.0);
    SetTimeOfDayDims(last_fire, &f);
    const double cmd_consistency =
        command_total > 0
            ? static_cast<double>(command_hits) / command_total
            : 1.0;
    const double eff_consistency =
        effect_total > 0 ? static_cast<double>(effect_hits) / effect_total
                         : 1.0;
    f[f.size() - kFeatureDimCommandConsistency] =
        kConsistencyScale * (cmd_consistency - 1.0);
    f[f.size() - kFeatureDimEffectConsistency] =
        kConsistencyScale * (eff_consistency - 1.0);
    g.AddNode(std::move(node));
    fired.push_back(r);
  }

  // A rule id names the last fired node of that id (ids may repeat).
  std::vector<int> node_of(home_.rules.size(), -1);
  for (size_t r = 0; r < home_.rules.size(); ++r) {
    for (size_t v = fired.size(); v-- > 0;) {
      if (home_.rules[fired[v]].id == home_.rules[r].id) {
        node_of[r] = static_cast<int>(v);
        break;
      }
    }
  }

  // Pass 2: edges from the deployed rules' trigger-action logic, restricted
  // to rules that actually fired, honoring time order.
  for (size_t a = 0; a < home_.rules.size(); ++a) {
    if (node_of[a] < 0) continue;
    const Rule& ra = home_.rules[a];
    for (size_t b = 0; b < home_.rules.size(); ++b) {
      const Rule& rb = home_.rules[b];
      if (ra.id == rb.id || node_of[b] < 0) continue;
      if (!ActionTriggersRule(ra, rb)) continue;
      g.AddEdge(node_of[a], node_of[b]);
    }
  }
  AugmentRelationalFeatures(&g);
  return g;
}

}  // namespace fexiot
