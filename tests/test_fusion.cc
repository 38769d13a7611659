// Online fusion pinned to the clean-copy, map-based construction it
// replaced (tests/fusion_oracle.h), bit for bit, on simulated windows of
// testbed and chained homes under every attack class and on hostile logs
// (the oracle sees each log without its non-finite-time entries, which
// cleaning drops); plus the properties the one-pass design relies on:
// cleaning is idempotent, Build accepts a raw or a cleaned log, and
// concurrent fusions sharing the process-wide text memo agree.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/fexiot.h"
#include "core/testbed.h"
#include "fusion_oracle.h"
#include "graph/corpus.h"
#include "serving/engine.h"
#include "smarthome/attacks.h"

namespace fexiot {
namespace {

using testing::OracleBuild;
using testing::OracleCleaned;
using testing::OracleFuse;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// \p log without its entries at a non-finite time: the log the oracle
/// must see for cleaning's first rule.
EventLog FiniteTimes(const EventLog& log) {
  std::vector<LogEntry> kept;
  for (const LogEntry& e : log.entries()) {
    if (std::isfinite(e.timestamp)) kept.push_back(e);
  }
  return EventLog(std::move(kept));
}

void ExpectSameLog(const EventLog& want, const EventLog& got,
                   const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    const LogEntry& a = want.entries()[i];
    const LogEntry& b = got.entries()[i];
    EXPECT_TRUE(SameBits(a.timestamp, b.timestamp)) << what << " entry " << i;
    EXPECT_EQ(a.device_id, b.device_id) << what << " entry " << i;
    EXPECT_EQ(a.device, b.device) << what << " entry " << i;
    EXPECT_EQ(a.attribute, b.attribute) << what << " entry " << i;
    EXPECT_EQ(a.value, b.value) << what << " entry " << i;
    ASSERT_EQ(a.numeric_value.has_value(), b.numeric_value.has_value())
        << what << " entry " << i;
    if (a.numeric_value) {
      EXPECT_TRUE(SameBits(*a.numeric_value, *b.numeric_value))
          << what << " entry " << i;
    }
    EXPECT_EQ(a.kind, b.kind) << what << " entry " << i;
    EXPECT_EQ(a.source_rule_id, b.source_rule_id) << what << " entry " << i;
  }
}

/// Node rules, event times and features bit for bit, and edges in order.
bool SameNodesAndEdges(const InteractionGraph& a, const InteractionGraph& b) {
  if (a.num_nodes() != b.num_nodes() || a.edges() != b.edges()) return false;
  for (int v = 0; v < a.num_nodes(); ++v) {
    const GraphNode& x = a.node(v);
    const GraphNode& y = b.node(v);
    if (x.rule.id != y.rule.id || !SameBits(x.event_time, y.event_time) ||
        x.features.size() != y.features.size() ||
        std::memcmp(x.features.data(), y.features.data(),
                    x.features.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Features, event times, rules, edges (in order), label, vulnerability,
/// witness and attack, bit for bit.
void ExpectSameGraph(const InteractionGraph& want, const InteractionGraph& got,
                     const std::string& what) {
  ASSERT_EQ(want.num_nodes(), got.num_nodes()) << what;
  for (int v = 0; v < want.num_nodes(); ++v) {
    const GraphNode& a = want.node(v);
    const GraphNode& b = got.node(v);
    EXPECT_EQ(a.rule.id, b.rule.id) << what << " node " << v;
    EXPECT_EQ(a.rule.description, b.rule.description) << what << " node " << v;
    EXPECT_TRUE(a.rule.trigger == b.rule.trigger) << what << " node " << v;
    EXPECT_TRUE(a.rule.actions == b.rule.actions) << what << " node " << v;
    EXPECT_TRUE(SameBits(a.event_time, b.event_time)) << what << " node " << v;
    ASSERT_EQ(a.features.size(), b.features.size()) << what << " node " << v;
    EXPECT_EQ(std::memcmp(a.features.data(), b.features.data(),
                          a.features.size() * sizeof(double)),
              0)
        << what << " node " << v;
  }
  EXPECT_EQ(want.edges(), got.edges()) << what;
  EXPECT_EQ(want.label(), got.label()) << what;
  EXPECT_EQ(want.vulnerability(), got.vulnerability()) << what;
  EXPECT_EQ(want.witness(), got.witness()) << what;
  EXPECT_EQ(want.has_attack(), got.has_attack()) << what;
}

EventLog SimulateWindow(const Home& home, Rng* rng) {
  SimulationConfig sc;
  sc.duration_seconds = 3.0 * 3600.0;
  sc.exogenous_mean_gap = 120.0;
  HomeSimulator sim(home, sc, rng);
  return sim.Run();
}

struct Case {
  std::string name;
  size_t home = 0;
  EventLog raw;
};

struct Inputs {
  std::vector<Home> homes;
  std::vector<Case> cases;
};

/// Simulated 3 h windows of testbed homes (benign rule sets) and chained
/// homes (internally vulnerable, with voice-platform rules), clean and
/// under each of the five attack classes; then hostile variants of some
/// of them and a home with repeated rule ids.
Inputs MakeInputs() {
  Inputs in;
  const TestbedOptions topt;
  for (int h = 0; h < 3; ++h) {
    Rng rng(4100 + static_cast<uint64_t>(h));
    in.homes.push_back(BuildTestbedHome(topt, &rng));
  }
  for (int h = 0; h < 2; ++h) {
    Rng rng(4200 + static_cast<uint64_t>(h));
    in.homes.push_back(BuildChainedHome(
        12, {Platform::kSmartThings, Platform::kIfttt, Platform::kAlexa},
        &rng));
  }
  Rng rng(4300);
  for (size_t h = 0; h < in.homes.size(); ++h) {
    for (int attack = -1; attack < kNumAttackTypes; ++attack) {
      EventLog raw = SimulateWindow(in.homes[h], &rng);
      std::string name = "home " + std::to_string(h) + " clean";
      if (attack >= 0) {
        const auto type = static_cast<AttackType>(attack);
        AttackInjector injector(in.homes[h], &rng);
        raw = injector.Inject(raw, type, 0.45).log;
        name = "home " + std::to_string(h) + " " + AttackTypeName(type);
      }
      in.cases.push_back({name, h, std::move(raw)});
    }
  }

  // Hostile variants of each home's clean window.
  const size_t simulated = in.cases.size();
  for (size_t c = 0; c < simulated; c += kNumAttackTypes + 1) {
    const Case base = in.cases[c];  // a copy: add() grows in.cases
    const std::vector<LogEntry>& entries = base.raw.entries();
    auto add = [&](const std::string& what, std::vector<LogEntry> e) {
      in.cases.push_back({base.name + ", " + what, base.home,
                          EventLog(std::move(e))});
    };

    std::vector<LogEntry> e = entries;
    rng.Shuffle(&e);
    add("unsorted", std::move(e));

    e.clear();
    for (const LogEntry& x : entries) {
      LogEntry y = x;
      y.timestamp = std::floor(x.timestamp / 600.0) * 600.0;
      e.push_back(y);
      e.push_back(y);  // exact duplicate records
    }
    add("duplicate timestamps", std::move(e));

    e = entries;
    for (LogEntry& x : e) x.kind = LogKind::kExecutionError;
    add("errors only", std::move(e));

    add("empty", {});

    e = entries;
    for (LogEntry& x : e) {
      if (x.kind == LogKind::kSensorReading) x.numeric_value.reset();
    }
    add("readings without values", std::move(e));

    // Every numeric device keeps only its first 3 readings.
    e.clear();
    std::map<int, int> readings_kept;
    for (const LogEntry& x : entries) {
      if (x.kind == LogKind::kSensorReading &&
          ++readings_kept[x.device_id] > 3) {
        continue;
      }
      e.push_back(x);
    }
    add("fewer than 4 readings", std::move(e));

    // Few readings with values on a state-changing device, plus a state
    // change that carries a numeric value.
    e = entries;
    for (size_t i = 0; i < entries.size(); i += 7) {
      LogEntry r = entries[i];
      r.kind = LogKind::kSensorReading;
      r.numeric_value = 10.0 + static_cast<double>(i % 5);
      e.push_back(r);
    }
    if (!e.empty()) e.front().numeric_value = 3.5;
    add("readings mixed into state changes", std::move(e));

    e = entries;
    for (size_t i = 0; i < e.size(); ++i) {
      if (i % 9 == 0) e[i].timestamp = kNaN;
      if (i % 9 == 3) e[i].timestamp = kInf;
      if (i % 9 == 6) e[i].timestamp = -kInf;
    }
    add("non-finite timestamps", std::move(e));
  }

  // Repeated rule ids: rules 2i and 2i + 1 of a chained home share an id.
  Home dup = in.homes[3];
  for (size_t r = 0; r < dup.rules.size(); ++r) {
    dup.rules[r].id = in.homes[3].rules[r / 2].id;
  }
  in.homes.push_back(dup);
  for (size_t c = 0; c < simulated; ++c) {
    if (in.cases[c].home != 3) continue;
    Case copy = in.cases[c];
    copy.name += ", repeated rule ids";
    copy.home = in.homes.size() - 1;
    in.cases.push_back(std::move(copy));
  }
  return in;
}

const Inputs& TestInputs() {
  static const Inputs inputs = MakeInputs();
  return inputs;
}

TEST(FusionOracle, CleanedMatchesOracle) {
  for (const Case& c : TestInputs().cases) {
    ExpectSameLog(OracleCleaned(FiniteTimes(c.raw)), c.raw.Cleaned(), c.name);
  }
}

TEST(FusionOracle, CleaningIsIdempotent) {
  for (const Case& c : TestInputs().cases) {
    const EventLog once = c.raw.Cleaned();
    ExpectSameLog(once, once.Cleaned(), c.name);
  }
}

TEST(FusionOracle, BuildMatchesOracleOnRawAndCleanedLogs) {
  const Inputs& in = TestInputs();
  size_t nodes = 0, edges = 0;
  for (const Case& c : in.cases) {
    const Home& home = in.homes[c.home];
    const InteractionGraph want =
        OracleBuild(home, OracleCleaned(FiniteTimes(c.raw)));
    const OnlineGraphBuilder builder(home);
    ExpectSameGraph(want, builder.Build(c.raw), c.name + " (raw)");
    ExpectSameGraph(want, builder.Build(c.raw.Cleaned()),
                    c.name + " (cleaned)");
    nodes += static_cast<size_t>(want.num_nodes());
    edges += static_cast<size_t>(want.num_edges());
  }
  // The inputs exercise mining, not just empty graphs.
  EXPECT_GT(nodes, in.cases.size());
  EXPECT_GT(edges, 0u);
}

TEST(FusionOracle, FuseMatchesOracle) {
  const Inputs& in = TestInputs();
  const FexIoT fexiot{FexIotConfig{}};
  int vulnerable = 0;
  for (const Case& c : in.cases) {
    const Home& home = in.homes[c.home];
    const InteractionGraph want = OracleFuse(home, FiniteTimes(c.raw));
    ExpectSameGraph(want, fexiot.Fuse(home, c.raw), c.name);
    vulnerable += want.label();
  }
  EXPECT_GT(vulnerable, 0);  // labels and witnesses are exercised
}

TEST(FusionOracle, ConcurrentFusesThroughTheSharedMemoAgree) {
  // Fresh homes, so the memo starts without their texts and the first
  // fusions race to fill it.
  std::vector<Home> homes;
  std::vector<EventLog> logs;
  for (int h = 0; h < 4; ++h) {
    Rng rng(4400 + static_cast<uint64_t>(h));
    homes.push_back(BuildChainedHome(
        10, {Platform::kSmartThings, Platform::kGoogleAssistant}, &rng));
    for (int w = 0; w < 3; ++w) logs.push_back(SimulateWindow(homes.back(), &rng));
  }
  std::vector<InteractionGraph> want;
  for (size_t i = 0; i < logs.size(); ++i) {
    want.push_back(OracleFuse(homes[i / 3], logs[i]));
  }
  const FexIoT fexiot{FexIotConfig{}};
  constexpr size_t kRepeats = 8;
  std::vector<InteractionGraph> got(logs.size() * kRepeats);
  parallel::SetThreads(4);
  parallel::For(got.size(), [&](size_t i) {
    const size_t w = i % logs.size();
    got[i] = fexiot.Fuse(homes[w / 3], logs[w]);
  });
  parallel::SetThreads(0);
  for (size_t i = 0; i < got.size(); ++i) {
    ExpectSameGraph(want[i % logs.size()], got[i],
                    "window " + std::to_string(i % logs.size()));
  }
}

TEST(FusionOracle, NonFiniteTimestampsAreDropped) {
  // Every case above compares against the oracle on the log without its
  // non-finite-time entries. The oracle on the whole log keeps them: a
  // NaN time counts as inside every window (a NaN trigger fires its rule
  // with a NaN event time, a NaN state change completes every pending
  // trigger of a rule with that action), and kept entries take part in
  // the repeat check. Each of the five windows (homes 0-4, clean, with a
  // third of the entries at NaN, +inf or -inf) fused differently that way.
  const Inputs& in = TestInputs();
  std::vector<std::string> cases, changed;
  for (const Case& c : in.cases) {
    if (c.name.find("non-finite timestamps") == std::string::npos) continue;
    cases.push_back(c.name);
    const Home& home = in.homes[c.home];
    const InteractionGraph got = OnlineGraphBuilder(home).Build(c.raw);
    ExpectSameGraph(OracleBuild(home, OracleCleaned(FiniteTimes(c.raw))), got,
                    c.name);
    if (!SameNodesAndEdges(OracleBuild(home, OracleCleaned(c.raw)), got)) {
      changed.push_back(c.name);
    }
  }
  EXPECT_EQ(cases.size(), 5u);
  EXPECT_EQ(changed, cases);
}

TEST(FusionOracle, NonFiniteReadingsAreDropped) {
  // A numeric device with readings {20, 21, 22, inf}, and one whose four
  // finite readings are joined by a NaN: cleaning drops the non-finite
  // readings, so the first device has too few to classify.
  const Inputs& in = TestInputs();
  const Case& base = in.cases.front();
  std::vector<LogEntry> entries = base.raw.entries();
  std::vector<LogEntry> finite = entries;
  auto reading = [](int device_id, double t, double v) {
    LogEntry e;
    e.timestamp = t;
    e.device_id = device_id;
    e.device = DeviceType::kTemperatureSensor;
    e.attribute = "temperature";
    e.numeric_value = v;
    e.kind = LogKind::kSensorReading;
    return e;
  };
  const double values_a[] = {20.0, 21.0, 22.0, kInf};
  const double values_b[] = {18.0, kNaN, 19.0, 30.0, 31.0};
  for (int i = 0; i < 4; ++i) {
    entries.push_back(reading(900, 100.0 + i, values_a[i]));
    if (std::isfinite(values_a[i])) {
      finite.push_back(reading(900, 100.0 + i, values_a[i]));
    }
  }
  for (int i = 0; i < 5; ++i) {
    entries.push_back(reading(901, 200.0 + i, values_b[i]));
    if (std::isfinite(values_b[i])) {
      finite.push_back(reading(901, 200.0 + i, values_b[i]));
    }
  }
  entries.push_back(reading(902, 300.0, -kInf));
  const EventLog raw(std::move(entries));
  const EventLog without(std::move(finite));

  const EventLog cleaned = raw.Cleaned();
  ExpectSameLog(OracleCleaned(without), cleaned, "cleaned");
  int from_901 = 0;
  for (const LogEntry& e : cleaned.entries()) {
    EXPECT_NE(e.device_id, 900);
    EXPECT_NE(e.device_id, 902);
    from_901 += e.device_id == 901;
  }
  EXPECT_EQ(from_901, 2);  // low, then high

  const Home& home = in.homes[base.home];
  ExpectSameGraph(OracleFuse(home, without), FexIoT(FexIotConfig{}).Fuse(home, raw),
                  "fused");
}

TEST(FusionMemo, OnlyFusionFillsIt) {
  Rng rng(4500);
  const Home home = BuildChainedHome(
      10, {Platform::kSmartThings, Platform::kIfttt, Platform::kAlexa}, &rng);
  const size_t before = OnlineGraphBuilder::TextMemoSize();

  // Corpus generation and serving registration embed rule texts without
  // the memo.
  CorpusOptions copt;
  copt.platforms = {Platform::kIfttt, Platform::kAlexa};
  GraphCorpusGenerator gen(copt, &rng);
  EXPECT_FALSE(gen.GenerateDataset(12).empty());
  for (const Rule& rule : home.rules) {
    EXPECT_EQ(ComputeNodeFeatures(rule, 10.0).size(),
              static_cast<size_t>(PlatformFeatureDim(rule.platform)));
  }
  GnnConfig gc;
  gc.type = GnnType::kGin;
  const GnnModel model(gc);
  StreamingDetectionEngine engine(&model, ServingConfig{});
  ASSERT_TRUE(engine.AddHome(7, home).ok());
  EXPECT_EQ(OnlineGraphBuilder::TextMemoSize(), before);

  // Fusing holds at most one entry per deployed rule, however often.
  const FexIoT fexiot{FexIotConfig{}};
  int fused_nodes = 0;
  for (int w = 0; w < 4; ++w) {
    fused_nodes += fexiot.Fuse(home, SimulateWindow(home, &rng)).num_nodes();
  }
  EXPECT_GT(fused_nodes, 0);
  EXPECT_GT(OnlineGraphBuilder::TextMemoSize(), before);
  EXPECT_LE(OnlineGraphBuilder::TextMemoSize(), before + home.rules.size());
}

TEST(FusionMemo, KeysKeepTextsApart) {
  // Texts that concatenate alike, and a voice rule whose description
  // spells a pair key: each rule keeps its own text features.
  auto rule = [](Platform p, const std::string& trigger_text,
                 const std::string& action_text,
                 const std::string& description) {
    Rule r;
    r.platform = p;
    r.trigger = {DeviceType::kMotionSensor, "active"};
    r.actions = {{DeviceType::kLight, "on"}};
    r.trigger_text = trigger_text;
    r.action_text = action_text;
    r.description = description;
    return r;
  };
  EventLog log;
  LogEntry trigger;
  trigger.timestamp = 10.0;
  trigger.device = DeviceType::kMotionSensor;
  trigger.value = "active";
  log.Append(trigger);
  LogEntry effect = trigger;
  effect.timestamp = 11.0;
  effect.device = DeviceType::kLight;
  effect.value = "on";
  log.Append(effect);
  const std::vector<Rule> rules = {
      rule(Platform::kIfttt, "motion dete", "cted light on", "d"),
      rule(Platform::kIfttt, "motion detected", " light on", "d"),
      rule(Platform::kAlexa, "t", "a", "11:motion detected light"),
      rule(Platform::kSmartThings, "motion dete", "cted light", "x"),
      rule(Platform::kIfttt, "motion detected ", "light", "e"),
  };
  for (int pass = 0; pass < 2; ++pass) {  // the second pass reads the memo
    for (const Rule& r : rules) {
      Home home;
      home.rules = {r};
      ExpectSameGraph(OracleBuild(home, OracleCleaned(log)),
                      OnlineGraphBuilder(home).Build(log), r.description);
    }
  }
}

TEST(FusionMemo, HoldsAtMostItsCapacity) {
  // One-rule homes with distinct texts, each fired once: past the
  // capacity, texts are embedded without being held, and fused features
  // still match the oracle.
  const size_t n = OnlineGraphBuilder::kTextMemoCapacity + 8;
  EventLog log;
  LogEntry trigger;
  trigger.timestamp = 10.0;
  trigger.device = DeviceType::kMotionSensor;
  trigger.value = "active";
  log.Append(trigger);
  LogEntry effect;
  effect.timestamp = 11.0;
  effect.device_id = 1;
  effect.device = DeviceType::kLight;
  effect.value = "on";
  log.Append(effect);
  for (size_t i = 0; i < n; ++i) {
    Home home;
    Rule rule;
    rule.id = static_cast<int>(i);
    rule.platform = i % 2 == 0 ? Platform::kIfttt : Platform::kAlexa;
    rule.trigger = {DeviceType::kMotionSensor, "active"};
    rule.actions = {{DeviceType::kLight, "on"}};
    rule.trigger_text = "motion zq" + std::to_string(i) + " is detected";
    rule.action_text = "turn on the light";
    rule.description = "if " + rule.trigger_text + " then turn on the light";
    home.rules.push_back(rule);
    const InteractionGraph got = OnlineGraphBuilder(home).Build(log);
    ASSERT_EQ(got.num_nodes(), 1);
    if (i % 512 == 0 || i + 8 >= n) {
      ExpectSameGraph(OracleBuild(home, OracleCleaned(log)), got,
                      "rule " + std::to_string(i));
    }
  }
  EXPECT_EQ(OnlineGraphBuilder::TextMemoSize(),
            OnlineGraphBuilder::kTextMemoCapacity);
}

}  // namespace
}  // namespace fexiot
