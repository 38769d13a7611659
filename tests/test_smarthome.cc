#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "smarthome/attacks.h"
#include "smarthome/device.h"
#include "smarthome/event_log.h"
#include "smarthome/home.h"
#include "smarthome/platform.h"
#include "smarthome/rule.h"
#include "smarthome/vulnerability.h"

namespace fexiot {
namespace {

TEST(Device, MetadataConsistency) {
  for (DeviceType t : AllDeviceTypes()) {
    const DeviceTypeInfo& info = GetDeviceTypeInfo(t);
    EXPECT_EQ(info.type, t);
    EXPECT_FALSE(info.noun.empty());
    EXPECT_GE(info.states.size(), 2u) << info.noun;
    EXPECT_TRUE(IsValidState(t, ActiveState(t)));
  }
}

TEST(Device, OppositeStateInvolution) {
  for (DeviceType t : AllDeviceTypes()) {
    const auto& states = GetDeviceTypeInfo(t).states;
    if (states.size() != 2) continue;
    // opposite(opposite(s)) == s for binary domains.
    for (const auto& s : states) {
      EXPECT_EQ(OppositeState(t, OppositeState(t, s)), s);
      EXPECT_NE(OppositeState(t, s), s);
    }
  }
}

TEST(Device, ActuatorsAndSensorsPartition) {
  for (DeviceType t : ActuatorTypes()) {
    EXPECT_FALSE(GetDeviceTypeInfo(t).is_sensor);
  }
}

TEST(Rule, TriggerPhraseReadsNaturally) {
  EXPECT_EQ(TriggerPhrase({DeviceType::kSmokeDetector, "detected"}),
            "smoke is detected");
  EXPECT_EQ(TriggerPhrase({DeviceType::kMotionSensor, "active"}),
            "motion is detected");
  EXPECT_EQ(TriggerPhrase({DeviceType::kClock, "sunset"}), "it is sunset");
  EXPECT_EQ(TriggerPhrase({DeviceType::kLight, "on"}),
            "the light turns on");
}

TEST(Rule, ActionPhraseReadsNaturally) {
  EXPECT_EQ(ActionPhrase({DeviceType::kLight, "on"}), "turn on the light");
  EXPECT_EQ(ActionPhrase({DeviceType::kDoorLock, "locked"}),
            "lock the lock");
  EXPECT_EQ(ActionPhrase({DeviceType::kWaterValve, "open"}),
            "open the valve");
  EXPECT_EQ(ActionPhrase({DeviceType::kPhone, "sent"}),
            "send a notification");
}

TEST(Rule, DirectActionTriggerCausality) {
  const Action act{DeviceType::kLight, "on"};
  EXPECT_TRUE(ActionCausesTrigger(act, Trigger{DeviceType::kLight, "on"}));
  EXPECT_FALSE(ActionCausesTrigger(act, Trigger{DeviceType::kLight, "off"}));
  EXPECT_FALSE(ActionCausesTrigger(act, Trigger{DeviceType::kFan, "on"}));
}

TEST(Rule, EnvironmentChannelCausality) {
  // Heater on raises temperature -> "temperature high" trigger fires.
  EXPECT_TRUE(ActionCausesTrigger(
      Action{DeviceType::kHeater, "on"},
      Trigger{DeviceType::kTemperatureSensor, "high"}));
  EXPECT_FALSE(ActionCausesTrigger(
      Action{DeviceType::kHeater, "on"},
      Trigger{DeviceType::kTemperatureSensor, "low"}));
  // AC lowers temperature.
  EXPECT_TRUE(ActionCausesTrigger(
      Action{DeviceType::kAirConditioner, "on"},
      Trigger{DeviceType::kTemperatureSensor, "low"}));
  // Open valve -> leak sensor wet.
  EXPECT_TRUE(ActionCausesTrigger(Action{DeviceType::kWaterValve, "open"},
                                  Trigger{DeviceType::kLeakSensor, "wet"}));
  // Inactive state produces no effect.
  EXPECT_FALSE(ActionCausesTrigger(
      Action{DeviceType::kHeater, "off"},
      Trigger{DeviceType::kTemperatureSensor, "high"}));
}

TEST(Platform, GeneratorProducesValidRules) {
  Rng rng(5);
  for (int p = 0; p < kNumPlatforms; ++p) {
    RuleGenerator gen(static_cast<Platform>(p), &rng);
    for (int i = 0; i < 40; ++i) {
      const Rule r = gen.Generate();
      EXPECT_FALSE(r.description.empty());
      EXPECT_FALSE(r.actions.empty());
      EXPECT_TRUE(IsValidState(r.trigger.device, r.trigger.state));
      for (const auto& a : r.actions) {
        EXPECT_TRUE(IsValidState(a.device, a.state));
        EXPECT_FALSE(GetDeviceTypeInfo(a.device).is_sensor);
      }
    }
  }
}

TEST(Platform, VoicePlatformsUseVoiceTriggers) {
  Rng rng(6);
  RuleGenerator alexa(Platform::kAlexa, &rng);
  for (int i = 0; i < 10; ++i) {
    const Rule r = alexa.Generate();
    EXPECT_EQ(r.trigger.device, DeviceType::kVoice);
    EXPECT_EQ(r.description.rfind("alexa, ", 0), 0u) << r.description;
  }
}

TEST(Platform, GenerateTriggeredByIsCausal) {
  Rng rng(7);
  RuleGenerator gen(Platform::kIfttt, &rng);
  for (int i = 0; i < 60; ++i) {
    const Rule a = gen.Generate();
    const Rule b = gen.GenerateTriggeredBy(a.actions.front());
    EXPECT_TRUE(ActionCausesTrigger(a.actions.front(), b.trigger))
        << a.description << " -> " << b.description;
  }
}

TEST(Platform, DeviceProfileSkewsVocabulary) {
  Rng rng1(8), rng2(8);
  RuleGenerator plain(Platform::kIfttt, &rng1);
  RuleGenerator skewed(Platform::kIfttt, &rng2);
  skewed.ApplyDeviceProfile(999, 2.0);
  std::set<DeviceType> plain_devices, skewed_devices;
  for (int i = 0; i < 80; ++i) {
    plain_devices.insert(plain.Generate().actions.front().device);
    skewed_devices.insert(skewed.Generate().actions.front().device);
  }
  // A strong profile concentrates the vocabulary.
  EXPECT_LT(skewed_devices.size(), plain_devices.size() + 5);
}

TEST(Home, BuildRandomHomeWiresDevices) {
  Rng rng(9);
  const Home home = BuildRandomHome(10, {Platform::kSmartThings}, &rng);
  EXPECT_EQ(home.rules.size(), 10u);
  EXPECT_FALSE(home.devices.empty());
  // Every referenced device type has an instance.
  for (const auto& rule : home.rules) {
    for (const auto& a : rule.actions) {
      EXPECT_GE(home.DeviceIdFor(a.device), 0);
    }
  }
}

TEST(HomeSimulator, ProducesChronologicalLog) {
  Rng rng(10);
  const Home home = BuildRandomHome(8, {Platform::kSmartThings}, &rng);
  SimulationConfig config;
  config.duration_seconds = 2 * 3600.0;
  HomeSimulator sim(home, config, &rng);
  const EventLog log = sim.Run();
  EXPECT_GT(log.size(), 0u);
  for (size_t i = 1; i < log.size(); ++i) {
    EXPECT_LE(log.entries()[i - 1].timestamp, log.entries()[i].timestamp);
  }
}

TEST(EventLog, CleaningDropsErrorsAndRepeats) {
  EventLog log;
  LogEntry a;
  a.timestamp = 1;
  a.device_id = 1;
  a.device = DeviceType::kLight;
  a.attribute = "switch";
  a.value = "on";
  a.kind = LogKind::kStateChange;
  log.Append(a);
  LogEntry err = a;
  err.timestamp = 2;
  err.kind = LogKind::kExecutionError;
  log.Append(err);
  LogEntry repeat = a;
  repeat.timestamp = 3;
  log.Append(repeat);  // same value again -> dropped
  const EventLog cleaned = log.Cleaned();
  EXPECT_EQ(cleaned.size(), 1u);
}

TEST(EventLog, CleaningConvertsNumericWithJenks) {
  EventLog log;
  for (int i = 0; i < 6; ++i) {
    LogEntry e;
    e.timestamp = i;
    e.device_id = 7;
    e.device = DeviceType::kTemperatureSensor;
    e.attribute = "temperature";
    e.numeric_value = i < 3 ? 15.0 + i : 30.0 + i;
    e.kind = LogKind::kSensorReading;
    log.Append(e);
  }
  const EventLog cleaned = log.Cleaned();
  ASSERT_GE(cleaned.size(), 2u);
  EXPECT_EQ(cleaned.entries().front().value, "low");
  EXPECT_EQ(cleaned.entries().back().value, "high");
  for (const auto& e : cleaned.entries()) {
    EXPECT_FALSE(e.numeric_value.has_value());
  }
}

TEST(EventLog, CleaningDropsNonFiniteReadings) {
  // Readings {20, 21, 22, inf} on one device and {18, NaN, 19, 30, 31} on
  // another: non-finite readings carry no logical value, so the first
  // device is left with too few readings to classify and the second with
  // four finite ones. Entries at a non-finite time are dropped as if
  // absent: a reading of 1000 at NaN would join the second device's Jenks
  // fit (and class 30 "low"), and state changes at NaN or +-inf would be
  // kept.
  EventLog log;
  auto reading = [&log](int device_id, double t, double v) {
    LogEntry e;
    e.timestamp = t;
    e.device_id = device_id;
    e.device = DeviceType::kTemperatureSensor;
    e.attribute = "temperature";
    e.numeric_value = v;
    e.kind = LogKind::kSensorReading;
    log.Append(e);
  };
  auto state_change = [&log](int device_id, double t, const char* value) {
    LogEntry e;
    e.timestamp = t;
    e.device_id = device_id;
    e.device = DeviceType::kLight;
    e.attribute = "switch";
    e.value = value;
    log.Append(e);
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  int t = 0;
  for (double v : {20.0, 21.0, 22.0, inf}) reading(1, t++, v);
  for (double v : {18.0, nan, 19.0, 30.0, 31.0}) reading(2, t++, v);
  reading(2, nan, 1000.0);
  state_change(3, nan, "on");
  state_change(3, inf, "off");
  state_change(3, -inf, "on");
  const EventLog cleaned = log.Cleaned();
  ASSERT_EQ(cleaned.size(), 2u);
  EXPECT_EQ(cleaned.entries()[0].device_id, 2);
  EXPECT_EQ(cleaned.entries()[0].value, "low");
  EXPECT_EQ(cleaned.entries()[1].value, "high");
  EXPECT_EQ(cleaned.entries()[1].timestamp, 7.0);
}

class AttackInjectionTest : public ::testing::TestWithParam<AttackType> {};

TEST_P(AttackInjectionTest, ModifiesLogAsSpecified) {
  Rng rng(11);
  const Home home = BuildRandomHome(8, {Platform::kSmartThings}, &rng);
  SimulationConfig config;
  config.duration_seconds = 2 * 3600.0;
  HomeSimulator sim(home, config, &rng);
  const EventLog raw = sim.Run();
  ASSERT_GT(raw.size(), 5u);

  AttackInjector injector(home, &rng);
  const AttackResult result = injector.Inject(raw, GetParam(), 0.3);
  switch (GetParam()) {
    case AttackType::kFakeEvent:
    case AttackType::kFakeCommand:
      EXPECT_GT(result.log.size(), raw.size());
      break;
    case AttackType::kStealthyCommand:
    case AttackType::kCommandFailure:
    case AttackType::kEventLoss:
      EXPECT_LE(result.log.size(), raw.size());
      break;
    default:
      break;
  }
  // Log remains chronologically sorted for insertion attacks.
  for (size_t i = 1; i < result.log.size(); ++i) {
    EXPECT_LE(result.log.entries()[i - 1].timestamp,
              result.log.entries()[i].timestamp);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAttacks, AttackInjectionTest,
    ::testing::Values(AttackType::kFakeEvent, AttackType::kFakeCommand,
                      AttackType::kStealthyCommand,
                      AttackType::kCommandFailure, AttackType::kEventLoss));

TEST(Vulnerability, NamesAreStable) {
  EXPECT_STREQ(VulnerabilityTypeName(VulnerabilityType::kActionConflict),
               "action_conflict");
  EXPECT_STREQ(AttackTypeName(AttackType::kStealthyCommand),
               "stealthy_command");
}

}  // namespace
}  // namespace fexiot
