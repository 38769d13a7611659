#include "smarthome/device.h"

#include <array>
#include <cassert>

namespace fexiot {
namespace {

std::vector<DeviceTypeInfo> BuildTable() {
  using DT = DeviceType;
  using EC = EnvChannel;
  using ED = EffectDirection;
  std::vector<DeviceTypeInfo> t(static_cast<size_t>(kNumDeviceTypes));
  auto set = [&](DT type, std::string noun, std::string attr,
                 std::vector<std::string> states, bool sensor, bool numeric,
                 EC sensed, std::optional<EnvEffect> effect) {
    t[static_cast<size_t>(type)] = DeviceTypeInfo{
        type,   std::move(noun), std::move(attr), std::move(states),
        sensor, numeric,         sensed,          std::move(effect)};
  };

  // Actuators. The "active" state is states[1] by convention (states[0] is
  // the initial/default state).
  set(DT::kLight, "light", "switch", {"off", "on"}, false, false, EC::kNone,
      EnvEffect{EC::kIlluminance, ED::kIncrease});
  set(DT::kSwitch, "switch", "switch", {"off", "on"}, false, false,
      EC::kNone, std::nullopt);
  set(DT::kPlug, "plug", "switch", {"off", "on"}, false, false, EC::kNone,
      std::nullopt);
  set(DT::kThermostat, "thermostat", "mode", {"off", "heat"}, false, false,
      EC::kNone, EnvEffect{EC::kTemperature, ED::kIncrease});
  set(DT::kHeater, "heater", "switch", {"off", "on"}, false, false,
      EC::kNone, EnvEffect{EC::kTemperature, ED::kIncrease});
  set(DT::kAirConditioner, "ac", "switch", {"off", "on"}, false, false,
      EC::kNone, EnvEffect{EC::kTemperature, ED::kDecrease});
  set(DT::kFan, "fan", "switch", {"off", "on"}, false, false, EC::kNone,
      EnvEffect{EC::kTemperature, ED::kDecrease});
  set(DT::kCamera, "camera", "switch", {"off", "on"}, false, false,
      EC::kNone, std::nullopt);
  set(DT::kDoorLock, "lock", "lock", {"locked", "unlocked"}, false, false,
      EC::kNone, std::nullopt);
  set(DT::kDoor, "door", "contact", {"closed", "open"}, false, false,
      EC::kNone, std::nullopt);
  set(DT::kWindow, "window", "contact", {"closed", "open"}, false, false,
      EC::kNone, EnvEffect{EC::kTemperature, ED::kDecrease});
  set(DT::kBlind, "blind", "position", {"closed", "open"}, false, false,
      EC::kNone, EnvEffect{EC::kIlluminance, ED::kIncrease});
  set(DT::kWaterValve, "valve", "valve", {"closed", "open"}, false, false,
      EC::kNone, EnvEffect{EC::kWaterFlow, ED::kIncrease});
  set(DT::kSprinkler, "sprinkler", "switch", {"off", "on"}, false, false,
      EC::kNone, EnvEffect{EC::kHumidity, ED::kIncrease});
  set(DT::kAlarm, "alarm", "alarm", {"off", "on"}, false, false, EC::kNone,
      EnvEffect{EC::kSound, ED::kIncrease});
  set(DT::kDoorbell, "doorbell", "ring", {"idle", "ringing"}, false, false,
      EC::kNone, EnvEffect{EC::kSound, ED::kIncrease});
  set(DT::kVacuum, "vacuum", "run", {"stopped", "running"}, false, false,
      EC::kNone, EnvEffect{EC::kSound, ED::kIncrease});
  set(DT::kCoffeeMaker, "coffee", "brew", {"off", "on"}, false, false,
      EC::kNone, std::nullopt);
  // Cooking smoke: the oven can fabricate a smoke-detector condition
  // (condition-bypass vulnerability path).
  set(DT::kOven, "oven", "switch", {"off", "on"}, false, false, EC::kNone,
      EnvEffect{EC::kSmoke, ED::kIncrease});
  set(DT::kTv, "tv", "switch", {"off", "on"}, false, false, EC::kNone,
      EnvEffect{EC::kSound, ED::kIncrease});
  set(DT::kSpeaker, "speaker", "switch", {"off", "on"}, false, false,
      EC::kNone, EnvEffect{EC::kSound, ED::kIncrease});
  set(DT::kGarageDoor, "garage", "door", {"closed", "open"}, false, false,
      EC::kNone, std::nullopt);
  set(DT::kPhone, "notification", "message", {"idle", "sent"}, false, false,
      EC::kNone, std::nullopt);

  // Sensors.
  set(DT::kSmokeDetector, "smoke", "smoke", {"cleared", "detected"}, true,
      false, EC::kSmoke, std::nullopt);
  set(DT::kCoDetector, "co", "co", {"cleared", "detected"}, true, false,
      EC::kSmoke, std::nullopt);
  set(DT::kMotionSensor, "motion", "motion", {"inactive", "active"}, true,
      false, EC::kMotion, std::nullopt);
  set(DT::kContactSensor, "contact", "contact", {"closed", "open"}, true,
      false, EC::kNone, std::nullopt);
  set(DT::kLeakSensor, "leak", "water", {"dry", "wet"}, true, false,
      EC::kWaterFlow, std::nullopt);
  set(DT::kHumiditySensor, "humidity", "humidity", {"low", "high"}, true,
      true, EC::kHumidity, std::nullopt);
  set(DT::kTemperatureSensor, "temperature", "temperature", {"low", "high"},
      true, true, EC::kTemperature, std::nullopt);

  // Pseudo-devices.
  set(DT::kClock, "time", "time", {"sunrise", "sunset"}, true, false,
      EC::kNone, std::nullopt);
  set(DT::kVoice, "voice", "command", {"idle", "spoken"}, true, false,
      EC::kNone, std::nullopt);
  return t;
}

const std::vector<DeviceTypeInfo>& Table() {
  static const std::vector<DeviceTypeInfo> kTable = BuildTable();
  return kTable;
}

}  // namespace

const DeviceTypeInfo& GetDeviceTypeInfo(DeviceType type) {
  const auto idx = static_cast<size_t>(type);
  assert(idx < Table().size());
  return Table()[idx];
}

const std::vector<DeviceType>& AllDeviceTypes() {
  static const std::vector<DeviceType> kAll = [] {
    std::vector<DeviceType> v;
    for (int i = 0; i < kNumDeviceTypes; ++i) {
      v.push_back(static_cast<DeviceType>(i));
    }
    return v;
  }();
  return kAll;
}

const std::vector<DeviceType>& ActuatorTypes() {
  static const std::vector<DeviceType> kActuators = [] {
    std::vector<DeviceType> v;
    for (DeviceType t : AllDeviceTypes()) {
      const auto& info = GetDeviceTypeInfo(t);
      if (!info.is_sensor) v.push_back(t);
    }
    return v;
  }();
  return kActuators;
}

const std::string& DeviceNoun(DeviceType type) {
  return GetDeviceTypeInfo(type).noun;
}

const std::string& ActiveState(DeviceType type) {
  const auto& info = GetDeviceTypeInfo(type);
  assert(info.states.size() >= 2);
  return info.states[1];
}

std::string OppositeState(DeviceType type, const std::string& state) {
  const auto& states = GetDeviceTypeInfo(type).states;
  if (states.size() != 2) return state;
  if (state == states[0]) return states[1];
  if (state == states[1]) return states[0];
  return state;
}

bool IsValidState(DeviceType type, const std::string& state) {
  const auto& states = GetDeviceTypeInfo(type).states;
  for (const auto& s : states) {
    if (s == state) return true;
  }
  return false;
}

}  // namespace fexiot
