#pragma once

#include <optional>
#include <string>
#include <vector>

namespace fexiot {

/// \brief Smart-home device and sensor types modeled by the simulator.
///
/// Includes two pseudo-devices: kClock (time triggers such as "at sunset")
/// and kVoice (voice-assistant commands), which let Google Assistant /
/// Alexa rules participate in the same trigger-action formalism.
enum class DeviceType {
  kLight = 0,
  kSwitch,
  kPlug,
  kThermostat,
  kHeater,
  kAirConditioner,
  kFan,
  kCamera,
  kDoorLock,
  kDoor,
  kWindow,
  kBlind,
  kWaterValve,
  kSprinkler,
  kAlarm,
  kSmokeDetector,
  kCoDetector,
  kMotionSensor,
  kContactSensor,
  kLeakSensor,
  kHumiditySensor,
  kTemperatureSensor,
  kDoorbell,
  kVacuum,
  kCoffeeMaker,
  kOven,
  kTv,
  kSpeaker,
  kGarageDoor,
  kPhone,
  kClock,
  kVoice,
  kNumDeviceTypes,
};

constexpr int kNumDeviceTypes = static_cast<int>(DeviceType::kNumDeviceTypes);

/// \brief Physical/environmental channels that mediate implicit
/// interactions (a heater raises temperature, which a temperature sensor
/// triggers on).
enum class EnvChannel {
  kNone = 0,
  kTemperature,
  kHumidity,
  kIlluminance,
  kSound,
  kSmoke,
  kMotion,
  kWaterFlow,
};

/// \brief Direction of a device's effect on an environment channel.
enum class EffectDirection { kIncrease, kDecrease };

/// \brief A device's effect on an environment channel.
struct EnvEffect {
  EnvChannel channel = EnvChannel::kNone;
  EffectDirection direction = EffectDirection::kIncrease;
};

/// \brief Static metadata for one device type.
struct DeviceTypeInfo {
  DeviceType type;
  /// Canonical noun used in rendered rule text; matches the NLP lexicon.
  std::string noun;
  /// Primary attribute name ("switch", "lock", "contact", ...).
  std::string attribute;
  /// Possible attribute states (first is the default/initial state).
  std::vector<std::string> states;
  /// True for passive sensors (triggers only, no actuation commands).
  bool is_sensor = false;
  /// True if the sensor reports numeric readings (temperature, humidity).
  bool is_numeric = false;
  /// Channel the sensor observes (kNone for actuators).
  EnvChannel sensed_channel = EnvChannel::kNone;
  /// Environmental effect produced when the device is in its active state.
  std::optional<EnvEffect> active_effect;
};

/// \brief Returns metadata for a device type.
const DeviceTypeInfo& GetDeviceTypeInfo(DeviceType type);

/// \brief All device types (excluding the pseudo count sentinel).
const std::vector<DeviceType>& AllDeviceTypes();

/// \brief Actuator types only (targets of rule actions).
const std::vector<DeviceType>& ActuatorTypes();

/// \brief Canonical noun, e.g. "light" for kLight.
const std::string& DeviceNoun(DeviceType type);

/// \brief The "active" state of the device (e.g. "on", "open", "detected").
const std::string& ActiveState(DeviceType type);

/// \brief The opposite state of \p state within the device's domain, or
/// \p state itself if the domain is not binary.
std::string OppositeState(DeviceType type, const std::string& state);

/// \brief True if \p state is in the device's state domain.
bool IsValidState(DeviceType type, const std::string& state);

/// \brief One deployed device instance in a home.
struct Device {
  int id = 0;
  DeviceType type = DeviceType::kLight;
  std::string room;
  /// Display name, e.g. "kitchen light".
  std::string name;
};

}  // namespace fexiot
