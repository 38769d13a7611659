#include "common/logging.h"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <mutex>

namespace fexiot {
namespace {

constexpr LogLevel kMinLevel = LogLevel::kInfo;
std::mutex g_log_mutex;

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarning:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

}  // namespace

void LogMessage(LogLevel level, const std::string& message) {
  if (level < kMinLevel) return;
  const auto now = std::chrono::system_clock::now();
  const std::time_t t = std::chrono::system_clock::to_time_t(now);
  std::tm tm_buf;
  localtime_r(&t, &tm_buf);
  char ts[32];
  std::strftime(ts, sizeof(ts), "%H:%M:%S", &tm_buf);
  std::lock_guard<std::mutex> lock(g_log_mutex);
  std::fprintf(stderr, "[%s %s] %s\n", ts, LevelTag(level), message.c_str());
}

}  // namespace fexiot
