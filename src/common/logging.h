#pragma once

#include <sstream>
#include <string>

namespace fexiot {

/// \brief Severity levels for the lightweight logger.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// \brief Emits one formatted log line to stderr (thread-safe); messages
/// below kInfo are dropped.
void LogMessage(LogLevel level, const std::string& message);

namespace internal {

/// Stream-style log capture used by the FEXIOT_LOG macro.
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { LogMessage(level_, stream_.str()); }

  template <typename T>
  LogStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace fexiot

#define FEXIOT_LOG(level) \
  ::fexiot::internal::LogStream(::fexiot::LogLevel::k##level)
