#pragma once

#include <string>
#include <utility>

namespace fexiot {

/// \brief Error category for a Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kInternal,
  kIOError,
};

/// \brief Returns a human-readable name for a status code.
const char* StatusCodeToString(StatusCode code);

/// \brief Outcome of an operation that can fail without a value payload.
///
/// FexIoT library code reports recoverable errors through Status/Result
/// instead of exceptions, following the Arrow/RocksDB convention. A default
/// constructed Status is OK.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// \brief Renders "<CODE>: <message>" (or "OK").
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

}  // namespace fexiot

/// \brief Returns early with the status if the expression is not OK.
#define FEXIOT_RETURN_NOT_OK(expr)                 \
  do {                                             \
    ::fexiot::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                     \
  } while (false)
