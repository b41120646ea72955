// Lightweight Status / StatusOr<T> for recoverable errors (parsing, I/O).
//
// Contract violations use QFS_ASSERT (support/assert.h); Status is reserved
// for errors caused by external input that a caller can reasonably handle.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "support/assert.h"

namespace qfs {

enum class StatusCode {
  kOk,
  kInvalidArgument,
  kParseError,
  kIoError,
  kFailedPrecondition,
  kResourceExhausted,
};

/// Human-readable name of a status code ("ok", "parse_error", ...).
const char* status_code_name(StatusCode code);

/// Result of an operation that can fail without a value payload.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status(); }

  bool is_ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "ok" or "<code>: <message>".
  std::string to_string() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline Status invalid_argument(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
inline Status parse_error(std::string msg) {
  return Status(StatusCode::kParseError, std::move(msg));
}
inline Status io_error(std::string msg) {
  return Status(StatusCode::kIoError, std::move(msg));
}
inline Status failed_precondition(std::string msg) {
  return Status(StatusCode::kFailedPrecondition, std::move(msg));
}
inline Status resource_exhausted(std::string msg) {
  return Status(StatusCode::kResourceExhausted, std::move(msg));
}

/// Either a value or an error status. Accessing value() on an error is a
/// contract violation.
template <typename T>
class StatusOr {
 public:
  StatusOr(T value) : value_(std::move(value)) {}            // NOLINT(implicit)
  StatusOr(Status status) : status_(std::move(status)) {     // NOLINT(implicit)
    QFS_ASSERT_MSG(!status_.is_ok(), "StatusOr built from OK status");
  }

  bool is_ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    QFS_ASSERT_MSG(is_ok(), "value() on error StatusOr: " + status_.to_string());
    return *value_;
  }
  T& value() & {
    QFS_ASSERT_MSG(is_ok(), "value() on error StatusOr: " + status_.to_string());
    return *value_;
  }
  T&& value() && {
    QFS_ASSERT_MSG(is_ok(), "value() on error StatusOr: " + status_.to_string());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }

 private:
  std::optional<T> value_;
  Status status_;  // kOk iff value_ holds a value
};

}  // namespace qfs
