// Minimal Status / Result<T> error-handling vocabulary. The library does not use
// exceptions for control flow; fallible operations return StatusOr-style values.
#ifndef SRC_COMMON_STATUS_H_
#define SRC_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace torbase {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kFailedPrecondition,
  kOutOfRange,
  kInternal,
};

// Returns a short name like "INVALID_ARGUMENT" for diagnostics.
constexpr const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status NotFound(std::string m) { return Status(StatusCode::kNotFound, std::move(m)); }
  static Status FailedPrecondition(std::string m) {
    return Status(StatusCode::kFailedPrecondition, std::move(m));
  }
  static Status OutOfRange(std::string m) { return Status(StatusCode::kOutOfRange, std::move(m)); }
  static Status Internal(std::string m) { return Status(StatusCode::kInternal, std::move(m)); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) {
      return "OK";
    }
    return std::string(StatusCodeName(code_)) + ": " + message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

// Result<T> holds either a value or an error Status.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}             // NOLINT(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {      // NOLINT(google-explicit-constructor)
    assert(!status_.ok() && "Result constructed from OK status without a value");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace torbase

#endif  // SRC_COMMON_STATUS_H_
