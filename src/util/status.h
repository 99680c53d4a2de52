// Lightweight Status / Result types, in the spirit of absl::Status.
// The library does not use exceptions for expected failures (parse errors,
// unsupported program classes); those travel through Status/Result.
#ifndef BINCHAIN_UTIL_STATUS_H_
#define BINCHAIN_UTIL_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace binchain {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   // malformed input (parse errors, bad arity, ...)
  kUnsupported,       // program outside the class a component handles
  kNotFound,          // missing predicate / relation
  kFailedPrecondition,
  kDeadlineExceeded,  // request expired before (or while) evaluating
  kCancelled,         // caller cancelled (or dropped) the request's future
  kOverloaded,        // admitted work at its high-water mark; retry later
  kUnavailable,       // service not serving yet (e.g. recovery replay)
  kInternal,
};

/// Error-or-success carrier. Cheap to copy on the OK path.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status Unsupported(std::string m) {
    return Status(StatusCode::kUnsupported, std::move(m));
  }
  static Status NotFound(std::string m) {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status FailedPrecondition(std::string m) {
    return Status(StatusCode::kFailedPrecondition, std::move(m));
  }
  static Status DeadlineExceeded(std::string m) {
    return Status(StatusCode::kDeadlineExceeded, std::move(m));
  }
  static Status Cancelled(std::string m) {
    return Status(StatusCode::kCancelled, std::move(m));
  }
  static Status Overloaded(std::string m) {
    return Status(StatusCode::kOverloaded, std::move(m));
  }
  static Status Unavailable(std::string m) {
    return Status(StatusCode::kUnavailable, std::move(m));
  }
  static Status Internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) return "OK";
    return message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// A value or an error. `value()` must only be called when `ok()`.
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}          // NOLINT(runtime/explicit)
  Result(Status status) : v_(std::move(status)) {}   // NOLINT(runtime/explicit)

  bool ok() const { return std::holds_alternative<T>(v_); }
  const Status& status() const { return std::get<Status>(v_); }
  T& value() { return std::get<T>(v_); }
  const T& value() const { return std::get<T>(v_); }
  T&& take() { return std::move(std::get<T>(v_)); }

 private:
  std::variant<T, Status> v_;
};

}  // namespace binchain

#endif  // BINCHAIN_UTIL_STATUS_H_
