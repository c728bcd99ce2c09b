// Status / Result<T>: exception-free error handling for the smoothscan library.
//
// The library follows the Google C++ style guide and does not use exceptions.
// Fallible operations return a Status (or a Result<T> when they also produce a
// value). Programming errors (broken invariants) abort via SMOOTHSCAN_CHECK.

#ifndef SMOOTHSCAN_COMMON_STATUS_H_
#define SMOOTHSCAN_COMMON_STATUS_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace smoothscan {

/// Canonical error space, a deliberately small subset of absl::StatusCode.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kFailedPrecondition = 5,
  kResourceExhausted = 6,
  kInternal = 7,
  kUnimplemented = 8,
  kIoError = 9,
  kCancelled = 10,  // The last code: net/frame.cc bounds wire statuses by it.
};

/// Returns a short human-readable name for `code` ("OK", "NOT_FOUND", ...).
const char* StatusCodeToString(StatusCode code);

/// Value-semantic error indicator. Cheap to copy in the OK case.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

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
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Holds either a value of type T or an error Status. Analogous to
/// absl::StatusOr<T>. Accessing the value of a non-OK Result aborts.
template <typename T>
class Result {
 public:
  /// Implicit conversions from both sides keep call sites terse, matching
  /// absl::StatusOr usage.
  Result(T value) : status_(), value_(std::move(value)) {}  // NOLINT
  Result(Status status) : status_(std::move(status)) {      // NOLINT
    AbortIfOk();
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    AbortIfNotOk();
    return value_;
  }
  T& value() & {
    AbortIfNotOk();
    return value_;
  }
  T&& value() && {
    AbortIfNotOk();
    return std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void AbortIfNotOk() const {
    if (!status_.ok()) {
      std::fprintf(stderr, "Result accessed with error: %s\n",
                   status_.ToString().c_str());
      std::abort();
    }
  }
  void AbortIfOk() const {
    if (status_.ok()) {
      std::fprintf(stderr, "Result constructed from OK status without value\n");
      std::abort();
    }
  }

  Status status_;
  T value_{};
};

namespace internal_status {
inline void CheckFailed(const char* file, int line, const char* expr) {
  std::fprintf(stderr, "%s:%d: SMOOTHSCAN_CHECK failed: %s\n", file, line, expr);
  std::abort();
}
}  // namespace internal_status

}  // namespace smoothscan

/// Aborts the process when `cond` is false. Used for invariant violations that
/// indicate programming errors rather than recoverable runtime conditions.
#define SMOOTHSCAN_CHECK(cond)                                              \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::smoothscan::internal_status::CheckFailed(__FILE__, __LINE__, #cond); \
    }                                                                       \
  } while (0)

/// Propagates a non-OK Status to the caller.
#define SMOOTHSCAN_RETURN_IF_ERROR(expr)        \
  do {                                          \
    ::smoothscan::Status _st = (expr);          \
    if (!_st.ok()) return _st;                  \
  } while (0)

#endif  // SMOOTHSCAN_COMMON_STATUS_H_
