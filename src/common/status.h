#ifndef FRESHSEL_COMMON_STATUS_H_
#define FRESHSEL_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace freshsel {

/// Error categories used across the library. Modeled after the RocksDB
/// `Status` idiom: operations that can fail return a `Status` (or a
/// `Result<T>`, see result.h) instead of throwing; exceptions never cross
/// public API boundaries.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kIoError,
  kUnimplemented,
  kUnavailable,
};

/// Returns a stable human-readable name for `code` (e.g. "InvalidArgument").
std::string_view StatusCodeName(StatusCode code);

/// A cheap, copyable success/error value.
///
/// The OK status carries no message and no allocation. Error statuses carry a
/// code and a free-form message describing what failed.
///
/// [[nodiscard]]: silently dropping a Status return loses the error, and
/// the build turns the warning into an error (-Werror=unused-result).
/// Discard deliberately with `static_cast<void>(...)`.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  /// Factory helpers, one per error category.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  /// Transient failure (flaky storage, injected fault); the canonical
  /// retryable code for fault::RetryPolicy.
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// Evaluates `expr` (a Status expression) and returns it from the enclosing
/// function if it is not OK.
#define FRESHSEL_RETURN_IF_ERROR(expr)                 \
  do {                                                 \
    ::freshsel::Status _freshsel_status__ = (expr);    \
    if (!_freshsel_status__.ok()) {                    \
      return _freshsel_status__;                       \
    }                                                  \
  } while (false)

}  // namespace freshsel

#endif  // FRESHSEL_COMMON_STATUS_H_
