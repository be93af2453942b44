#pragma once

#include <optional>
#include <utility>

#include "common/check.h"
#include "common/status.h"

namespace freshsel {

/// A value-or-error holder, modeled after `absl::StatusOr<T>` / Arrow's
/// `Result<T>`.
///
/// Invariant: exactly one of {value, error status} is present. Constructing a
/// `Result` from an OK status is a programming error and is converted to an
/// Internal error in release builds.
/// [[nodiscard]]: dropping a Result<T> loses both the value and the error;
/// see the matching note on Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit construction from a value makes `return value;` work in
  /// functions returning `Result<T>`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit construction from an error status makes
  /// `return Status::InvalidArgument(...);` work.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    FRESHSEL_DCHECK(!status_.ok())
        << "Result constructed from OK status without value";
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  Result(const Result&) = default;
  Result& operator=(const Result&) = default;
  Result(Result&&) noexcept = default;
  Result& operator=(Result&&) noexcept = default;

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  /// Pre: ok(). Dereferencing an error Result is a contract violation; the
  /// check is always on because the fallout (reading an empty optional) is
  /// undefined behaviour.
  const T& value() const& {
    CheckOk();
    return *value_;
  }
  T& value() & {
    CheckOk();
    return *value_;
  }
  T&& value() && {
    CheckOk();
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the held value or `fallback` when in the error state.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  void CheckOk() const {
    FRESHSEL_CHECK(ok()) << "Result::value() on error: " << status_.ToString();
  }

  std::optional<T> value_;
  Status status_;  // OK iff value_ present.
};

/// Evaluates `rexpr` (a Result<T> expression); on error returns the status
/// from the enclosing function, otherwise assigns the value to `lhs`.
#define FRESHSEL_ASSIGN_OR_RETURN(lhs, rexpr)  \
  FRESHSEL_ASSIGN_OR_RETURN_IMPL_(             \
      FRESHSEL_RESULT_CONCAT_(_freshsel_result_, __LINE__), lhs, rexpr)

#define FRESHSEL_RESULT_CONCAT_INNER_(a, b) a##b
#define FRESHSEL_RESULT_CONCAT_(a, b) FRESHSEL_RESULT_CONCAT_INNER_(a, b)
#define FRESHSEL_ASSIGN_OR_RETURN_IMPL_(var, lhs, rexpr) \
  auto var = (rexpr);                                    \
  if (!var.ok()) {                                       \
    return var.status();                                 \
  }                                                      \
  lhs = std::move(var).value()

}  // namespace freshsel
