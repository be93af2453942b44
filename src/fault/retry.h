#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/result.h"

namespace freshsel::fault {

/// Capped exponential backoff with deterministic jitter (see DESIGN.md
/// §11). Attempt k (0-based) sleeps
///   min(initial * multiplier^k, cap) * (1 + jitter_fraction * (2u - 1))
/// where u is a uniform [0, 1) draw from a `freshsel::Rng` stream seeded
/// with `jitter_seed` — the same seed always yields the same backoff
/// sequence, so retried runs are reproducible end to end.
struct RetryOptions {
  /// Total attempts (first try included). 1 disables retrying.
  int max_attempts = 3;
  double initial_backoff_seconds = 0.01;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 1.0;
  /// Relative jitter amplitude in [0, 1]; 0 disables jitter.
  double jitter_fraction = 0.1;
  std::uint64_t jitter_seed = 0;
  /// Status codes treated as transient. Everything else fails fast.
  bool retry_io_error = true;
  bool retry_unavailable = true;
};

/// Retry driver wrapped around I/O operations (io/scenario_io loaders, CLI
/// scenario loading). Stateless between Run() calls: every Run replays the
/// same deterministic backoff schedule.
class RetryPolicy {
 public:
  RetryPolicy() : RetryPolicy(RetryOptions{}) {}
  explicit RetryPolicy(const RetryOptions& options);

  const RetryOptions& options() const { return options_; }

  /// True when `status` is transient under the configured codes.
  bool IsRetryable(const Status& status) const;

  /// Backoff before retry number `retry` (0-based), jitter included.
  /// Deterministic in (options, retry).
  double BackoffSeconds(int retry) const;

  /// Runs `op` up to max_attempts times, sleeping BackoffSeconds between
  /// attempts while the returned Status is retryable. Returns the first
  /// success or the last failure. Each retry invokes the `on_retry` hook
  /// (if any) and bumps the obs counter `io.retry.attempts`; exhaustion bumps
  /// `io.retry.exhausted`.
  Status Run(std::string_view op_name,
             const std::function<Status()>& op) const;

  /// Result-returning variant of Run().
  template <typename T>
  Result<T> RunResult(std::string_view op_name,
                      const std::function<Result<T>()>& op) const {
    Result<T> result = Status::Internal("retry loop never ran");
    const Status status =
        Run(op_name, [&]() -> Status {
          result = op();
          return result.status();
        });
    if (!status.ok()) return status;
    return result;
  }

  /// Replaces the sleep implementation (default:
  /// std::this_thread::sleep_for). Tests install a recorder so backoff
  /// schedules are observable without wall-clock waits.
  using SleepFn = std::function<void(double seconds)>;
  void set_sleep_fn(SleepFn sleep_fn);

  /// Called before each retry with (op_name, retry_index, last_status).
  using RetryHook =
      std::function<void(std::string_view, int, const Status&)>;
  void set_on_retry(RetryHook hook);

 private:
  RetryOptions options_;
  SleepFn sleep_fn_;
  RetryHook on_retry_;
};

}  // namespace freshsel::fault
