#include "fault/retry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"

namespace freshsel::fault {
namespace {

RetryOptions FastOptions(int max_attempts = 3) {
  RetryOptions options;
  options.max_attempts = max_attempts;
  options.initial_backoff_seconds = 0.25;
  options.backoff_multiplier = 2.0;
  options.max_backoff_seconds = 1.0;
  options.jitter_fraction = 0.0;
  return options;
}

/// Policy whose sleeps are recorded instead of slept.
RetryPolicy RecordingPolicy(const RetryOptions& options,
                            std::vector<double>* sleeps) {
  RetryPolicy policy(options);
  policy.set_sleep_fn([sleeps](double seconds) { sleeps->push_back(seconds); });
  return policy;
}

TEST(RetryPolicyTest, RetryableCodes) {
  RetryPolicy policy;
  EXPECT_TRUE(policy.IsRetryable(Status::IoError("disk")));
  EXPECT_TRUE(policy.IsRetryable(Status::Unavailable("flaky")));
  EXPECT_FALSE(policy.IsRetryable(Status::OK()));
  EXPECT_FALSE(policy.IsRetryable(Status::InvalidArgument("bad")));
  EXPECT_FALSE(policy.IsRetryable(Status::NotFound("gone")));

  RetryOptions pinned;
  pinned.retry_io_error = false;
  pinned.retry_unavailable = false;
  RetryPolicy none(pinned);
  EXPECT_FALSE(none.IsRetryable(Status::IoError("disk")));
  EXPECT_FALSE(none.IsRetryable(Status::Unavailable("flaky")));
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy policy(FastOptions(/*max_attempts=*/10));
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(0), 0.25);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(1), 0.5);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(2), 1.0);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(3), 1.0);  // Capped.
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(9), 1.0);
}

TEST(RetryPolicyTest, JitterIsDeterministicAndBounded) {
  RetryOptions options = FastOptions(10);
  options.jitter_fraction = 0.2;
  options.jitter_seed = 99;
  RetryPolicy policy(options);
  for (int retry = 0; retry < 8; ++retry) {
    const double base =
        std::min(0.25 * std::pow(2.0, static_cast<double>(retry)), 1.0);
    const double jittered = policy.BackoffSeconds(retry);
    EXPECT_GE(jittered, base * 0.8);
    EXPECT_LE(jittered, base * 1.2);
    // Pure function of (options, retry): replay yields identical values.
    EXPECT_DOUBLE_EQ(jittered, policy.BackoffSeconds(retry));
    EXPECT_DOUBLE_EQ(jittered, RetryPolicy(options).BackoffSeconds(retry));
  }
  // A different seed perturbs at least one sleep in the schedule.
  options.jitter_seed = 100;
  RetryPolicy reseeded(options);
  bool any_differs = false;
  for (int retry = 0; retry < 8; ++retry) {
    any_differs |= reseeded.BackoffSeconds(retry) !=
                   policy.BackoffSeconds(retry);
  }
  EXPECT_TRUE(any_differs);
}

TEST(RetryPolicyTest, FirstTrySuccessDoesNotSleep) {
  std::vector<double> sleeps;
  RetryPolicy policy = RecordingPolicy(FastOptions(), &sleeps);
  int calls = 0;
  EXPECT_TRUE(policy
                  .Run("op",
                       [&calls]() {
                         ++calls;
                         return Status::OK();
                       })
                  .ok());
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(sleeps.empty());
}

TEST(RetryPolicyTest, TransientFailureRetriesUntilSuccess) {
  std::vector<double> sleeps;
  RetryPolicy policy = RecordingPolicy(FastOptions(5), &sleeps);
  std::vector<std::pair<int, std::string>> hook_calls;
  policy.set_on_retry(
      [&hook_calls](std::string_view op, int retry, const Status& last) {
        hook_calls.emplace_back(retry, std::string(op));
        EXPECT_EQ(last.code(), StatusCode::kUnavailable);
      });
  int calls = 0;
  const Status status = policy.Run("flaky", [&calls]() {
    ++calls;
    return calls < 3 ? Status::Unavailable("transient") : Status::OK();
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(calls, 3);
  ASSERT_EQ(sleeps.size(), 2u);  // Two retries, each preceded by a sleep.
  EXPECT_DOUBLE_EQ(sleeps[0], policy.BackoffSeconds(0));
  EXPECT_DOUBLE_EQ(sleeps[1], policy.BackoffSeconds(1));
  ASSERT_EQ(hook_calls.size(), 2u);
  EXPECT_EQ(hook_calls[0], (std::pair<int, std::string>{0, "flaky"}));
  EXPECT_EQ(hook_calls[1], (std::pair<int, std::string>{1, "flaky"}));
}

TEST(RetryPolicyTest, NonRetryableFailsFast) {
  std::vector<double> sleeps;
  RetryPolicy policy = RecordingPolicy(FastOptions(5), &sleeps);
  int calls = 0;
  const Status status = policy.Run("fatal", [&calls]() {
    ++calls;
    return Status::InvalidArgument("bad row");
  });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(sleeps.empty());
}

TEST(RetryPolicyTest, ExhaustionReturnsLastErrorAndCounts) {
  obs::MetricsRegistry::Global().ResetAll();
  std::vector<double> sleeps;
  RetryPolicy policy = RecordingPolicy(FastOptions(3), &sleeps);
  int calls = 0;
  const Status status = policy.Run("down", [&calls]() {
    ++calls;
    return Status::IoError("attempt " + std::to_string(calls));
  });
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("attempt 3"), std::string::npos);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(sleeps.size(), 2u);
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().TakeSnapshot();
  EXPECT_EQ(snapshot.counters.at("io.retry.attempts"), 2u);
  EXPECT_EQ(snapshot.counters.at("io.retry.exhausted"), 1u);
}

TEST(RetryPolicyTest, SingleAttemptNeverRetries) {
  std::vector<double> sleeps;
  RetryPolicy policy = RecordingPolicy(FastOptions(1), &sleeps);
  int calls = 0;
  EXPECT_FALSE(policy
                   .Run("once",
                        [&calls]() {
                          ++calls;
                          return Status::IoError("nope");
                        })
                   .ok());
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(sleeps.empty());
}

TEST(RetryPolicyTest, RunResultPropagatesValueAndError) {
  std::vector<double> sleeps;
  RetryPolicy policy = RecordingPolicy(FastOptions(4), &sleeps);
  int calls = 0;
  Result<int> result =
      policy.RunResult<int>("value", [&calls]() -> Result<int> {
        ++calls;
        if (calls < 2) return Status::Unavailable("warming up");
        return 42;
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(calls, 2);

  Result<int> failed = policy.RunResult<int>(
      "never", []() -> Result<int> { return Status::NotFound("missing"); });
  EXPECT_EQ(failed.status().code(), StatusCode::kNotFound);
}

TEST(RetryPolicyDeathTest, InvalidOptionsAreContractViolations) {
  RetryOptions zero_attempts;
  zero_attempts.max_attempts = 0;
  EXPECT_DEATH(RetryPolicy{zero_attempts}, "max_attempts");
  RetryOptions negative_backoff;
  negative_backoff.initial_backoff_seconds = -0.5;
  EXPECT_DEATH(RetryPolicy{negative_backoff}, "finite and non-negative");
  RetryOptions shrinking;
  shrinking.backoff_multiplier = 0.5;
  EXPECT_DEATH(RetryPolicy{shrinking}, "backoff_multiplier");
  RetryOptions wild_jitter;
  wild_jitter.jitter_fraction = 1.5;
  EXPECT_DEATH(RetryPolicy{wild_jitter}, "must be a probability");
}

}  // namespace
}  // namespace freshsel::fault
