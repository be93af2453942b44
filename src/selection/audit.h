#ifndef FRESHSEL_SELECTION_AUDIT_H_
#define FRESHSEL_SELECTION_AUDIT_H_

#include <cstdint>
#include <utility>

#include "obs/decision_log.h"
#include "selection/cached_oracle.h"
#include "selection/profit.h"

namespace freshsel::selection {

/// Per-round bookkeeping for the selection decision log (obs v2): snapshots
/// the oracle-call and cache-hit tallies when a round begins so each
/// committed DecisionRecord carries the round's *deltas*, and derives the
/// uniform calls-saved accounting
///
///   calls_saved = pool_size - (oracle_calls + cache_hits), floored at 0,
///
/// i.e. the evaluations an eager full scan of the round's candidate pool
/// would have made minus what the round actually spent (misses) or served
/// from memo (hits). For the eager scan itself this is 0; for CELF it is
/// the stale-bound skips; for stochastic greedy it is the unsampled pool
/// plus the within-sample skips.
///
/// The cache-hit sampling goes through CachedProfitOracle::hit_count()
/// (lock-free) when the oracle is the memoizing decorator, discovered with
/// one dynamic_cast at construction - the same idiom the decorator itself
/// uses to discover a GainCostFunction base.
///
/// With no log attached active() is false and every
/// `if (audit.active()) { ... }` recording block is skipped.
class RoundAudit {
 public:
  RoundAudit(obs::DecisionLog* log, const ProfitFunction& oracle)
      : log_(log),
        oracle_(&oracle),
        cache_(log != nullptr
                   ? dynamic_cast<const CachedProfitOracle*>(&oracle)
                   : nullptr) {}

  bool active() const { return log_ != nullptr; }

  /// Marks the start of a round: subsequent oracle calls and cache hits
  /// are attributed to the next Commit.
  void BeginRound() {
    if (log_ == nullptr) return;
    calls_start_ = oracle_->call_count();
    hits_start_ = CacheHits();
  }

  /// Fills the call-accounting fields of `record` with the deltas since
  /// BeginRound and appends it to the log.
  void Commit(obs::DecisionRecord record) {
    if (log_ == nullptr) return;
    record.oracle_calls = oracle_->call_count() - calls_start_;
    record.cache_hits = CacheHits() - hits_start_;
    const std::uint64_t spent = record.oracle_calls + record.cache_hits;
    record.calls_saved =
        record.pool_size > spent ? record.pool_size - spent : 0;
    log_->Record(record);
  }

 private:
  std::uint64_t CacheHits() const {
    return cache_ != nullptr ? cache_->hit_count() : 0;
  }

  obs::DecisionLog* log_;
  const ProfitFunction* oracle_;
  const CachedProfitOracle* cache_;
  std::uint64_t calls_start_ = 0;
  std::uint64_t hits_start_ = 0;
};

/// Process-lifetime hit rate of the memoizing decorator in front of the
/// oracle, 0 for uncached oracles. The algorithms fold this into
/// SelectionResult::cache_hit_rate (the field is part of the result
/// contract, not instrumentation).
inline double CacheHitRateOf(const ProfitFunction& oracle) {
  const auto* cached = dynamic_cast<const CachedProfitOracle*>(&oracle);
  return cached != nullptr ? cached->stats().hit_rate() : 0.0;
}

/// Tracks the best and second-best scored candidate of one eager scan
/// (ties keep the first seen, matching the algorithms' lowest-handle
/// tie-breaks when candidates are visited in ascending handle order).
/// Plain data - cheap enough to run unconditionally, but callers guard
/// updates behind audit.active() to keep unaudited hot paths untouched.
struct RunnerUpTracker {
  bool has_best = false;
  SourceHandle best = 0;
  double best_score = 0.0;
  bool has_second = false;
  SourceHandle second = 0;
  double second_score = 0.0;

  void Observe(SourceHandle handle, double score) {
    if (!has_best || score > best_score) {
      if (has_best) {
        has_second = true;
        second = best;
        second_score = best_score;
      }
      has_best = true;
      best = handle;
      best_score = score;
    } else if (!has_second || score > second_score) {
      has_second = true;
      second = handle;
      second_score = score;
    }
  }

  /// Copies the runner-up fields into `record` (margin relative to
  /// `winning_score`, the score of the accepted candidate).
  void FillRunnerUp(double winning_score, obs::DecisionRecord* record) const {
    record->has_runner_up = has_second;
    if (has_second) {
      record->runner_up = second;
      record->runner_up_score = second_score;
      record->margin = winning_score - second_score;
    }
  }
};

}  // namespace freshsel::selection

#endif  // FRESHSEL_SELECTION_AUDIT_H_
