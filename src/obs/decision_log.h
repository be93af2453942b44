#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace freshsel::obs {

class JsonValue;
class JsonWriter;

/// What kind of move a decision record captures.
enum class DecisionKind : std::uint8_t {
  kAdd = 0,        ///< Greedy/CELF/budgeted round accepting one element.
  kRemove = 1,     ///< Local-search removal move (GRASP).
  kSwap = 2,       ///< Local-search swap move (GRASP).
  kSingleton = 3,  ///< Budgeted Khuller-Moss-Naor singleton override.
};

/// Stable wire name ("add", "remove", "swap", "singleton").
std::string_view DecisionKindName(DecisionKind kind);

/// One accepted selection decision: which candidate won a round, by what
/// margin, and what the round cost in oracle work. The call-accounting
/// fields are deltas over the round, not running totals, so a record is
/// meaningful in isolation ("round 7 spent 3 evals and skipped 41").
struct DecisionRecord {
  std::uint32_t round = 0;    ///< 0-based round within one run / restart.
  std::uint32_t restart = 0;  ///< GRASP restart index; 0 elsewhere.
  DecisionKind kind = DecisionKind::kAdd;
  std::uint32_t chosen = 0;  ///< SourceHandle accepted by this decision.
  /// For kSwap: the element the chosen one replaced (unused otherwise).
  std::uint32_t partner = 0;
  double gain = 0.0;    ///< Marginal objective gain of the accepted move.
  double profit = 0.0;  ///< Objective value after accepting the move.
  /// Ranking score the round compared candidates by: the gain itself for
  /// plain greedy, the gain/cost ratio for budgeted rounds.
  double score = 0.0;
  bool has_runner_up = false;
  std::uint32_t runner_up = 0;  ///< Second-best candidate, when known.
  /// The runner-up's score. Exact for eager scans; for CELF it is the
  /// next queue entry's *stale upper bound* (the tightest information the
  /// lazy path has without spending the eval it just saved).
  double runner_up_score = 0.0;
  double margin = 0.0;  ///< score - runner_up_score; 0 without runner-up.
  /// Oracle evaluations spent during the round (cache misses when a
  /// CachedProfitOracle is in front).
  std::uint64_t oracle_calls = 0;
  /// Evaluations the round avoided versus an eager full scan of its
  /// candidate pool: CELF stale-bound skips, stochastic sample exclusions,
  /// minus what was actually spent.
  std::uint64_t calls_saved = 0;
  std::uint64_t cache_hits = 0;   ///< Memoized evals served this round.
  std::uint64_t sample_size = 0;  ///< Stochastic sampled pool; 0 = full.
  std::uint64_t pool_size = 0;    ///< Feasible candidates this round.
};

/// One degraded-source substitution carried into the run (a source whose
/// profile fell back to a coarser model; see estimation/degradation.h).
struct DecisionDegradation {
  std::string source;
  std::string reason;
};

/// Per-run audit trail behind RunReport schema_version 2: the sequence of
/// accepted decisions, in order, for one selection run.
///
/// Lock-free by construction rather than by synchronization: records are
/// appended only from the single thread driving the selection loop (the
/// algorithms parallelize candidate *scoring*, but move acceptance is
/// always a serial reduction), so appends are plain vector pushes - no
/// mutex, no atomics. The pointer threaded through the algorithms is
/// non-owning; a null pointer skips recording entirely (see
/// selection/audit.h).
class DecisionLog {
 public:
  void set_algorithm(std::string algorithm) {
    algorithm_ = std::move(algorithm);
  }
  const std::string& algorithm() const { return algorithm_; }

  void Record(DecisionRecord record) { records_.push_back(record); }
  const std::vector<DecisionRecord>& records() const { return records_; }

  void AddDegradation(std::string source, std::string reason) {
    degraded_.push_back({std::move(source), std::move(reason)});
  }
  const std::vector<DecisionDegradation>& degraded() const {
    return degraded_;
  }

  bool empty() const {
    return records_.empty() && degraded_.empty() && algorithm_.empty();
  }

  void Clear() {
    algorithm_.clear();
    records_.clear();
    degraded_.clear();
  }

  /// Serializes as the RunReport v2 "decision_log" object.
  void AppendJson(JsonWriter& writer) const;

  /// Parses a "decision_log" object produced by AppendJson. Unknown fields
  /// are ignored (forward compatibility); missing fields default.
  static Result<DecisionLog> FromJsonValue(const JsonValue& value);

 private:
  std::string algorithm_;
  std::vector<DecisionRecord> records_;
  std::vector<DecisionDegradation> degraded_;
};

}  // namespace freshsel::obs
