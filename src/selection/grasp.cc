#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "obs/decision_log.h"
#include "obs/macros.h"
#include "selection/algorithms.h"
#include "selection/audit.h"
#include "selection/set_util.h"

namespace freshsel::selection {

namespace {

bool Feasible(const PartitionMatroid* matroid,
              const std::vector<SourceHandle>& set, SourceHandle add) {
  return matroid == nullptr || matroid->CanAdd(set, add);
}

/// True when candidate marginals may be fanned out across `pool`.
bool UseParallel(const ProfitFunction& oracle, ThreadPool* pool) {
  return pool != nullptr && pool->size() > 1 && oracle.thread_safe();
}

/// Evaluates Profit(selected + {candidates[i]}) for every i, in parallel
/// when allowed. Results land in index order, so downstream reductions are
/// independent of the schedule.
///
/// Each chunk builds a thread-local context rooted at `selected` and scores
/// its candidates through ProfitWith. Every candidate value is the rooted
/// product times one factor regardless of chunk boundaries, so serial and
/// parallel runs stay bit-identical.
std::vector<double> ScoreAdditions(
    const ProfitFunction& oracle, const std::vector<SourceHandle>& selected,
    const std::vector<SourceHandle>& candidates, ThreadPool* pool) {
  std::vector<double> profits(candidates.size());
  auto score = [&](std::size_t begin, std::size_t end) {
    // Runs on pool workers; the span attributes to the construct /
    // local-search span via the pool's task-context propagation.
    FRESHSEL_TRACE_SPAN("selection/oracle/score_chunk");
    const std::unique_ptr<MarginalEvalContext> ctx = oracle.MakeContext();
    ctx->Reset(selected);
    for (std::size_t i = begin; i < end; ++i) {
      profits[i] = ctx->ProfitWith(candidates[i]);
    }
  };
  if (UseParallel(oracle, pool)) {
    pool->ParallelFor(candidates.size(), score);
  } else {
    score(0, candidates.size());
  }
  return profits;
}

/// The best add / remove / swap move rooted at element `e`, under the
/// canonical intra-element order (removal before swaps, swaps by ascending
/// replacement handle; strict > keeps the first of tied gains).
struct Move {
  double gain = -std::numeric_limits<double>::infinity();
  double profit = 0.0;
  std::vector<SourceHandle> set;
};

Move BestMoveAt(const ProfitFunction& oracle, const PartitionMatroid* matroid,
                const std::vector<SourceHandle>& selected, double current,
                SourceHandle handle, MarginalEvalContext& ctx) {
  const std::size_t n = oracle.universe_size();
  Move best;
  if (!internal::Contains(selected, handle)) {
    if (!Feasible(matroid, selected, handle)) return best;
    ctx.Reset(selected);
    const double profit = ctx.ProfitWith(handle);
    best.gain = profit - current;
    best.profit = profit;
    best.set = internal::WithAdded(selected, handle);
    return best;
  }
  // Removal, then every swap, all rooted at selected \ {handle}: one
  // context reset covers the whole family, so each swap costs a single
  // delta evaluation instead of re-scoring the n-long swapped set.
  std::vector<SourceHandle> without =
      internal::WithRemoved(selected, handle);
  ctx.Reset(without);
  const double removal_profit = ctx.CurrentProfit();
  best.gain = removal_profit - current;
  best.profit = removal_profit;
  best.set = without;
  // Swaps: replace `handle` with one outside element.
  for (std::size_t d = 0; d < n; ++d) {
    const SourceHandle other = static_cast<SourceHandle>(d);
    if (internal::Contains(selected, other)) continue;
    if (!Feasible(matroid, without, other)) continue;
    const double profit = ctx.ProfitWith(other);
    if (profit - current > best.gain) {
      best.gain = profit - current;
      best.profit = profit;
      best.set = internal::WithAdded(without, other);
    }
  }
  return best;
}

/// Classifies an accepted local-search move into a decision record: the
/// move family is rooted at `root`, so a grown set is an addition of
/// `root`, a shrunk set its removal, and an equal-sized set the swap that
/// replaced `root` with the one element of `move.set` outside `selected`.
obs::DecisionRecord DescribeMove(const std::vector<SourceHandle>& selected,
                                 const Move& move, SourceHandle root,
                                 double gain, std::uint32_t round,
                                 std::uint32_t restart,
                                 const RunnerUpTracker& tracker,
                                 std::size_t pool) {
  obs::DecisionRecord record;
  record.round = round;
  record.restart = restart;
  record.gain = gain;
  record.profit = move.profit;
  record.score = gain;
  record.pool_size = pool;
  if (move.set.size() > selected.size()) {
    record.kind = obs::DecisionKind::kAdd;
    record.chosen = root;
  } else if (move.set.size() < selected.size()) {
    record.kind = obs::DecisionKind::kRemove;
    record.chosen = root;
  } else {
    record.kind = obs::DecisionKind::kSwap;
    record.partner = root;
    for (SourceHandle e : move.set) {
      if (!internal::Contains(selected, e)) {
        record.chosen = e;
        break;
      }
    }
  }
  tracker.FillRunnerUp(gain, &record);
  return record;
}

}  // namespace

namespace internal {

std::vector<SourceHandle> GraspConstruct(const ProfitFunction& oracle,
                                         int kappa,
                                         const PartitionMatroid* matroid,
                                         Rng& rng, ThreadPool* pool,
                                         obs::DecisionLog* log,
                                         std::uint32_t restart) {
  FRESHSEL_TRACE_SPAN("selection/grasp/construct");
  const std::size_t n = oracle.universe_size();
  RoundAudit audit(log, oracle);
  std::vector<SourceHandle> selected;
  double current = oracle.Profit(selected);
  std::uint32_t round = 0;
  while (true) {
    audit.BeginRound();
    std::vector<SourceHandle> feasible;
    for (std::size_t e = 0; e < n; ++e) {
      const SourceHandle handle = static_cast<SourceHandle>(e);
      if (internal::Contains(selected, handle)) continue;
      if (!Feasible(matroid, selected, handle)) continue;
      feasible.push_back(handle);
    }
    if (feasible.empty()) break;
    const std::vector<double> profits =
        ScoreAdditions(oracle, selected, feasible, pool);
    std::vector<std::pair<double, SourceHandle>> candidates;
    for (std::size_t i = 0; i < feasible.size(); ++i) {
      if (profits[i] - current > kImprovementEps) {
        candidates.emplace_back(profits[i], feasible[i]);
      }
    }
    if (candidates.empty()) break;
    const std::size_t rcl_size = std::min<std::size_t>(
        candidates.size(), static_cast<std::size_t>(std::max(kappa, 1)));
    // When auditing, sort one extra slot so the runner-up (the best
    // candidate other than the pick) is visible even when the pick is the
    // RCL head. The comparator is a strict total order, so the first
    // rcl_size entries - and hence the random pick - are unchanged.
    const std::size_t sorted_size =
        audit.active() ? std::min(rcl_size + 1, candidates.size()) : rcl_size;
    std::partial_sort(candidates.begin(), candidates.begin() + sorted_size,
                      candidates.end(),
                      [](const auto& a, const auto& b) {
                        if (a.first != b.first) return a.first > b.first;
                        return a.second < b.second;
                      });
    const auto& pick =
        candidates[static_cast<std::size_t>(rng.NextBounded(rcl_size))];
    if (audit.active()) {
      obs::DecisionRecord record;
      record.round = round;
      record.restart = restart;
      record.kind = obs::DecisionKind::kAdd;
      record.chosen = pick.second;
      record.gain = pick.first - current;
      record.profit = pick.first;
      record.score = record.gain;
      record.pool_size = feasible.size();
      const auto& head = candidates[0];
      const auto& runner =
          pick.second == head.second && sorted_size > 1 ? candidates[1] : head;
      if (!(pick.second == head.second && sorted_size <= 1)) {
        record.has_runner_up = true;
        record.runner_up = runner.second;
        record.runner_up_score = runner.first - current;
        record.margin = record.score - record.runner_up_score;
      }
      audit.Commit(record);
    }
    selected = internal::WithAdded(selected, pick.second);
    // The picked candidate's profit was just evaluated; reuse it instead
    // of a redundant oracle call per round.
    current = pick.first;
    ++round;
  }
  return selected;
}

double GraspLocalSearch(const ProfitFunction& oracle,
                        const PartitionMatroid* matroid,
                        std::vector<SourceHandle>& selected,
                        ThreadPool* pool, obs::DecisionLog* log,
                        std::uint32_t restart) {
  FRESHSEL_TRACE_SPAN("selection/grasp/local_search");
  const std::size_t n = oracle.universe_size();
  RoundAudit audit(log, oracle);
  double current = oracle.Profit(selected);
  const bool parallel = UseParallel(oracle, pool);
  std::vector<Move> moves(n);
  std::uint32_t round = 0;
  while (true) {
    audit.BeginRound();
    // Best move rooted at each element, then a serial reduction in handle
    // order (strict >, first-wins), so parallel and serial runs pick the
    // same move. Each chunk gets its own context (contexts are
    // single-threaded); BestMoveAt re-roots it per element, so move
    // values do not depend on chunk boundaries.
    auto score = [&](std::size_t begin, std::size_t end) {
      FRESHSEL_TRACE_SPAN("selection/oracle/score_chunk");
      const std::unique_ptr<MarginalEvalContext> ctx = oracle.MakeContext();
      for (std::size_t e = begin; e < end; ++e) {
        moves[e] = BestMoveAt(oracle, matroid, selected, current,
                              static_cast<SourceHandle>(e), *ctx);
      }
    };
    if (parallel) {
      pool->ParallelFor(n, score);
    } else {
      score(0, n);
    }
    std::size_t best = n;
    double best_gain = -std::numeric_limits<double>::infinity();
    RunnerUpTracker tracker;
    for (std::size_t e = 0; e < n; ++e) {
      if (moves[e].gain > best_gain) {
        best_gain = moves[e].gain;
        best = e;
      }
      if (audit.active() && std::isfinite(moves[e].gain)) {
        tracker.Observe(static_cast<SourceHandle>(e), moves[e].gain);
      }
    }
    if (best == n || best_gain <= kImprovementEps) break;
    if (audit.active()) {
      audit.Commit(DescribeMove(selected, moves[best],
                                static_cast<SourceHandle>(best), best_gain,
                                round, restart, tracker, n));
    }
    selected = std::move(moves[best].set);
    current = moves[best].profit;
    ++round;
  }
  return current;
}

}  // namespace internal

SelectionResult Grasp(const ProfitFunction& oracle, const GraspParams& params,
                      const PartitionMatroid* matroid) {
  FRESHSEL_TRACE_SPAN("selection/grasp");
  FRESHSEL_OBS_GAUGE_SET(
      "selection.grasp.pool_threads",
      params.pool != nullptr ? params.pool->size() : std::size_t{1});
  const std::uint64_t calls_before = oracle.call_count();
  Rng rng(params.seed);
  RoundAudit audit(params.decision_log, oracle);
  if (audit.active() && params.decision_log->algorithm().empty()) {
    params.decision_log->set_algorithm("grasp");
  }
  SelectionResult best;
  best.profit = -std::numeric_limits<double>::infinity();
  const int restarts = std::max(params.restarts, 1);
  for (int r = 0; r < restarts; ++r) {
    FRESHSEL_OBS_COUNT("selection.grasp.restarts", 1);
    std::vector<SourceHandle> selected = internal::GraspConstruct(
        oracle, params.kappa, matroid, rng, params.pool, params.decision_log,
        static_cast<std::uint32_t>(r));
    const double profit = internal::GraspLocalSearch(
        oracle, matroid, selected, params.pool, params.decision_log,
        static_cast<std::uint32_t>(r));
    if (profit > best.profit) {
      best.profit = profit;
      best.selected = selected;
    }
  }
  if (!std::isfinite(best.profit)) {
    best.selected.clear();
    best.profit = oracle.Profit({});
  }
  best.oracle_calls = oracle.call_count() - calls_before;
  best.cache_hit_rate = CacheHitRateOf(oracle);
  return best;
}

}  // namespace freshsel::selection
