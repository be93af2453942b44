#include "selection/greedy_rounds.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/random.h"
#include "obs/decision_log.h"
#include "obs/macros.h"
#include "selection/audit.h"
#include "selection/set_util.h"

namespace freshsel::selection::internal {

namespace {

/// Ratio of a marginal gain to an element cost; zero-cost elements with
/// positive gain are always worth taking.
double Ratio(double marginal, double cost) {
  return cost > kImprovementEps ? marginal / cost
                                : std::numeric_limits<double>::infinity();
}

/// The order every strategy ranks candidates in: higher score first, then
/// lower handle.
bool Better(double score, SourceHandle handle, double than_score,
            SourceHandle than_handle) {
  return score > than_score || (score == than_score && handle < than_handle);
}

/// One scored candidate: the objective with it added, its marginal over
/// the current set, and the score a round ranks by.
struct Candidate {
  SourceHandle handle = 0;
  double value = 0.0;
  double marginal = 0.0;
  double score = 0.0;
};

enum Strategy { kFullScan = 0, kCelf = 1, kSample = 2 };

/// Decision-log labels and trace spans, by [cost-benefit][strategy].
constexpr const char* kLabels[2][3] = {
    {"greedy/eager", "greedy/lazy", "greedy/stochastic"},
    {"budgeted/eager", "budgeted/lazy", "budgeted/stochastic"}};
constexpr const char* kSpans[2][3] = {
    {"selection/greedy/eager", "selection/greedy/lazy",
     "selection/greedy/stochastic"},
    {"selection/budgeted/eager", "selection/budgeted/lazy",
     "selection/budgeted/stochastic"}};

class RoundEngine {
 public:
  /// Cost-benefit rounds when `gain_cost` is set (then `costs` covers
  /// every handle), profit rounds under `matroid` otherwise.
  RoundEngine(const ProfitFunction& oracle, const GainCostFunction* gain_cost,
              const std::vector<double>* costs,
              const PartitionMatroid* matroid, const GreedyOptions& options)
      : oracle_(oracle),
        gain_cost_(gain_cost),
        costs_(costs),
        budget_(gain_cost != nullptr
                    ? gain_cost->budget()
                    : std::numeric_limits<double>::infinity()),
        matroid_(matroid),
        options_(options),
        strategy_(options.stochastic
                      ? kSample
                      : (oracle.submodular() ? kCelf : kFullScan)),
        skip_stale_(options.stochastic && oracle.submodular()),
        audit_(options.decision_log, oracle),
        rng_(options.stochastic_seed),
        ctx_(oracle.MakeContext()) {}

  Rounds Run() {
    const int cost_benefit = gain_cost_ != nullptr ? 1 : 0;
    FRESHSEL_TRACE_SPAN(kSpans[cost_benefit][strategy_]);
    if (audit_.active() && options_.decision_log->algorithm().empty()) {
      options_.decision_log->set_algorithm(
          kLabels[cost_benefit][strategy_]);
    }
    const std::size_t n = oracle_.universe_size();
    current_ =
        gain_cost_ != nullptr ? ctx_->CurrentGain() : ctx_->CurrentProfit();
    if (strategy_ == kSample) {
      const std::size_t k = options_.stochastic_k > 0
                                ? options_.stochastic_k
                                : DeriveSampleK(n, matroid_);
      sample_size_ =
          StochasticSampleSize(n, k, options_.stochastic_epsilon);
      FRESHSEL_OBS_GAUGE_SET("selection.stochastic.sample_size",
                             sample_size_);
    }
    if (skip_stale_) {
      stale_.assign(n, std::numeric_limits<double>::infinity());
    }

    for (std::uint32_t round = 0;; ++round) {
      audit_.BeginRound();
      eligible_.clear();
      for (std::size_t e = 0; e < n; ++e) {
        const SourceHandle handle = static_cast<SourceHandle>(e);
        if (Eligible(handle)) eligible_.push_back(handle);
      }
      // CELF's credit for a round: the full re-scan it replaces. Re-scores
      // that do run are taken back one by one in PickCelf.
      if (strategy_ == kCelf && round > 0) out_.saved += eligible_.size();
      if (eligible_.empty()) break;

      obs::DecisionRecord record;
      Candidate best;
      const bool found = strategy_ == kCelf
                             ? PickCelf(round, &best, &record)
                             : PickScan(&best, &record);
      if (!found || best.marginal <= kImprovementEps) break;
      if (audit_.active()) {
        record.round = round;
        record.kind = obs::DecisionKind::kAdd;
        record.chosen = best.handle;
        record.gain = best.marginal;
        record.score = best.score;
        record.profit = best.value;
        record.pool_size = eligible_.size();
        audit_.Commit(record);
      }
      out_.selected = WithAdded(out_.selected, best.handle);
      ctx_->Reset(out_.selected);
      current_ = best.value;
      if (costs_ != nullptr) spent_ += (*costs_)[best.handle];
    }
    out_.value = current_;
    return std::move(out_);
  }

 private:
  /// A CELF queue entry: the candidate as scored in `round`.
  struct Entry {
    Candidate candidate;
    std::uint32_t round;
  };
  struct StalerFirst {
    bool operator()(const Entry& a, const Entry& b) const {
      return Better(b.candidate.score, b.candidate.handle, a.candidate.score,
                    a.candidate.handle);
    }
  };

  /// Not selected, and feasible under the budget or the matroid. Both only
  /// tighten as the set grows, so an ineligible candidate stays so.
  bool Eligible(SourceHandle handle) const {
    if (Contains(out_.selected, handle)) return false;
    if (costs_ != nullptr) {
      return spent_ + (*costs_)[handle] <= budget_ + kBudgetSlack;
    }
    return matroid_ == nullptr || matroid_->CanAdd(out_.selected, handle);
  }

  /// Scores the current set plus `handle` (one oracle call).
  Candidate Score(SourceHandle handle) {
    Candidate c;
    c.handle = handle;
    c.value = gain_cost_ != nullptr ? ctx_->GainWith(handle)
                                    : ctx_->ProfitWith(handle);
    c.marginal = c.value - current_;
    c.score = costs_ != nullptr ? Ratio(c.marginal, (*costs_)[handle])
                                : c.marginal;
    return c;
  }

  /// Profit rounds keep non-improving candidates in play (the stop test
  /// rejects them); cost-benefit rounds drop them.
  bool Dropped(const Candidate& c) const {
    return gain_cost_ != nullptr && c.marginal <= kImprovementEps;
  }

  /// CELF: round 0 scores every eligible candidate into the queue; each
  /// round then re-scores the top until a candidate scored this round
  /// stays on top. The runner-up of the log is the next entry's stale
  /// score, the tightest bound CELF has without the eval it saved.
  bool PickCelf(std::uint32_t round, Candidate* best,
                obs::DecisionRecord* record) {
    if (round == 0) {
      for (SourceHandle handle : eligible_) {
        const Candidate c = Score(handle);
        if (!Dropped(c)) queue_.push({c, 0});
      }
    }
    while (!queue_.empty()) {
      const Entry top = queue_.top();
      queue_.pop();
      if (!Eligible(top.candidate.handle)) continue;
      if (top.round == round) {
        *best = top.candidate;
        if (audit_.active() && !queue_.empty()) {
          const Candidate& next = queue_.top().candidate;
          record->has_runner_up = true;
          record->runner_up = next.handle;
          record->runner_up_score = next.score;
          record->margin = best->score - next.score;
        }
        return true;
      }
      const Candidate c = Score(top.candidate.handle);
      --out_.saved;
      FRESHSEL_OBS_COUNT("selection.celf.rescores", 1);
      if (!Dropped(c)) queue_.push({c, round});
    }
    return false;
  }

  /// Full scan of the eligible candidates, or of a seeded sample of them.
  /// The sample is drawn before any scoring, so the RNG stream depends on
  /// the seed alone. With `skip_stale_` the sample is visited by stale
  /// score and candidates whose stale score cannot beat the best fresh one
  /// are skipped (a tie with a higher handle cannot win either).
  bool PickScan(Candidate* best, obs::DecisionRecord* record) {
    const std::vector<SourceHandle>* pool = &eligible_;
    if (strategy_ == kSample) {
      sampled_.clear();
      if (sample_size_ >= eligible_.size()) {
        sampled_ = eligible_;
      } else {
        // Ascending indices, so the scored order (and every tie-break)
        // does not depend on the sampler's internal order.
        std::vector<std::size_t> idx =
            rng_.SampleWithoutReplacement(eligible_.size(), sample_size_);
        std::sort(idx.begin(), idx.end());
        for (std::size_t i : idx) sampled_.push_back(eligible_[i]);
      }
      if (skip_stale_) {
        std::sort(sampled_.begin(), sampled_.end(),
                  [this](SourceHandle a, SourceHandle b) {
                    return Better(stale_[a], a, stale_[b], b);
                  });
      }
      FRESHSEL_OBS_COUNT("selection.stochastic.sampled", sampled_.size());
      record->sample_size = sampled_.size();
      pool = &sampled_;
    }
    bool found = false;
    scored_.clear();
    for (SourceHandle handle : *pool) {
      if (skip_stale_ && found &&
          (stale_[handle] < best->score ||
           (stale_[handle] == best->score && handle > best->handle))) {
        ++out_.saved;
        FRESHSEL_OBS_COUNT("selection.stochastic.skips", 1);
        continue;
      }
      const Candidate c = Score(handle);
      if (strategy_ == kSample) {
        FRESHSEL_OBS_COUNT("selection.stochastic.evals", 1);
      }
      if (skip_stale_) stale_[handle] = c.score;
      if (Dropped(c)) continue;
      if (audit_.active()) scored_.push_back(c);
      if (!found || Better(c.score, handle, best->score, best->handle)) {
        *best = c;
        found = true;
      }
    }
    if (found && audit_.active()) {
      // Runner-up: the best freshly scored candidate other than the pick.
      for (const Candidate& c : scored_) {
        if (c.handle == best->handle) continue;
        if (!record->has_runner_up ||
            Better(c.score, c.handle, record->runner_up_score,
                   record->runner_up)) {
          record->has_runner_up = true;
          record->runner_up = c.handle;
          record->runner_up_score = c.score;
        }
      }
      if (record->has_runner_up) {
        record->margin = best->score - record->runner_up_score;
      }
    }
    return found;
  }

  const ProfitFunction& oracle_;
  const GainCostFunction* gain_cost_;
  const std::vector<double>* costs_;
  const double budget_;
  const PartitionMatroid* matroid_;
  const GreedyOptions& options_;
  const Strategy strategy_;
  const bool skip_stale_;
  RoundAudit audit_;
  Rng rng_;
  const std::unique_ptr<MarginalEvalContext> ctx_;

  Rounds out_;
  double current_ = 0.0;
  double spent_ = 0.0;
  std::size_t sample_size_ = 0;
  std::vector<double> stale_;
  std::vector<SourceHandle> eligible_;
  std::vector<SourceHandle> sampled_;
  std::vector<Candidate> scored_;
  std::priority_queue<Entry, std::vector<Entry>, StalerFirst> queue_;
};

}  // namespace

Rounds ProfitRounds(const ProfitFunction& oracle,
                    const PartitionMatroid* matroid,
                    const GreedyOptions& options) {
  return RoundEngine(oracle, nullptr, nullptr, matroid, options).Run();
}

Rounds CostBenefitRounds(const GainCostFunction& oracle,
                         const std::vector<double>& costs,
                         const GreedyOptions& options) {
  return RoundEngine(oracle, &oracle, &costs, nullptr, options).Run();
}

std::size_t StochasticSampleSize(std::size_t n, std::size_t k, double eps) {
  eps = std::clamp(eps, 1e-9, 1.0 - 1e-9);
  k = std::max<std::size_t>(k, 1);
  const double ratio = static_cast<double>(n) / static_cast<double>(k);
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(ratio * std::log(1.0 / eps))));
}

std::size_t DeriveSampleK(std::size_t n, const PartitionMatroid* matroid) {
  if (matroid == nullptr) return std::max<std::size_t>(n, 1);
  std::vector<std::size_t> group_sizes(matroid->group_count(), 0);
  const std::size_t elems = std::min(n, matroid->element_count());
  for (std::size_t e = 0; e < elems; ++e) {
    ++group_sizes[matroid->GroupOf(static_cast<SourceHandle>(e))];
  }
  std::size_t rank = 0;
  for (std::size_t g = 0; g < group_sizes.size(); ++g) {
    rank += std::min<std::size_t>(
        group_sizes[g], matroid->CapacityOf(static_cast<std::uint32_t>(g)));
  }
  return std::max<std::size_t>(rank, 1);
}

}  // namespace freshsel::selection::internal
