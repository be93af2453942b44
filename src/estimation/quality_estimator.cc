#include "estimation/quality_estimator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/simd.h"
#include "obs/macros.h"

namespace freshsel::estimation {

Result<QualityEstimator> QualityEstimator::Create(
    const world::World& world, const WorldChangeModel& model,
    std::vector<world::SubdomainId> domain, TimePoints eval_times) {
  return Create(world, model, std::move(domain), std::move(eval_times),
                Options{});
}

Result<QualityEstimator> QualityEstimator::Create(
    const world::World& world, const WorldChangeModel& model,
    std::vector<world::SubdomainId> domain, TimePoints eval_times,
    Options options) {
  FRESHSEL_TRACE_SPAN("estimation/quality_estimator/create");
  QualityEstimator est;
  est.t0_ = model.t0();
  est.options_ = options;

  if (domain.empty()) {
    domain.reserve(world.domain().subdomain_count());
    for (world::SubdomainId sub = 0; sub < world.domain().subdomain_count();
         ++sub) {
      domain.push_back(sub);
    }
  }
  for (world::SubdomainId sub : domain) {
    if (sub >= world.domain().subdomain_count()) {
      return Status::InvalidArgument("domain subdomain out of range");
    }
  }
  for (TimePoint t : eval_times) {
    if (t < est.t0_) {
      return Status::InvalidArgument("eval times must be at or after t0");
    }
    if (t - est.t0_ > kMaxEvalHorizonSteps) {
      return Status::InvalidArgument(
          "eval time beyond the supported horizon (t - t0 > " +
          std::to_string(kMaxEvalHorizonSteps) + ")");
    }
  }
  // Repeated eval times would alias one lookup slot (TimeIndexOf returns a
  // single index per time) while EstimateAllTimes/EstimateAverage weight
  // the duplicate twice - reject instead of silently skewing aggregates.
  {
    TimePoints sorted = eval_times;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return Status::InvalidArgument("eval times must be distinct");
    }
  }
  est.domain_ = std::move(domain);
  est.eval_times_ = std::move(eval_times);
  est.aggregate_ = model.Aggregate(est.domain_);
  est.count_t0_ = world.CountAtIn(est.domain_, est.t0_);

  // Compact index: entities of the restricted domain get dense bit slots.
  // The reverse list lets AddSource touch only the domain's entities,
  // keeping registration cost independent of the full world size.
  est.entity_to_compact_.assign(world.entity_count(), -1);
  std::size_t next = 0;
  for (world::SubdomainId sub : est.domain_) {
    for (world::EntityId id : world.EntitiesInSubdomain(sub)) {
      est.entity_to_compact_[id] = static_cast<std::int32_t>(next++);
      est.compact_to_entity_.push_back(id);
    }
  }
  est.compact_size_ = next;

  // Per-eval-time tables and the sorted time -> index lookup, built once
  // here so no evaluation path ever scans eval_times_ or recomputes the
  // set-independent weights.
  est.tables_.reserve(est.eval_times_.size());
  est.time_index_.reserve(est.eval_times_.size());
  for (std::size_t i = 0; i < est.eval_times_.size(); ++i) {
    est.tables_.push_back(est.MakeTimeTable(est.eval_times_[i]));
    est.time_index_.emplace_back(est.eval_times_[i], i);
  }
  std::sort(est.time_index_.begin(), est.time_index_.end());
  return est;
}

Result<QualityEstimator::SourceHandle> QualityEstimator::AddSource(
    const SourceProfile* profile, std::int64_t divisor) {
  if (profile == nullptr) {
    return Status::InvalidArgument("profile must not be null");
  }
  if (divisor < 1) {
    return Status::InvalidArgument("divisor must be >= 1");
  }
  RegisteredSource src;
  src.profile = profile;
  src.divisor = divisor;
  src.up = BitVector(compact_size_);
  src.cov = BitVector(compact_size_);
  src.all = BitVector(compact_size_);
  // Compact the full-width signatures to the restricted domain by walking
  // their set bits, so the cost follows the signatures' population rather
  // than the domain size. Ids past the world (a signature may be wider)
  // and ids outside the restricted domain (slot -1) are skipped.
  const auto compact = [this](const BitVector& full, BitVector& out) {
    full.VisitSetBits([&](std::size_t id) {
      if (id >= entity_to_compact_.size()) return;
      const std::int32_t slot = entity_to_compact_[id];
      if (slot >= 0) out.Set(static_cast<std::size_t>(slot));
    });
  };
  compact(profile->sig_t0.up, src.up);
  compact(profile->sig_t0.cov, src.cov);
  compact(profile->sig_t0.all, src.all);
  for (std::size_t w = 0; w < src.up.word_count(); ++w) {
    const SignatureWord word{w, src.up.words()[w], src.cov.words()[w],
                             src.all.words()[w]};
    if ((word.up | word.cov | word.all) != 0) src.words.push_back(word);
  }
  src.coverage_t0 =
      count_t0_ > 0 ? static_cast<double>(src.cov.Count()) /
                          static_cast<double>(count_t0_)
                    : 0.0;
  if (options_.model_capture_backlog && t0_ > 0) {
    // Miss-by-t0 backlog factors depend only on the source, not the eval
    // time, so they are computed once here.
    const SourceProfile& p = *profile;
    const double t0d = static_cast<double>(t0_);
    src.backlog_fac_t0.resize(static_cast<std::size_t>(t0_));
    for (TimePoint tau = 1; tau <= t0_; ++tau) {
      src.backlog_fac_t0[static_cast<std::size_t>(tau - 1)] =
          1.0 - p.Effectiveness(p.g_insert, t0d, static_cast<double>(tau),
                                divisor);
    }
  }
  // Every evaluation path reads these tables (a query's first round scores
  // each singleton at every eval time), so they are built here once and
  // the estimator stays immutable afterwards.
  src.tables.reserve(tables_.size());
  for (const TimeTable& table : tables_) {
    src.tables.push_back(BuildSourceTable(src, table));
  }
  const SourceHandle handle = static_cast<SourceHandle>(sources_.size());
  sources_.push_back(std::move(src));
  return handle;
}

std::size_t QualityEstimator::TimeIndexOf(TimePoint t) const {
  const auto it = std::lower_bound(
      time_index_.begin(), time_index_.end(), t,
      [](const std::pair<TimePoint, std::size_t>& entry, TimePoint value) {
        return entry.first < value;
      });
  if (it != time_index_.end() && it->first == t) return it->second;
  return kNoTimeIndex;
}

QualityEstimator::TimeTable QualityEstimator::MakeTimeTable(
    TimePoint t) const {
  const SubdomainChangeModel& agg = aggregate_;
  TimeTable table;
  table.t = t;
  table.steps = static_cast<std::size_t>(std::max<TimePoint>(t - t0_, 0));
  table.delta = static_cast<double>(t - t0_);

  // E[|Omega|_t]: the paper's linear balance (Eq. 14) by default, or the
  // birth-death ODE solution when requested. Floored at 1 to keep ratios
  // finite.
  if (options_.exponential_world_model && agg.gamma_disappear > 0.0) {
    const double stationary = agg.lambda_insert / agg.gamma_disappear;
    table.expected_world = stationary +
                           (static_cast<double>(count_t0_) - stationary) *
                               std::exp(-agg.gamma_disappear * table.delta);
  } else {
    table.expected_world =
        static_cast<double>(count_t0_) +
        table.delta * (agg.lambda_insert - agg.lambda_disappear);
  }
  table.expected_world = std::max(table.expected_world, 1.0);

  table.global_surv_d = std::exp(-agg.gamma_disappear * table.delta);
  table.global_surv_u = std::exp(-agg.gamma_update * table.delta);

  // Per-tau accumulation weights, tau = t0 + 1 + i. Each weight keeps the
  // association of the accumulation statement it replaces (for example
  // `lambda * surv_d * pr` is `(lambda * surv_d) * pr`, so the weight is
  // the parenthesized prefix) - the folded sums are bit-identical to the
  // unfactored ones.
  table.w_cov.resize(table.steps);
  table.w_up_ins.resize(table.steps);
  table.w_up_upd.resize(table.steps);
  for (std::size_t i = 0; i < table.steps; ++i) {
    const double age = table.delta - static_cast<double>(i + 1);  // t - tau.
    const double surv_d = std::exp(-agg.gamma_disappear * age);
    const double surv_du = options_.per_event_survival
                               ? surv_d * std::exp(-agg.gamma_update * age)
                               : table.global_surv_d * table.global_surv_u;
    table.w_cov[i] = agg.lambda_insert * surv_d;
    table.w_up_ins[i] = agg.lambda_insert * surv_du;
    table.w_up_upd[i] = agg.lambda_update * surv_du;
  }

  if (options_.model_capture_backlog && t > t0_ && t0_ > 0) {
    const std::size_t t0_steps = static_cast<std::size_t>(t0_);
    const double t0d = static_cast<double>(t0_);
    table.w_back.resize(t0_steps);
    table.w_back_up.resize(t0_steps);
    for (TimePoint tau = 1; tau <= t0_; ++tau) {
      const double age = table.delta + (t0d - static_cast<double>(tau));
      const double surv_d = std::exp(-agg.gamma_disappear * age);
      const std::size_t j = static_cast<std::size_t>(tau - 1);
      table.w_back[j] = agg.lambda_insert * surv_d;
      table.w_back_up[j] =
          table.w_back[j] * std::exp(-agg.gamma_update * age);
    }
  }
  return table;
}

QualityEstimator::SourceTimeTable QualityEstimator::BuildSourceTable(
    const RegisteredSource& src, const TimeTable& table) const {
  SourceTimeTable out;
  const SourceProfile& p = *src.profile;
  const double td = static_cast<double>(table.t);
  out.fac_ins.resize(table.steps);
  out.fac_del.resize(table.steps);
  out.fac_upd.resize(table.steps);
  for (std::size_t i = 0; i < table.steps; ++i) {
    const double tau = static_cast<double>(t0_ + 1 + static_cast<TimePoint>(i));
    out.fac_ins[i] = 1.0 - p.Effectiveness(p.g_insert, td, tau, src.divisor);
    out.fac_del[i] =
        1.0 - src.coverage_t0 * p.Effectiveness(p.g_delete, td, tau,
                                                src.divisor);
    out.fac_upd[i] =
        1.0 - src.coverage_t0 * p.Effectiveness(p.g_update, td, tau,
                                                src.divisor);
  }
  if (options_.model_capture_backlog && table.t > t0_ && t0_ > 0) {
    out.backlog_fac_t.resize(static_cast<std::size_t>(t0_));
    for (TimePoint tau = 1; tau <= t0_; ++tau) {
      out.backlog_fac_t[static_cast<std::size_t>(tau - 1)] =
          1.0 - p.Effectiveness(p.g_insert, td, static_cast<double>(tau),
                                src.divisor);
    }
  }
  return out;
}

template <typename Visitor>
void QualityEstimator::EvalContext::ForEachProductArray(Visitor&& visit) {
  for (TimeState& ts : times_) {
    visit(ts.miss_ins);
    visit(ts.miss_del);
    visit(ts.miss_upd);
    visit(ts.back_t);
  }
  visit(back_t0_);
}

/// The dispatched evaluation loops. Each `*Body` is the one implementation;
/// the `*Default` and `*V3` copies compile it for the build's ISA and for
/// x86-64-v3, and the entry points call the copy FRESHSEL_SIMD_PICK selects
/// (common/simd.h).
struct QualityEstimator::Kernels {
  /// The per-tau miss-product arrays one evaluation folds. The backlog
  /// arrays are null when the capture backlog is off (or the set is empty).
  struct MissProducts {
    const double* ins = nullptr;
    const double* del = nullptr;
    const double* upd = nullptr;
    const double* back_t0 = nullptr;
    const double* back_t = nullptr;
  };

  /// The shared tail of every evaluation path: folds per-tau miss products
  /// (optionally times one candidate source's factors) into the
  /// expectation sums and the published quality ratios.
  template <bool kWithCandidate>
  [[gnu::always_inline]] static EstimatedQuality EvaluateFromProductsBody(
      const QualityEstimator& est, const TimeTable& table, double up0,
      double cov0, double all0, const MissProducts& miss,
      const SourceTimeTable* cand, const RegisteredSource* cand_src) {
    EstimatedQuality q;
    const SubdomainChangeModel& agg = est.aggregate_;
    const std::size_t steps = table.steps;

    // Expectation sums over tau = t0+1 .. t (Eqs. 9-11, 15, 19 and the Up
    // components): per-tau miss products (times the candidate's factors in
    // the delta path) folded against the precomputed weights in one loop,
    // in scalar order, so the association (and therefore every published
    // bit) matches the unfactored accumulation. The candidate multiply
    // applies the same floor as Push and the plain path, so the delta
    // path computes literally the same op sequence as a full recompute
    // over set+cand.
    double e_ins = 0.0;
    double e_ins_nosurv = 0.0;
    double e_del = 0.0;
    double e_ins_up = 0.0;
    double e_ex_up = 0.0;
    const double* w_cov = table.w_cov.data();
    const double* w_up_ins = table.w_up_ins.data();
    const double* w_up_upd = table.w_up_upd.data();
    for (std::size_t i = 0; i < steps; ++i) {
      double mi = miss.ins[i];
      double md = miss.del[i];
      double mu = miss.upd[i];
      if constexpr (kWithCandidate) {
        mi = std::max(mi * cand->fac_ins[i], kMissProductFloor);
        md = std::max(md * cand->fac_del[i], kMissProductFloor);
        mu = std::max(mu * cand->fac_upd[i], kMissProductFloor);
      }
      const double pr_ins = 1.0 - mi;
      const double pr_del = 1.0 - md;
      const double pr_upd = 1.0 - mu;
      e_ins += w_cov[i] * pr_ins;                 // Eq. 15.
      e_ins_nosurv += agg.lambda_insert * pr_ins;
      e_del += agg.lambda_disappear * pr_del;     // Eq. 19.
      e_ins_up += w_up_ins[i] * pr_ins;
      e_ex_up += w_up_upd[i] * pr_upd;
    }

    // Capture backlog (extension, see Options::model_capture_backlog):
    // appearances at tau <= t0 captured only after t0.
    double e_backlog = 0.0;
    double e_backlog_up = 0.0;
    if (miss.back_t0 != nullptr) {
      const double* w_back = table.w_back.data();
      const double* w_back_up = table.w_back_up.data();
      const std::size_t t0_steps = table.w_back.size();
      for (std::size_t j = 0; j < t0_steps; ++j) {
        double miss_by_t0 = miss.back_t0[j];
        double miss_by_t = miss.back_t[j];
        if constexpr (kWithCandidate) {
          miss_by_t0 = std::max(miss_by_t0 * cand_src->backlog_fac_t0[j],
                                kMissProductFloor);
          miss_by_t =
              std::max(miss_by_t * cand->backlog_fac_t[j], kMissProductFloor);
        }
        const double pr_late = std::max(miss_by_t0 - miss_by_t, 0.0);
        if (pr_late <= 0.0) continue;
        e_backlog += w_back[j] * pr_late;
        e_backlog_up += w_back_up[j] * pr_late;
      }
    }

    // Coverage (Eqs. 12-13).
    const double old_cov = cov0 * table.global_surv_d;
    const double covered_est = old_cov + e_ins + e_backlog;
    q.coverage = std::clamp(covered_est / table.expected_world, 0.0, 1.0);

    // Freshness (Eqs. 16-18).
    const double old_up = up0 * table.global_surv_d * table.global_surv_u;
    const double expected_up = old_up + e_ins_up + e_ex_up + e_backlog_up;
    const double inserted_into_result =
        est.options_.model_ghost_result ? e_ins_nosurv : e_ins;
    const double expected_result =
        std::max(all0 + inserted_into_result + e_backlog - e_del,
                 std::max(expected_up, 0.0));
    q.expected_world = table.expected_world;
    q.expected_result = expected_result;
    q.expected_up = expected_up;
    q.local_freshness =
        expected_result > 0.0
            ? std::clamp(expected_up / expected_result, 0.0, 1.0)
            : 0.0;
    q.global_freshness =
        std::clamp(expected_up / table.expected_world, 0.0, 1.0);

    // Accuracy via Eq. 5, in its count form up / (|Omega| - covered + |F|).
    const double union_size =
        std::max(table.expected_world - covered_est + expected_result, 1.0);
    q.accuracy = std::clamp(expected_up / union_size, 0.0, 1.0);
    // Post-conditions: every published metric is a probability and every
    // expectation is finite (Eqs. 12-19 preserve both by construction).
    FRESHSEL_DCHECK_PROB(q.coverage);
    FRESHSEL_DCHECK_PROB(q.local_freshness);
    FRESHSEL_DCHECK_PROB(q.global_freshness);
    FRESHSEL_DCHECK_PROB(q.accuracy);
    FRESHSEL_DCHECK_FINITE(q.expected_world);
    FRESHSEL_DCHECK_FINITE(q.expected_result);
    FRESHSEL_DCHECK_FINITE(q.expected_up);
    return q;
  }

  /// EvalContext::Push: log what it overwrites, then grow the union
  /// signatures, their counts and the running per-tau miss products by
  /// `handle`.
  [[gnu::always_inline]] static void PushBody(EvalContext& ctx,
                                              SourceHandle handle) {
    const QualityEstimator& est = *ctx.est_;
    const RegisteredSource& src = est.sources_[handle];
    // Log first: Pop restores state bit-exactly from the logs rather than
    // dividing the candidate's factors back out (near-zero miss products
    // would amplify the rounding error of a divide).
    ctx.checkpoints_.push_back(
        {ctx.saved_words_.size(), ctx.saved_products_.size(), ctx.counts_});
    ctx.ForEachProductArray([&](const std::vector<double>& products) {
      ctx.saved_products_.insert(ctx.saved_products_.end(), products.begin(),
                                 products.end());
    });

    // Only the source's nonzero words can change. Union counts are exact
    // integers, so adding the newly set bits equals recounting.
    const std::size_t nwords = src.words.size();
    const std::size_t log_begin = ctx.saved_words_.size();
    ctx.saved_words_.resize(log_begin + nwords);
    SignatureWord* log = ctx.saved_words_.data() + log_begin;
    const SignatureWord* add = src.words.data();
    std::uint64_t* up = ctx.up_.mutable_words();
    std::uint64_t* cov = ctx.cov_.mutable_words();
    std::uint64_t* all = ctx.all_.mutable_words();
    std::size_t up_added = 0;
    std::size_t cov_added = 0;
    std::size_t all_added = 0;
    for (std::size_t i = 0; i < nwords; ++i) {
      const std::size_t w = add[i].index;
      log[i] = {w, up[w], cov[w], all[w]};
      up_added += static_cast<std::size_t>(
          __builtin_popcountll(add[i].up & ~up[w]));
      cov_added += static_cast<std::size_t>(
          __builtin_popcountll(add[i].cov & ~cov[w]));
      all_added += static_cast<std::size_t>(
          __builtin_popcountll(add[i].all & ~all[w]));
      up[w] |= add[i].up;
      cov[w] |= add[i].cov;
      all[w] |= add[i].all;
    }
    ctx.counts_.up += up_added;
    ctx.counts_.cov += cov_added;
    ctx.counts_.all += all_added;

    for (std::size_t ti = 0; ti < ctx.times_.size(); ++ti) {
      EvalContext::TimeState& ts = ctx.times_[ti];
      const std::size_t steps = ts.miss_ins.size();
      if (steps == 0 && ts.back_t.empty()) continue;
      const SourceTimeTable& st = src.tables[ti];
      // Same floored elementwise kernels as the plain path, so the
      // incremental running products are bit-identical to a full
      // recompute.
      simd::MulInPlaceFloored(ts.miss_ins.data(), st.fac_ins.data(), steps,
                              kMissProductFloor);
      simd::MulInPlaceFloored(ts.miss_del.data(), st.fac_del.data(), steps,
                              kMissProductFloor);
      simd::MulInPlaceFloored(ts.miss_upd.data(), st.fac_upd.data(), steps,
                              kMissProductFloor);
      if (!ts.back_t.empty()) {
        simd::MulInPlaceFloored(ts.back_t.data(), st.backlog_fac_t.data(),
                                ts.back_t.size(), kMissProductFloor);
      }
    }
    if (!ctx.back_t0_.empty()) {
      simd::MulInPlaceFloored(ctx.back_t0_.data(), src.backlog_fac_t0.data(),
                              ctx.back_t0_.size(), kMissProductFloor);
    }
    ctx.pushed_.push_back(handle);
  }

  template <bool kWithCandidate>
  static EstimatedQuality EvaluateFromProductsDefault(
      const QualityEstimator& est, const TimeTable& table, double up0,
      double cov0, double all0, const MissProducts& miss,
      const SourceTimeTable* cand, const RegisteredSource* cand_src) {
    return EvaluateFromProductsBody<kWithCandidate>(est, table, up0, cov0,
                                                    all0, miss, cand,
                                                    cand_src);
  }
  static void PushDefault(EvalContext& ctx, SourceHandle handle) {
    PushBody(ctx, handle);
  }

#if defined(FRESHSEL_SIMD_DISPATCH)
  template <bool kWithCandidate>
  FRESHSEL_TARGET_V3 static EstimatedQuality EvaluateFromProductsV3(
      const QualityEstimator& est, const TimeTable& table, double up0,
      double cov0, double all0, const MissProducts& miss,
      const SourceTimeTable* cand, const RegisteredSource* cand_src) {
    return EvaluateFromProductsBody<kWithCandidate>(est, table, up0, cov0,
                                                    all0, miss, cand,
                                                    cand_src);
  }
  FRESHSEL_TARGET_V3 static void PushV3(EvalContext& ctx,
                                        SourceHandle handle) {
    PushBody(ctx, handle);
  }
#endif

  // Entry points: call the copy the dispatcher selects.
  template <bool kWithCandidate>
  static EstimatedQuality EvaluateFromProducts(
      const QualityEstimator& est, const TimeTable& table, double up0,
      double cov0, double all0, const MissProducts& miss,
      const SourceTimeTable* cand = nullptr,
      const RegisteredSource* cand_src = nullptr) {
    return FRESHSEL_SIMD_PICK(EvaluateFromProductsDefault<kWithCandidate>,
                              EvaluateFromProductsV3<kWithCandidate>)(
        est, table, up0, cov0, all0, miss, cand, cand_src);
  }
  static void Push(EvalContext& ctx, SourceHandle handle) {
    FRESHSEL_SIMD_PICK(PushDefault, PushV3)(ctx, handle);
  }
};

void QualityEstimator::EstimatePlain(const std::vector<SourceHandle>& set,
                                     const TimeTable* tables,
                                     std::size_t first_index,
                                     std::size_t count,
                                     EstimatedQuality* out) const {
  for (SourceHandle handle : set) {
    FRESHSEL_CHECK(handle < sources_.size())
        << "unknown source handle " << handle << " (registered: "
        << sources_.size() << ")";
  }
  // The union counts are shared across every table.
  BitVector up(compact_size_);
  BitVector cov(compact_size_);
  BitVector all(compact_size_);
  for (SourceHandle handle : set) {
    const RegisteredSource& src = sources_[handle];
    up.OrWith(src.up);
    cov.OrWith(src.cov);
    all.OrWith(src.all);
  }
  const double up0 = static_cast<double>(up.Count());
  const double cov0 = static_cast<double>(cov.Count());
  const double all0 = static_cast<double>(all.Count());

  std::vector<double> miss_ins;
  std::vector<double> miss_del;
  std::vector<double> miss_upd;
  std::vector<double> back_t0;
  std::vector<double> back_t;
  SourceTimeTable off_grid;
  for (std::size_t i = 0; i < count; ++i) {
    const TimeTable& table = tables[i];
    const std::size_t steps = table.steps;
    const bool backlog = options_.model_capture_backlog && table.t > t0_ &&
                         t0_ > 0 && !set.empty();
    const std::size_t t0_steps = backlog ? static_cast<std::size_t>(t0_) : 0;
    miss_ins.assign(steps, 1.0);
    miss_del.assign(steps, 1.0);
    miss_upd.assign(steps, 1.0);
    back_t0.assign(t0_steps, 1.0);
    back_t.assign(t0_steps, 1.0);
    // Per-tau miss products over the set, in set order, with the floored
    // elementwise kernel Push uses (see kMissProductFloor).
    for (SourceHandle handle : set) {
      const RegisteredSource& src = sources_[handle];
      const SourceTimeTable* st = &off_grid;
      if (first_index != kNoTimeIndex) {
        st = &src.tables[first_index + i];
      } else {
        off_grid = BuildSourceTable(src, table);
      }
      simd::MulInPlaceFloored(miss_ins.data(), st->fac_ins.data(), steps,
                              kMissProductFloor);
      simd::MulInPlaceFloored(miss_del.data(), st->fac_del.data(), steps,
                              kMissProductFloor);
      simd::MulInPlaceFloored(miss_upd.data(), st->fac_upd.data(), steps,
                              kMissProductFloor);
      simd::MulInPlaceFloored(back_t0.data(), src.backlog_fac_t0.data(),
                              t0_steps, kMissProductFloor);
      simd::MulInPlaceFloored(back_t.data(), st->backlog_fac_t.data(),
                              t0_steps, kMissProductFloor);
    }
    FRESHSEL_OBS_COUNT("estimation.full.evals", 1);
    out[i] = Kernels::EvaluateFromProducts<false>(
        *this, table, up0, cov0, all0,
        {miss_ins.data(), miss_del.data(), miss_upd.data(),
         backlog ? back_t0.data() : nullptr,
         backlog ? back_t.data() : nullptr});
  }
}

EstimatedQuality QualityEstimator::Estimate(
    const std::vector<SourceHandle>& set, TimePoint t) const {
  // The old behavior for t < t0 was a silent all-zero result, which hid
  // caller bugs (a selection over garbage quality estimates looks like a
  // selection, just a bad one). Out-of-range times are contract violations.
  FRESHSEL_CHECK(t >= t0_) << "Estimate at t=" << t << " before t0=" << t0_;
  FRESHSEL_CHECK(t - t0_ <= kMaxEvalHorizonSteps)
      << "Estimate at t=" << t << " beyond the supported horizon (t0=" << t0_
      << ", max steps=" << kMaxEvalHorizonSteps << ")";
  EstimatedQuality q;
  const std::size_t t_index = TimeIndexOf(t);
  if (t_index != kNoTimeIndex) {
    EstimatePlain(set, &tables_[t_index], t_index, 1, &q);
  } else {
    const TimeTable table = MakeTimeTable(t);
    EstimatePlain(set, &table, kNoTimeIndex, 1, &q);
  }
  return q;
}

void QualityEstimator::EstimateAllTimes(
    const std::vector<SourceHandle>& set,
    std::vector<EstimatedQuality>& out) const {
  out.resize(eval_times_.size());
  if (eval_times_.empty()) return;
  EstimatePlain(set, tables_.data(), 0, tables_.size(), out.data());
}

EstimatedQuality QualityEstimator::EstimateAverage(
    const std::vector<SourceHandle>& set) const {
  EstimatedQuality avg;
  if (eval_times_.empty()) return avg;
  std::vector<EstimatedQuality> per_time;
  EstimateAllTimes(set, per_time);
  for (const EstimatedQuality& q : per_time) {
    avg.coverage += q.coverage;
    avg.local_freshness += q.local_freshness;
    avg.global_freshness += q.global_freshness;
    avg.accuracy += q.accuracy;
    avg.expected_world += q.expected_world;
    avg.expected_result += q.expected_result;
    avg.expected_up += q.expected_up;
  }
  const double n = static_cast<double>(eval_times_.size());
  avg.coverage /= n;
  avg.local_freshness /= n;
  avg.global_freshness /= n;
  avg.accuracy /= n;
  avg.expected_world /= n;
  avg.expected_result /= n;
  avg.expected_up /= n;
  return avg;
}

QualityEstimator::EvalContext QualityEstimator::MakeEvalContext() const {
  return EvalContext(this);
}

// ---------------------------------------------------------------------------
// EvalContext

QualityEstimator::EvalContext::EvalContext(const QualityEstimator* est)
    : est_(est),
      up_(est->compact_size_),
      cov_(est->compact_size_),
      all_(est->compact_size_) {
  times_.resize(est->eval_times_.size());
  const bool backlog_enabled =
      est->options_.model_capture_backlog && est->t0_ > 0;
  for (std::size_t ti = 0; ti < times_.size(); ++ti) {
    const std::size_t steps = est->tables_[ti].steps;
    times_[ti].miss_ins.assign(steps, 1.0);
    times_[ti].miss_del.assign(steps, 1.0);
    times_[ti].miss_upd.assign(steps, 1.0);
    if (backlog_enabled && steps > 0) {
      times_[ti].back_t.assign(static_cast<std::size_t>(est->t0_), 1.0);
    }
  }
  if (backlog_enabled) {
    back_t0_.assign(static_cast<std::size_t>(est->t0_), 1.0);
  }
}

void QualityEstimator::EvalContext::Clear() {
  pushed_.clear();
  checkpoints_.clear();
  saved_words_.clear();
  saved_products_.clear();
  up_.Clear();
  cov_.Clear();
  all_.Clear();
  counts_ = {};
  for (TimeState& ts : times_) {
    std::fill(ts.miss_ins.begin(), ts.miss_ins.end(), 1.0);
    std::fill(ts.miss_del.begin(), ts.miss_del.end(), 1.0);
    std::fill(ts.miss_upd.begin(), ts.miss_upd.end(), 1.0);
    std::fill(ts.back_t.begin(), ts.back_t.end(), 1.0);
  }
  std::fill(back_t0_.begin(), back_t0_.end(), 1.0);
}

void QualityEstimator::EvalContext::Push(SourceHandle handle) {
  FRESHSEL_CHECK(est_ != nullptr) << "EvalContext used before MakeEvalContext";
  FRESHSEL_CHECK(handle < est_->sources_.size())
      << "unknown source handle " << handle << " (registered: "
      << est_->sources_.size() << ")";
  Kernels::Push(*this, handle);
}

void QualityEstimator::EvalContext::Pop() {
  FRESHSEL_CHECK(!pushed_.empty()) << "Pop on an empty EvalContext";
  const Checkpoint& cp = checkpoints_.back();
  std::uint64_t* up = up_.mutable_words();
  std::uint64_t* cov = cov_.mutable_words();
  std::uint64_t* all = all_.mutable_words();
  for (std::size_t i = cp.words_begin; i < saved_words_.size(); ++i) {
    const SignatureWord& saved = saved_words_[i];
    up[saved.index] = saved.up;
    cov[saved.index] = saved.cov;
    all[saved.index] = saved.all;
  }
  std::size_t pos = cp.products_begin;
  ForEachProductArray([&](std::vector<double>& products) {
    std::copy_n(saved_products_.begin() + static_cast<std::ptrdiff_t>(pos),
                products.size(), products.begin());
    pos += products.size();
  });
  counts_ = cp.counts;
  saved_words_.resize(cp.words_begin);
  saved_products_.resize(cp.products_begin);
  checkpoints_.pop_back();
  pushed_.pop_back();
}

void QualityEstimator::EvalContext::Reset(
    const std::vector<SourceHandle>& set) {
  const std::size_t common = static_cast<std::size_t>(
      std::mismatch(pushed_.begin(), pushed_.end(), set.begin(), set.end())
          .first -
      pushed_.begin());
  while (pushed_.size() > common) Pop();
  for (std::size_t i = common; i < set.size(); ++i) Push(set[i]);
}

EstimatedQuality QualityEstimator::EvalContext::EstimateAtIndex(
    std::size_t t_index, const SourceHandle* candidate,
    const UnionCounts& counts) const {
  const double up0 = static_cast<double>(counts.up);
  const double cov0 = static_cast<double>(counts.cov);
  const double all0 = static_cast<double>(counts.all);
  const TimeTable& table = est_->tables_[t_index];
  const TimeState& ts = times_[t_index];
  const bool backlog = !back_t0_.empty() && !ts.back_t.empty();
  FRESHSEL_OBS_COUNT("estimation.delta.evals", 1);
  const Kernels::MissProducts miss{
      ts.miss_ins.data(), ts.miss_del.data(), ts.miss_upd.data(),
      backlog ? back_t0_.data() : nullptr,
      backlog ? ts.back_t.data() : nullptr};
  if (candidate != nullptr) {
    const RegisteredSource& src = est_->sources_[*candidate];
    return Kernels::EvaluateFromProducts<true>(*est_, table, up0, cov0, all0,
                                               miss, &src.tables[t_index],
                                               &src);
  }
  return Kernels::EvaluateFromProducts<false>(*est_, table, up0, cov0, all0,
                                              miss);
}

QualityEstimator::EvalContext::UnionCounts
QualityEstimator::EvalContext::CountsWith(SourceHandle handle) const {
  const RegisteredSource& src = est_->sources_[handle];
  return {up_.UnionCount(src.up), cov_.UnionCount(src.cov),
          all_.UnionCount(src.all)};
}

EstimatedQuality QualityEstimator::EvalContext::EstimateCurrent(
    TimePoint t) const {
  FRESHSEL_CHECK(est_ != nullptr) << "EvalContext used before MakeEvalContext";
  const std::size_t t_index = est_->TimeIndexOf(t);
  FRESHSEL_CHECK(t_index != kNoTimeIndex)
      << "EvalContext only evaluates at registered eval times (got " << t
      << ")";
  return EstimateAtIndex(t_index, nullptr, counts_);
}

EstimatedQuality QualityEstimator::EvalContext::EstimateWith(
    SourceHandle handle, TimePoint t) const {
  FRESHSEL_CHECK(est_ != nullptr) << "EvalContext used before MakeEvalContext";
  FRESHSEL_CHECK(handle < est_->sources_.size())
      << "unknown source handle " << handle << " (registered: "
      << est_->sources_.size() << ")";
  const std::size_t t_index = est_->TimeIndexOf(t);
  FRESHSEL_CHECK(t_index != kNoTimeIndex)
      << "EvalContext only evaluates at registered eval times (got " << t
      << ")";
  return EstimateAtIndex(t_index, &handle, CountsWith(handle));
}

void QualityEstimator::EvalContext::EstimateAllTimes(
    std::vector<EstimatedQuality>& out) const {
  FRESHSEL_CHECK(est_ != nullptr) << "EvalContext used before MakeEvalContext";
  out.resize(est_->eval_times_.size());
  for (std::size_t ti = 0; ti < out.size(); ++ti) {
    out[ti] = EstimateAtIndex(ti, nullptr, counts_);
  }
}

void QualityEstimator::EvalContext::EstimateAllTimesWith(
    SourceHandle handle, std::vector<EstimatedQuality>& out) const {
  FRESHSEL_CHECK(est_ != nullptr) << "EvalContext used before MakeEvalContext";
  FRESHSEL_CHECK(handle < est_->sources_.size())
      << "unknown source handle " << handle << " (registered: "
      << est_->sources_.size() << ")";
  const UnionCounts counts = CountsWith(handle);
  out.resize(est_->eval_times_.size());
  for (std::size_t ti = 0; ti < out.size(); ++ti) {
    out[ti] = EstimateAtIndex(ti, &handle, counts);
  }
}

}  // namespace freshsel::estimation
