#ifndef FRESHSEL_ESTIMATION_QUALITY_ESTIMATOR_H_
#define FRESHSEL_ESTIMATION_QUALITY_ESTIMATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bit_vector.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/result.h"
#include "common/time_types.h"
#include "estimation/source_profile.h"
#include "estimation/world_change_model.h"
#include "world/world.h"

namespace freshsel::estimation {

/// Floor applied to every running per-tau miss product as sources are
/// multiplied in (both the full-evaluation scratch products and the
/// incremental `EvalContext` state). Products of hundreds of
/// high-effectiveness factors otherwise drift into the subnormal range and
/// eventually flush to exactly zero, which (a) makes every later marginal
/// gain compare bit-equal instead of strictly ordered and (b) turns the
/// multiply loops into slow denormal arithmetic. The floor is far below
/// any quality-relevant magnitude - `1 - x` rounds to exactly 1.0 for any
/// x < 2^-53, so all published ratios are bit-identical to the unclamped
/// computation - yet far above DBL_MIN (~2.2e-308), so one further
/// candidate-factor multiply can never denormalize. See the underflow
/// regression test in tests/estimation/eval_context_test.cc.
inline constexpr double kMissProductFloor = 1e-250;

/// Hard cap on `t - t0` for evaluation times (about 2.9k years of daily
/// steps). Each eval time materializes O(t - t0) weight and factor arrays
/// per source; beyond this bound a bogus or overflowed `TimePoint` would
/// silently turn into a multi-gigabyte allocation, so `Create` returns
/// InvalidArgument and the ad-hoc `Estimate` path CHECK-fails instead.
inline constexpr TimePoint kMaxEvalHorizonSteps = 1 << 20;

/// Estimated quality of an integration result at one future time point
/// (Section 4.2.2). Ratios are clamped to [0, 1]; the expectation fields
/// expose the raw building blocks for diagnostics.
struct EstimatedQuality {
  double coverage = 0.0;          ///< Cov* (Eq. 12).
  double local_freshness = 0.0;   ///< LF*  (Eq. 16).
  double global_freshness = 0.0;  ///< GF*  (Eq. 17).
  double accuracy = 0.0;          ///< Acc* (via Eq. 5).
  double expected_world = 0.0;    ///< E[|Omega|_t] (Eq. 14).
  double expected_result = 0.0;   ///< E[|F(S_I)|_t] (Eq. 18).
  double expected_up = 0.0;       ///< E[Up(F(S_I), t)].
};

/// Estimates coverage / freshness / accuracy of arbitrary source subsets at
/// future time points, over one (possibly restricted) data-domain point.
///
/// Construction fixes the domain restriction (a set of subdomains), the
/// training cutoff t0 (from the world model) and the evaluation time points
/// of interest; sources are then registered with `AddSource`, each at an
/// acquisition divisor (divisor m means acquiring every m-th source update,
/// Definition 4). Registration compacts the source signatures to the
/// entities of the restricted domain so that the per-oracle-call cost is
/// independent of the full world size.
///
/// `Estimate` is the value oracle the selection algorithms call; it costs
/// O(|set| * (t - t0)) with small constants. The per-(source, eval-time)
/// miss-factor arrays it multiplies are laid out as contiguous
/// structure-of-arrays tables, memoized at first use, so the inner loops
/// are pure elementwise array products.
///
/// `EvalContext` is the incremental counterpart: it carries the running
/// union signatures and per-tau miss products of a *current* set S, so
/// scoring S + {x} costs O(t - t0) per time point, independent of |S|.
/// The greedy selection loop drops from O(k^2 n) to O(k n) estimator work.
///
/// Thread safety: `Create` and `AddSource` must run single-threaded, but
/// once registration is done the evaluation path (`Estimate`,
/// `EstimateAverage`, `EstimateAllTimes`, `MakeEvalContext` and the const
/// getters) may be called concurrently - scratch buffers are leased from an
/// internal pool, and the per-(source, eval-time) memo publishes filled
/// slots through per-slot atomic pointers, so the hit path is lock-free and
/// only misses serialize on the fill mutex. Each `EvalContext` is
/// single-threaded; create one per thread.
///
/// The hot loops (the miss-product multiply, the expectation fold and
/// `EvalContext::Push`) are dispatched at run time to an x86-64-v3 copy
/// when the CPU has one; both copies publish the same bits
/// (common/simd.h).
class QualityEstimator {
 private:
  /// Per-ISA copies of the hot evaluation loops (quality_estimator.cc).
  struct Kernels;

 public:
  using SourceHandle = std::uint32_t;

  struct Options {
    /// Use per-event-time survival factors exp(-gamma (t - tau)) inside the
    /// freshness sums. The paper's printed formulas use the coarser global
    /// factor exp(-gamma (t - t0)); set false to reproduce that exactly
    /// (ablated in bench_micro_estimator).
    bool per_event_survival = true;
    /// Replace the paper's linear world-size model (Eq. 14) with the exact
    /// birth-death ODE solution
    ///   E[|Omega|_t] = li/gd + (|Omega|_t0 - li/gd) exp(-gd (t - t0)),
    /// which stays accurate when the world is far from its stationary
    /// population. Off by default (paper-faithful); ablated in
    /// bench_micro_estimator.
    bool exponential_world_model = false;
    /// Model the capture backlog: entities that appeared during the
    /// training window but had not yet been captured by any selected
    /// source at t0 keep getting captured after t0. The paper's Eq. 15
    /// only sums appearances after t0, which under-predicts coverage by
    /// about lambda_i * E[capture delay] items for slow sources. Off by
    /// default (paper-faithful, and the term is only approximately
    /// submodular); the prediction-error experiments enable it.
    bool model_capture_backlog = false;
    /// Ghost-aware result size: the paper's Eq. 18 decays insertions by
    /// world-death survival (via Eq. 15) *and* subtracts captured
    /// deletions (Eq. 19), so sources that miss deletions have their
    /// result size under-predicted (dead-but-undeleted ghosts linger in
    /// F). When enabled, E[|F|_t] counts insertions without the survival
    /// decay - an entity leaves F only when its deletion is captured.
    /// Off by default (paper-faithful); the prediction-error experiments
    /// enable it.
    bool model_ghost_result = false;
  };

  /// Incremental delta-evaluation state over a *current* set S: the union
  /// up/cov/all signatures and, per eval time, the running per-tau
  /// miss-product arrays (products over the pushed sources of their miss
  /// factors). `Push` grows S by one source in O(steps) per eval time;
  /// `Pop` restores the previous state exactly from a checkpoint stack
  /// (never by dividing factors back out - near-zero miss products would
  /// amplify rounding error, while checkpoint restore is bit-exact).
  /// `EstimateWith(x, t)` scores S + {x} in O(t - t0), independent of |S|.
  ///
  /// Evaluations are only supported at the estimator's registered eval
  /// times (the cacheable points the selection oracles use). The owning
  /// estimator must outlive the context. Not thread-safe; create one per
  /// thread (`MakeEvalContext` itself is safe to call concurrently).
  class EvalContext {
   public:
    EvalContext() = default;
    EvalContext(EvalContext&&) noexcept = default;
    EvalContext& operator=(EvalContext&&) noexcept = default;
    EvalContext(const EvalContext&) = delete;
    EvalContext& operator=(const EvalContext&) = delete;

    /// True once bound to an estimator via `MakeEvalContext`.
    bool valid() const { return est_ != nullptr; }
    /// The sources pushed so far, in push order (not necessarily sorted).
    const std::vector<SourceHandle>& pushed() const { return pushed_; }
    std::size_t size() const { return pushed_.size(); }

    /// Drops every pushed source and checkpoint: back to the empty set.
    void Clear();
    /// Extends the current set by `handle`, saving a checkpoint first.
    void Push(SourceHandle handle);
    /// Restores the state from before the most recent `Push`, bit-exactly.
    /// Pre: size() > 0.
    void Pop();

    /// Quality of the current set S at eval time `t`. O(t - t0).
    EstimatedQuality EstimateCurrent(TimePoint t) const;
    /// Quality of S + {handle} at eval time `t`, without mutating the
    /// context. O(t - t0), independent of |S|.
    EstimatedQuality EstimateWith(SourceHandle handle, TimePoint t) const;
    /// Batched: quality of S at every eval time in one pass, sharing the
    /// union-signature counts across time points. `out` is resized to the
    /// eval-time count; out[i] corresponds to eval_times()[i].
    void EstimateAllTimes(std::vector<EstimatedQuality>& out) const;
    /// Batched: quality of S + {handle} at every eval time in one pass.
    void EstimateAllTimesWith(SourceHandle handle,
                              std::vector<EstimatedQuality>& out) const;

   private:
    friend class QualityEstimator;
    friend struct QualityEstimator::Kernels;

    /// Running per-eval-time miss products (index i is tau = t0 + 1 + i).
    struct TimeState {
      std::vector<double> miss_ins;
      std::vector<double> miss_del;
      std::vector<double> miss_upd;
      /// Per-tau capture-backlog miss-by-t products (tau = 1 .. t0); empty
      /// unless Options::model_capture_backlog.
      std::vector<double> back_t;
    };
    /// Snapshot of the full mutable state, taken by Push for Pop.
    struct Checkpoint {
      BitVector up;
      BitVector cov;
      BitVector all;
      double up0 = 0.0;
      double cov0 = 0.0;
      double all0 = 0.0;
      std::vector<TimeState> times;
      std::vector<double> back_t0;
    };

    explicit EvalContext(const QualityEstimator* est);

    EstimatedQuality EstimateAtIndex(std::size_t t_index,
                                     const SourceHandle* candidate,
                                     double up0, double cov0,
                                     double all0) const;

    const QualityEstimator* est_ = nullptr;
    std::vector<SourceHandle> pushed_;
    BitVector up_;
    BitVector cov_;
    BitVector all_;
    double up0_ = 0.0;
    double cov0_ = 0.0;
    double all0_ = 0.0;
    std::vector<TimeState> times_;
    /// Per-tau capture-backlog miss-by-t0 products (shared by all eval
    /// times); empty unless Options::model_capture_backlog.
    std::vector<double> back_t0_;
    std::vector<Checkpoint> checkpoints_;
  };

  /// `domain` restricts all metrics to those subdomains (empty => whole
  /// domain). `eval_times` are the future time points T_f; estimates at
  /// other times still work but are never cached. Returns InvalidArgument
  /// on out-of-range subdomains, eval times before t0 or beyond
  /// t0 + kMaxEvalHorizonSteps, or repeated eval times (duplicates would
  /// silently alias one table slot and skew `EstimateAverage` /
  /// `EstimateAllTimes` toward the repeated point).
  static Result<QualityEstimator> Create(const world::World& world,
                                         const WorldChangeModel& model,
                                         std::vector<world::SubdomainId> domain,
                                         TimePoints eval_times,
                                         Options options);
  static Result<QualityEstimator> Create(const world::World& world,
                                         const WorldChangeModel& model,
                                         std::vector<world::SubdomainId> domain,
                                         TimePoints eval_times);

  /// Registers `profile` at acquisition divisor `divisor` (>= 1). The
  /// profile must outlive the estimator. The same profile may be registered
  /// several times with different divisors (the augmented set S^j_i of
  /// Section 5).
  Result<SourceHandle> AddSource(const SourceProfile* profile,
                                 std::int64_t divisor = 1);

  std::size_t source_count() const { return sources_.size(); }
  const SourceProfile& profile(SourceHandle handle) const {
    return *sources_[handle].profile;
  }
  std::int64_t divisor(SourceHandle handle) const {
    return sources_[handle].divisor;
  }
  /// Coverage of a single registered source at t0 within the domain.
  double SourceCoverageAtT0(SourceHandle handle) const {
    return sources_[handle].coverage_t0;
  }

  TimePoint t0() const { return t0_; }
  const Options& options() const { return options_; }
  const TimePoints& eval_times() const { return eval_times_; }
  std::int64_t domain_count_t0() const { return count_t0_; }

  /// Estimated quality of integrating `set` at future day t. Contract
  /// (CHECK-enforced): t0 <= t <= t0 + kMaxEvalHorizonSteps - evaluating
  /// before the training cutoff is a caller bug the old code silently
  /// answered with all-zero quality, and an over-horizon t would allocate
  /// O(t - t0) scratch. At t == t0 this degenerates to the exact
  /// signature metrics.
  EstimatedQuality Estimate(const std::vector<SourceHandle>& set,
                            TimePoint t) const;

  /// Batched `Estimate` over every registered eval time: the union
  /// signatures are computed once and shared across time points (the
  /// per-time results are bit-identical to individual `Estimate` calls).
  /// `out` is resized to the eval-time count.
  void EstimateAllTimes(const std::vector<SourceHandle>& set,
                        std::vector<EstimatedQuality>& out) const;

  /// Averages `Estimate` over all eval times (the paper's aggregate A).
  EstimatedQuality EstimateAverage(const std::vector<SourceHandle>& set) const;

  /// True when `MakeEvalContext` may be used: there is at least one eval
  /// time (the incremental path reads the memoized per-eval-time tables).
  bool SupportsIncremental() const { return !eval_times_.empty(); }

  /// A fresh incremental context over the empty set.
  /// Pre: SupportsIncremental().
  EvalContext MakeEvalContext() const;

 private:
  struct RegisteredSource {
    const SourceProfile* profile = nullptr;
    std::int64_t divisor = 1;
    BitVector up;   // Compact signatures over the restricted domain.
    BitVector cov;
    BitVector all;
    double coverage_t0 = 0.0;
    /// Capture-backlog miss factors 1 - Eff(g_ins, t0, tau) for
    /// tau = 1 .. t0; empty unless Options::model_capture_backlog (they
    /// do not depend on the eval time, so they live here, not in the
    /// per-(source, eval-time) tables).
    std::vector<double> backlog_fac_t0;
  };

  /// Everything about one eval time that does not depend on the evaluated
  /// set: the expected world size, the global survival factors, and the
  /// per-tau accumulation weights of the expectation sums (Eqs. 15, 19 and
  /// the Up components), precomputed at Create so both the full and the
  /// delta evaluation paths run the same pure array arithmetic.
  struct TimeTable {
    TimePoint t = 0;
    std::size_t steps = 0;      ///< t - t0.
    double delta = 0.0;         ///< double(t - t0).
    double expected_world = 1.0;
    double global_surv_d = 1.0;
    double global_surv_u = 1.0;
    std::vector<double> w_cov;     ///< lambda_ins * surv_d(tau).
    std::vector<double> w_up_ins;  ///< lambda_ins * surv_du(tau).
    std::vector<double> w_up_upd;  ///< lambda_upd * surv_du(tau).
    /// Backlog weights over tau = 1 .. t0 (empty unless enabled).
    std::vector<double> w_back;     ///< lambda_ins * surv_d(age).
    std::vector<double> w_back_up;  ///< w_back * exp(-gamma_u * age).
  };

  /// Per-(source, eval-time) miss-factor arrays, stored contiguously
  /// (structure-of-arrays) so the miss-product loops - the hot inner loops
  /// of both the full and the delta evaluation - are pure elementwise
  /// multiplies the compiler auto-vectorizes.
  struct SourceTimeTable {
    std::vector<double> fac_ins;  ///< 1 - g_ins(tau).
    std::vector<double> fac_del;  ///< 1 - cov0 * g_del(tau).
    std::vector<double> fac_upd;  ///< 1 - cov0 * g_upd(tau).
    /// Backlog miss factors 1 - Eff(g_ins, t, tau) for tau = 1 .. t0
    /// (empty unless Options::model_capture_backlog).
    std::vector<double> backlog_fac_t;
  };

  /// One memo slot per (source, eval time). The filled table is published
  /// through an atomic pointer: the hit path is a single acquire load (no
  /// mutex), only misses take the fill lock. A published table is never
  /// replaced, so returned references stay valid for the estimator's
  /// lifetime.
  struct MemoSlot {
    std::atomic<const SourceTimeTable*> table{nullptr};

    MemoSlot() = default;
    MemoSlot(MemoSlot&& other) noexcept
        : table(other.table.exchange(nullptr, std::memory_order_relaxed)) {}
    MemoSlot& operator=(MemoSlot&& other) noexcept {
      if (this != &other) {
        delete table.exchange(
            other.table.exchange(nullptr, std::memory_order_relaxed),
            std::memory_order_relaxed);
      }
      return *this;
    }
    MemoSlot(const MemoSlot&) = delete;
    MemoSlot& operator=(const MemoSlot&) = delete;
    ~MemoSlot() { delete table.load(std::memory_order_relaxed); }
  };

  /// One Estimate call's worth of evaluation scratch: the union-signature
  /// bitvectors plus the reusable miss-product arrays, leased from a pool
  /// so repeated calls make no heap allocations.
  struct Scratch {
    BitVector up;
    BitVector cov;
    BitVector all;
    std::vector<double> miss_ins;
    std::vector<double> miss_del;
    std::vector<double> miss_upd;
    std::vector<double> back_t0;
    std::vector<double> back_t;
  };

  /// Mutable evaluation state shared by concurrent Estimate calls. Held
  /// behind a unique_ptr so the estimator stays movable (mutexes are not).
  /// The same mutex doubles as the memo fill lock (SourceTableFor): the
  /// published tables themselves are lock-free, only building is serial.
  struct SyncState {
    Mutex mutex;
    /// Free list of evaluation scratch buffers.
    std::vector<Scratch> scratch_pool FRESHSEL_GUARDED_BY(mutex);
  };

  static constexpr std::size_t kNoTimeIndex =
      static_cast<std::size_t>(-1);

  QualityEstimator() = default;

  Scratch AcquireScratch() const;
  void ReleaseScratch(Scratch&& scratch) const;

  /// Index of `t` in eval_times_, or kNoTimeIndex. O(log |T_f|) via the
  /// lookup table built at Create (no linear scan per call).
  std::size_t TimeIndexOf(TimePoint t) const;

  TimeTable MakeTimeTable(TimePoint t) const;
  SourceTimeTable BuildSourceTable(const RegisteredSource& src,
                                   const TimeTable& table) const;
  /// The memoized per-(source, eval-time) table; lock-free on hits.
  const SourceTimeTable& SourceTableFor(SourceHandle handle,
                                        std::size_t t_index) const;

  TimePoint t0_ = 0;
  TimePoints eval_times_;
  Options options_;
  std::vector<world::SubdomainId> domain_;
  SubdomainChangeModel aggregate_;
  std::int64_t count_t0_ = 0;
  std::vector<std::int32_t> entity_to_compact_;
  std::vector<world::EntityId> compact_to_entity_;
  std::size_t compact_size_ = 0;
  std::vector<RegisteredSource> sources_;
  std::vector<TimeTable> tables_;  ///< One per eval time, built at Create.
  /// (eval time, index) pairs sorted by time for TimeIndexOf.
  std::vector<std::pair<TimePoint, std::size_t>> time_index_;

  // Shared evaluation state (see class comment re thread safety). The
  // memo cache is indexed [handle][eval time index]; inner vectors are
  // sized at AddSource and never resized, and a filled slot is never
  // rewritten, so references returned by SourceTableFor stay valid.
  mutable std::unique_ptr<SyncState> sync_;
  mutable std::vector<std::vector<MemoSlot>> cache_;
};

}  // namespace freshsel::estimation

#endif  // FRESHSEL_ESTIMATION_QUALITY_ESTIMATOR_H_
