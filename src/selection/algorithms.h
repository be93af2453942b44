#ifndef FRESHSEL_SELECTION_ALGORITHMS_H_
#define FRESHSEL_SELECTION_ALGORITHMS_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "selection/matroid.h"
#include "selection/profit.h"

namespace freshsel::obs {
class DecisionLog;
}  // namespace freshsel::obs

namespace freshsel::selection {

/// Outcome of one selection run.
struct SelectionResult {
  std::vector<SourceHandle> selected;  ///< Sorted ascending.
  double profit = 0.0;
  std::uint64_t oracle_calls = 0;  ///< Oracle calls made by this run.
  /// Full candidate evaluations the CELF and stochastic rounds skipped
  /// relative to re-scoring every feasible (or sampled) candidate each
  /// round. Zero for full scans and the local searches.
  std::uint64_t oracle_calls_saved = 0;
  /// Hit rate of the `CachedProfitOracle` the run was given over the whole
  /// process so far, filled by the algorithms themselves when the oracle is
  /// the memoizing decorator; 0 for uncached oracles.
  double cache_hit_rate = 0.0;
};

/// Tuning knobs for `Greedy` (and `BudgetedGreedy`, which shares them).
/// Whether rounds use CELF or a full re-scan, and whether candidates are
/// scored incrementally, is decided from the oracle (`submodular()`,
/// `supports_incremental()`), never by an option: see greedy_rounds.h.
struct GreedyOptions {
  /// Stochastic greedy (Mirzasoleiman et al., AAAI 2015 - "lazier than
  /// lazy greedy"): each round scores a uniform random sample of
  /// ceil((n/k) * ln(1/stochastic_epsilon)) feasible candidates instead of
  /// all of them, giving a (1 - 1/e - epsilon) * OPT expected guarantee
  /// for monotone submodular profits at O(n * ln(1/epsilon)) total
  /// evaluations. Sampling draws from a `common/random.h` stream seeded
  /// with `stochastic_seed`, so runs are deterministic per seed. For a
  /// submodular oracle, sampled candidates whose stale score cannot win
  /// are skipped without changing the selection.
  bool stochastic = false;
  /// Guarantee slack: smaller epsilon = larger per-round samples = closer
  /// to the exact greedy. Clamped to (0, 1).
  double stochastic_epsilon = 0.1;
  /// Seed for the candidate-sampling stream (never `std::random_device`;
  /// see the `nondeterminism` lint rule).
  std::uint64_t stochastic_seed = 42;
  /// Cardinality k in the sample-size formula. 0 derives it: the
  /// matroid's effective rank (sum over groups of min(capacity, group
  /// size)) when a matroid is given, else n. Pass an explicit k for
  /// unconstrained runs where the expected solution size is known.
  std::size_t stochastic_k = 0;
  /// Optional per-run audit trail (not owned; may be null). When set, each
  /// accepted round appends one obs::DecisionRecord (chosen element, gain,
  /// runner-up margin, oracle-call accounting); null skips recording (see
  /// selection/audit.h).
  obs::DecisionLog* decision_log = nullptr;
};

/// The greedy baseline of Dong et al. [3]: starting from the empty set,
/// repeatedly add the feasible source with the largest profit improvement
/// until no addition improves the profit by more than
/// `internal::kImprovementEps`. `matroid` (optional) constrains
/// feasibility. For a submodular oracle candidates are evaluated in the
/// lazy CELF order (Leskovec et al., KDD 2007), which picks the same
/// sources; otherwise every round re-scores every candidate.
SelectionResult Greedy(const ProfitFunction& oracle,
                       const PartitionMatroid* matroid = nullptr,
                       const GreedyOptions& options = {});

/// Algorithm 1 (MaxSub): Feige-Mirrokni local search for unconstrained
/// submodular maximization. Starts from the best singleton, applies
/// additions and deletions while they improve the profit by more than a
/// (1 + epsilon/n^2) factor, then returns the better of the local optimum
/// and its complement.
SelectionResult MaxSub(const ProfitFunction& oracle, double epsilon = 0.5);

/// Warm-started variant of Algorithm 1: runs the same add/delete local
/// search (and complement check) from `initial` instead of the best
/// singleton. Used by the online selector to refresh a running selection
/// after new sources arrive.
SelectionResult MaxSubFrom(const ProfitFunction& oracle,
                           std::vector<SourceHandle> initial,
                           double epsilon = 0.5);

/// Algorithm 3: the approximate local-search procedure over ground set
/// `ground` under `matroids` (delete + exchange moves, (1 + epsilon/n^4)
/// threshold).
SelectionResult MatroidLocalSearch(
    const ProfitFunction& oracle,
    const std::vector<const PartitionMatroid*>& matroids,
    const std::vector<SourceHandle>& ground, double epsilon = 0.5);

/// Algorithm 2 (MaxSub with matroid constraints): runs Algorithm 3 on k+1
/// successively shrinking ground sets and returns the best local optimum.
SelectionResult MaxSubMatroid(
    const ProfitFunction& oracle,
    const std::vector<const PartitionMatroid*>& matroids,
    double epsilon = 0.5);

/// GRASP of Dong et al. [3], extended with optional matroid feasibility for
/// the varying-frequency problem: `restarts` rounds of randomized greedy
/// construction (picking uniformly from the top-`kappa` positive-marginal
/// candidates) followed by best-improvement local search (add / remove /
/// swap). (kappa=1, restarts=1) degenerates to hill climbing.
///
/// When `pool` is set and the oracle reports `thread_safe()`, candidate
/// marginals inside the construction and the local search are evaluated in
/// parallel; the reduction over candidates stays serial in handle order,
/// so parallel runs are bit-identical to serial runs for a given seed.
struct GraspParams {
  int kappa = 1;
  int restarts = 1;
  std::uint64_t seed = 42;
  ThreadPool* pool = nullptr;  ///< Optional; not owned.
  /// Optional per-run audit trail across every restart (construction
  /// rounds and local-search moves, tagged with the restart index); see
  /// GreedyOptions::decision_log.
  obs::DecisionLog* decision_log = nullptr;
};
SelectionResult Grasp(const ProfitFunction& oracle, const GraspParams& params,
                      const PartitionMatroid* matroid = nullptr);

/// Exhaustive optimum for testing; n must be <= 24.
SelectionResult BruteForce(const ProfitFunction& oracle,
                           const PartitionMatroid* matroid = nullptr);

namespace internal {

/// Per-round sample size of stochastic greedy: ceil((n/k) * ln(1/eps)),
/// floored at 1; eps is clamped to (0, 1). Exposed for the oracle-call
/// accounting tests and the bench panels.
std::size_t StochasticSampleSize(std::size_t n, std::size_t k, double eps);

/// Effective rank of a partition matroid over a universe of `n` elements
/// (sum over groups of min(capacity, group size), floored at 1), the
/// derived k of `GreedyOptions::stochastic_k == 0`. Returns max(n, 1) for
/// `matroid == nullptr`.
std::size_t DeriveSampleK(std::size_t n, const PartitionMatroid* matroid);

/// One randomized GRASP construction round (exposed for the oracle-call
/// accounting tests): repeatedly score every feasible candidate, form the
/// restricted candidate list of the `kappa` best positive-marginal
/// candidates, and add one of them uniformly at random. Makes exactly
/// 1 + sum over rounds of (#feasible unselected candidates) oracle calls.
/// Candidates are scored through the oracle's incremental context when it
/// supports one (thread-local contexts per score chunk, so the parallel
/// path stays bit-identical to the serial one). `log`/`restart` wire the
/// decision log (audit records tagged with the restart index); null `log`
/// records nothing.
std::vector<SourceHandle> GraspConstruct(const ProfitFunction& oracle,
                                         int kappa,
                                         const PartitionMatroid* matroid,
                                         Rng& rng,
                                         ThreadPool* pool = nullptr,
                                         obs::DecisionLog* log = nullptr,
                                         std::uint32_t restart = 0);

/// Best-improvement local search over add / remove / swap moves (exposed
/// for the equivalence tests). Returns the profit of the final `selected`.
/// `log`/`restart` as in GraspConstruct.
double GraspLocalSearch(const ProfitFunction& oracle,
                        const PartitionMatroid* matroid,
                        std::vector<SourceHandle>& selected,
                        ThreadPool* pool = nullptr,
                        obs::DecisionLog* log = nullptr,
                        std::uint32_t restart = 0);

}  // namespace internal

}  // namespace freshsel::selection

#endif  // FRESHSEL_SELECTION_ALGORITHMS_H_
