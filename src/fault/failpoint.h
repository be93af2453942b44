#ifndef FRESHSEL_FAULT_FAILPOINT_H_
#define FRESHSEL_FAULT_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace freshsel::fault {

/// Deterministic fault injection (see DESIGN.md §11). A failpoint is a
/// named site in library code — `FRESHSEL_FAILPOINT_RETURN("io.read", ...)`
/// — that is inert by default and can be armed at runtime to fire on a
/// deterministic trigger:
///
///  * `kAlways`  — fires on every hit;
///  * `kOneShot` — fires on the first hit after arming, then disarms;
///  * `kEveryNth`— fires on every Nth hit (hits 1..N-1 pass, hit N fires);
///  * `kProbability` — fires with probability p per hit, drawn from a
///    seeded `freshsel::Rng` stream private to the failpoint, so a given
///    (seed, hit sequence) always produces the same fire pattern.
///
/// Arming happens programmatically (tests), via the CLI `--failpoints`
/// flag, or via the `FRESHSEL_FAILPOINTS` environment variable; all three
/// share the spec grammar parsed by `FailpointRegistry::ArmFromSpec`.
///
/// The macros are always compiled in; the unarmed fast path is one relaxed
/// atomic load.
enum class TriggerMode {
  kDisarmed = 0,
  kAlways,
  kOneShot,
  kEveryNth,
  kProbability,
};

/// Human-readable mode name ("disarmed", "always", "once", "nth", "prob").
std::string_view TriggerModeName(TriggerMode mode);

/// Arming parameters for one failpoint.
struct TriggerSpec {
  TriggerMode mode = TriggerMode::kDisarmed;
  /// kEveryNth: the N (must be >= 1). Ignored otherwise.
  std::uint64_t every_nth = 1;
  /// kProbability: fire probability in [0, 1]. Ignored otherwise.
  double probability = 0.0;
  /// kProbability: seed of the failpoint-private Rng stream.
  std::uint64_t seed = 0;

  static TriggerSpec Always() { return {TriggerMode::kAlways, 1, 0.0, 0}; }
  static TriggerSpec OneShot() { return {TriggerMode::kOneShot, 1, 0.0, 0}; }
  static TriggerSpec EveryNth(std::uint64_t n) {
    return {TriggerMode::kEveryNth, n, 0.0, 0};
  }
  static TriggerSpec Probability(double p, std::uint64_t seed = 0) {
    return {TriggerMode::kProbability, 1, p, seed};
  }
};

/// One named injection site. Registered objects live for the process
/// lifetime (like obs metrics), so call sites may cache the reference in a
/// function-local static; Arm/Disarm only flip state.
class Failpoint {
 public:
  explicit Failpoint(std::string name);

  Failpoint(const Failpoint&) = delete;
  Failpoint& operator=(const Failpoint&) = delete;

  const std::string& name() const { return name_; }

  /// Trigger evaluation: returns true when the armed trigger fires for
  /// this hit. Unarmed cost: one relaxed atomic load. Hits are only
  /// accounted while armed (the unarmed path must stay free).
  bool ShouldFail() {
    if (!armed_.load(std::memory_order_relaxed)) return false;
    return Evaluate();
  }

  /// Arms (or re-arms) with `spec`; hit and fire accounting restarts so an
  /// armed failpoint always replays the same deterministic pattern.
  /// Arming with mode kDisarmed is equivalent to Disarm().
  void Arm(const TriggerSpec& spec);
  void Disarm();

  /// Point-in-time state for reports and tests.
  struct State {
    TriggerSpec spec;
    std::uint64_t hits = 0;   ///< Evaluations while armed since Arm().
    std::uint64_t fires = 0;  ///< Hits that triggered since Arm().
  };
  State state() const;

  std::uint64_t fires() const;
  std::uint64_t hits() const;

 private:
  bool Evaluate();

  const std::string name_;
  std::atomic<bool> armed_{false};
  mutable Mutex mutex_;
  TriggerSpec spec_ FRESHSEL_GUARDED_BY(mutex_);
  std::uint64_t hits_ FRESHSEL_GUARDED_BY(mutex_) = 0;
  std::uint64_t fires_ FRESHSEL_GUARDED_BY(mutex_) = 0;
  /// kProbability only.
  std::unique_ptr<Rng> rng_ FRESHSEL_GUARDED_BY(mutex_);
};

/// Process-wide registry of failpoints, mirroring obs::MetricsRegistry:
/// `Get` creates on first use and returned references stay valid forever.
class FailpointRegistry {
 public:
  /// The process-wide instance every macro call site consults. On first
  /// construction, arms any failpoints named in the FRESHSEL_FAILPOINTS
  /// environment variable (spec errors are reported to stderr and
  /// skipped — a bad env var must not take the process down).
  static FailpointRegistry& Global();

  FailpointRegistry() = default;
  FailpointRegistry(const FailpointRegistry&) = delete;
  FailpointRegistry& operator=(const FailpointRegistry&) = delete;

  /// Returns the named failpoint, creating it (disarmed) if absent.
  Failpoint& Get(std::string_view name);

  /// Returns the named failpoint or nullptr when it was never referenced.
  Failpoint* Lookup(std::string_view name);

  /// Arms failpoints from a spec string:
  ///   name=mode[:arg[:seed]] [; name=mode...]
  /// with modes `off`, `always`, `once`, `nth:N`, `prob:P[:SEED]`, e.g.
  ///   "io.read=nth:3;estimation.learn=prob:0.25:7"
  /// Separators ';' and ',' are interchangeable; blanks are ignored.
  /// Returns InvalidArgument on grammar errors (no partial arming: the
  /// whole spec is validated before any failpoint is touched).
  Status ArmFromSpec(std::string_view spec);

  /// ArmFromSpec(getenv("FRESHSEL_FAILPOINTS")); no-op when unset/empty.
  Status ArmFromEnv();

  /// Disarms every registered failpoint (registrations survive).
  void DisarmAll();

  /// Snapshot of every registered failpoint, sorted by name.
  struct Entry {
    std::string name;
    Failpoint::State state;
  };
  std::vector<Entry> Snapshot() const;

  /// Sum of fires across all registered failpoints.
  std::uint64_t TotalFires() const;

 private:
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Failpoint>, std::less<>> points_
      FRESHSEL_GUARDED_BY(mutex_);
};

}  // namespace freshsel::fault

/// Evaluates the named failpoint's trigger and discards the outcome. Use
/// to mark reachability of a site whose failure is injected elsewhere, or
/// to drive hit-pattern assertions in tests. `name` must be a string
/// literal (the registry lookup is cached in a function-local static).
#define FRESHSEL_FAILPOINT(name)                                       \
  do {                                                                 \
    static ::freshsel::fault::Failpoint& fs_fault_point =              \
        ::freshsel::fault::FailpointRegistry::Global().Get(name);      \
    fs_fault_point.ShouldFail();                                       \
  } while (0)

/// Returns `expr` from the enclosing function when the named failpoint
/// fires. The canonical injection site:
///   FRESHSEL_FAILPOINT_RETURN("io.read",
///                             Status::Unavailable("injected: io.read"));
#define FRESHSEL_FAILPOINT_RETURN(name, expr)                          \
  do {                                                                 \
    static ::freshsel::fault::Failpoint& fs_fault_point =              \
        ::freshsel::fault::FailpointRegistry::Global().Get(name);      \
    if (fs_fault_point.ShouldFail()) {                                 \
      return (expr);                                                   \
    }                                                                  \
  } while (0)

#endif  // FRESHSEL_FAULT_FAILPOINT_H_
