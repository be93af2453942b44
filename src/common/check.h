#pragma once

#include <cmath>
#include <sstream>
#include <string>

/// Runtime contract-checking macros for the freshsel library.
///
/// Policy (see DESIGN.md, "Analysis builds"):
///  - `FRESHSEL_CHECK*`   — always-on invariants. A failure is a programming
///    error (caller broke a documented precondition, or internal state is
///    corrupt); the process reports and aborts. Use at API boundaries whose
///    violation would otherwise corrupt memory or silently produce NaNs.
///  - `FRESHSEL_DCHECK*`  — debug-only (no-ops under NDEBUG). Use on hot
///    paths where the check is redundant with a caller-side CHECK.
///  - `Status` / `Result` — recoverable conditions driven by *data* (empty
///    sample, fully-censored observations, malformed input files). Never use
///    a CHECK for something a well-formed caller cannot rule out statically.
///
/// Failure behaviour is routed through a process-wide handler so tests can
/// observe failures without dying (see `SetCheckFailureHandler`). The default
/// handler writes the formatted message to stderr and calls `std::abort()`.

namespace freshsel {
namespace internal {

/// Called when a CHECK fails. Receives the fully formatted message
/// ("file:line: CHECK(cond) failed: detail"). If a custom handler returns
/// (instead of throwing or longjmp-ing), `std::abort()` is called anyway.
using CheckFailureHandler = void (*)(const char* message);

/// Installs `handler` and returns the previous one. Passing `nullptr`
/// restores the default abort handler. Intended for death-test-free unit
/// testing of contract failures (install a handler that throws).
CheckFailureHandler SetCheckFailureHandler(CheckFailureHandler handler);

/// Formats and dispatches a contract failure to the installed handler.
/// Exits by abort, or by exception when a custom handler throws.
[[noreturn]] void CheckFailed(const char* file, int line,
                              const char* condition, const std::string& detail);

/// Stream-capture helper so the macros can accept `<<`-style detail:
///   FRESHSEL_CHECK(x > 0) << "x=" << x;
/// The failure fires when the temporary dies at the end of the full
/// expression, after all detail has been captured.
class CheckMessageBuilder {
 public:
  CheckMessageBuilder(const char* file, int line, const char* condition)
      : file_(file), line_(line), condition_(condition) {}

  CheckMessageBuilder(const CheckMessageBuilder&) = delete;
  CheckMessageBuilder& operator=(const CheckMessageBuilder&) = delete;

  /// noexcept(false) so a test-installed handler may exit via exception.
  [[noreturn]] ~CheckMessageBuilder() noexcept(false) {
    CheckFailed(file_, line_, condition_, stream_.str());
  }

  template <typename T>
  CheckMessageBuilder& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  const char* file_;
  int line_;
  const char* condition_;
  std::ostringstream stream_;
};

/// Gives the `<<` chain a void type so CHECK can sit in a ternary arm.
/// `&` binds looser than `<<`, so all detail is captured first.
struct CheckVoidifier {
  void operator&(const CheckMessageBuilder&) const {}
};

}  // namespace internal
}  // namespace freshsel

/// Always-on invariant check. On failure, formats
/// "file:line: CHECK(cond) failed: <detail>" and dispatches to the installed
/// failure handler (default: stderr + abort). Appendable:
///   FRESHSEL_CHECK(n > 0) << "need a non-empty sample, got n=" << n;
#define FRESHSEL_CHECK(condition)                        \
  (condition) ? (void)0                                  \
              : ::freshsel::internal::CheckVoidifier() & \
                    ::freshsel::internal::CheckMessageBuilder( \
                        __FILE__, __LINE__, #condition)

/// `a` must be finite (not NaN, not +/-inf).
#define FRESHSEL_CHECK_FINITE(a)                         \
  FRESHSEL_CHECK(std::isfinite(static_cast<double>(a)))  \
      << #a " = " << (a) << " is not finite"

/// `a` must be a finite value >= 0 (rates, costs, durations, counts).
#define FRESHSEL_CHECK_NONNEG(a)                                       \
  FRESHSEL_CHECK(std::isfinite(static_cast<double>(a)) && (a) >= 0)    \
      << #a " = " << (a) << " must be finite and non-negative"

/// `a` must be a probability: finite and in [0, 1].
#define FRESHSEL_CHECK_PROB(a)                                        \
  FRESHSEL_CHECK(std::isfinite(static_cast<double>(a)) && (a) >= 0 && \
                 (a) <= 1)                                            \
      << #a " = " << (a) << " must be a probability in [0, 1]"

/// Debug-only variants. The `true ||` short-circuit keeps the condition and
/// any streamed detail compiled (so they cannot bit-rot) but never evaluated
/// at runtime; optimizers drop the dead branch entirely.
#ifdef NDEBUG
#define FRESHSEL_DCHECK(condition) FRESHSEL_CHECK(true || (condition))
#define FRESHSEL_DCHECK_FINITE(a) FRESHSEL_DCHECK(std::isfinite((a)))
#define FRESHSEL_DCHECK_NONNEG(a) FRESHSEL_DCHECK((a) >= 0)
#define FRESHSEL_DCHECK_PROB(a) FRESHSEL_DCHECK((a) >= 0 && (a) <= 1)
#else
#define FRESHSEL_DCHECK(condition) FRESHSEL_CHECK(condition)
#define FRESHSEL_DCHECK_FINITE(a) FRESHSEL_CHECK_FINITE(a)
#define FRESHSEL_DCHECK_NONNEG(a) FRESHSEL_CHECK_NONNEG(a)
#define FRESHSEL_DCHECK_PROB(a) FRESHSEL_CHECK_PROB(a)
#endif
