#pragma once

#include <cstddef>

/// Vector code paths for the signature and estimator hot loops
/// (DESIGN.md §13).
///
/// x86-64 builds dispatch at run time. Each hot function
/// (`BitVector::{Count, UnionCount, IntersectCount, UnionCountOf, OrWith}`,
/// the estimator's miss-product multiply and expectation fold, and
/// `EvalContext::Push`) is compiled twice from one `always_inline` body:
/// a default copy for the ISA the build targets, and a `FRESHSEL_TARGET_V3`
/// copy for x86-64-v3 (AVX2, FMA, BMI, POPCNT). The v3 copy gets the
/// hardware popcount and wider auto-vectorized elementwise loops; nothing
/// else differs. `V3Selected()` checks the CPU once per process
/// (`__builtin_cpu_supports`), and every dispatched call goes through a
/// function pointer picked by `FRESHSEL_SIMD_PICK`.
///
/// Both copies publish the same bits. The whole tree builds with
/// `-ffp-contract=off`, so the v3 copy never fuses a multiply-add that the
/// default copy rounds twice, and without `-ffast-math` the compiler keeps
/// every reduction in scalar order (it vectorizes only lane-independent
/// elementwise work). `ScopedDefaultIsa` lets one binary run both copies,
/// which is how the tests compare them and the kernel gate times them.
///
/// Why not `target_clones` or ifunc: an ifunc resolver runs during
/// relocation, before the sanitizer runtimes are initialized, and a
/// `target_clones` program segfaults at startup under GCC 12
/// `-fsanitize=thread` (the CI tsan entry). A pointer chosen by ordinary
/// code runs cleanly under every sanitizer.
///
/// `-DFRESHSEL_SIMD=scalar` defines FRESHSEL_SIMD_FORCE_SCALAR and compiles
/// no v3 copies, so the default copies are tested on their own (the CI
/// release-scalar entry). aarch64 builds compile the NEON elementwise
/// kernels below in directly, without dispatch.
#if defined(FRESHSEL_SIMD_FORCE_SCALAR)
#define FRESHSEL_SIMD_BACKEND_NAME "scalar"
#elif defined(__x86_64__) && defined(__GNUC__)
#define FRESHSEL_SIMD_DISPATCH 1
#define FRESHSEL_SIMD_BACKEND_NAME "scalar"
#define FRESHSEL_TARGET_V3 [[gnu::target("arch=x86-64-v3")]]
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#define FRESHSEL_SIMD_BACKEND_NEON 1
#define FRESHSEL_SIMD_BACKEND_NAME "neon"
#include <arm_neon.h>
#else
#define FRESHSEL_SIMD_BACKEND_NAME "scalar"
#endif

/// The copy of a dispatched function to call: `v3_fn` when UseV3(), else
/// `default_fn`. Without dispatch `v3_fn` is never named, so it need not be
/// compiled.
#if defined(FRESHSEL_SIMD_DISPATCH)
#define FRESHSEL_SIMD_PICK(default_fn, v3_fn) \
  (::freshsel::simd::UseV3() ? &(v3_fn) : &(default_fn))
#else
#define FRESHSEL_SIMD_PICK(default_fn, v3_fn) (&(default_fn))
#endif

namespace freshsel::simd {

/// True when this process runs the x86-64-v3 copies: the build compiled
/// them in and the CPU supports x86-64-v3. Decided once, on first call.
bool V3Selected();

/// True when dispatched functions run their v3 copies right now:
/// V3Selected() and no ScopedDefaultIsa is alive.
bool UseV3();

/// While alive, dispatched functions run their default-ISA copies, so one
/// binary can compare and time both. Process-wide; for tests and benches.
class ScopedDefaultIsa {
 public:
  ScopedDefaultIsa();
  ~ScopedDefaultIsa();
  ScopedDefaultIsa(const ScopedDefaultIsa&) = delete;
  ScopedDefaultIsa& operator=(const ScopedDefaultIsa&) = delete;
};

/// The path chosen at startup: "avx2" when the v3 copies run, else the
/// compiled-in backend ("neon" or "scalar"). Surfaced by the benches and
/// the CI gates so a run's provenance is visible in its metrics.
inline const char* const kBackendName =
    V3Selected() ? "avx2" : FRESHSEL_SIMD_BACKEND_NAME;

// ---------------------------------------------------------------------------
// Elementwise miss-product kernels. One IEEE operation per lane with no
// cross-lane interaction, so every backend is bit-identical to the scalar
// reference, which is always compiled under `simd::scalar` so the tests can
// check the active backend against it on any build.

namespace scalar {

/// dst[i] *= src[i].
inline void MulInPlace(double* dst, const double* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] *= src[i];
}

/// dst[i] = max(dst[i] * src[i], floor). The running miss products use
/// this to stay out of the subnormal range (see kMissProductFloor in
/// quality_estimator.h).
inline void MulInPlaceFloored(double* dst, const double* src, std::size_t n,
                              double floor) {
  for (std::size_t i = 0; i < n; ++i) {
    const double p = dst[i] * src[i];
    dst[i] = p > floor ? p : floor;
  }
}

}  // namespace scalar

#if defined(FRESHSEL_SIMD_BACKEND_NEON)

// NEON backend: 2 doubles per operation (aarch64 float64x2_t).

inline void MulInPlace(double* dst, const double* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(dst + i, vmulq_f64(vld1q_f64(dst + i), vld1q_f64(src + i)));
  }
  for (; i < n; ++i) dst[i] *= src[i];
}

inline void MulInPlaceFloored(double* dst, const double* src, std::size_t n,
                              double floor) {
  const float64x2_t f = vdupq_n_f64(floor);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t p =
        vmulq_f64(vld1q_f64(dst + i), vld1q_f64(src + i));
    vst1q_f64(dst + i, vmaxq_f64(p, f));
  }
  for (; i < n; ++i) {
    const double p = dst[i] * src[i];
    dst[i] = p > floor ? p : floor;
  }
}

#else

// x86-64 and other targets: the scalar loops, which the v3 copies of their
// callers auto-vectorize.

using scalar::MulInPlace;
using scalar::MulInPlaceFloored;

#endif

}  // namespace freshsel::simd
