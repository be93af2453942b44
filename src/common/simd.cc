#include "common/simd.h"

#include <atomic>

namespace freshsel::simd {
namespace {

/// Live ScopedDefaultIsa count.
std::atomic<int> g_default_isa_scopes{0};

}  // namespace

bool V3Selected() {
#if defined(FRESHSEL_SIMD_DISPATCH)
  static const bool selected = [] {
    __builtin_cpu_init();
#if defined(__clang__)
    // Older Clang releases do not accept ISA-level names here; these are
    // the x86-64-v3 features the v3 copies can use.
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
           __builtin_cpu_supports("bmi") && __builtin_cpu_supports("bmi2") &&
           __builtin_cpu_supports("popcnt");
#else
    return __builtin_cpu_supports("x86-64-v3") != 0;
#endif
  }();
  return selected;
#else
  return false;
#endif
}

bool UseV3() {
  return V3Selected() &&
         g_default_isa_scopes.load(std::memory_order_relaxed) == 0;
}

ScopedDefaultIsa::ScopedDefaultIsa() {
  g_default_isa_scopes.fetch_add(1, std::memory_order_relaxed);
}

ScopedDefaultIsa::~ScopedDefaultIsa() {
  g_default_isa_scopes.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace freshsel::simd
