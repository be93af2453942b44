#include "common/simd.h"

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace freshsel::simd {
namespace {

// Randomized arrays in the miss-product regime: factors in (0, 1], some
// exactly 1.0 (no-op sources), some tiny (high-effectiveness sources).
// Sizes straddle the vector width so the remainder lanes are exercised
// (NEON works on 2 doubles at a time, auto-vectorized AVX2 loops on 4;
// sizes 0..9 cover every remainder).
std::vector<double> RandomFactors(Rng& rng, std::size_t n) {
  std::vector<double> out(n);
  for (double& v : out) {
    const double roll = rng.NextDouble();
    if (roll < 0.1) {
      v = 1.0;
    } else if (roll < 0.25) {
      v = rng.UniformDouble(1e-140, 1e-120);  // Underflow-provoking.
    } else {
      v = rng.UniformDouble(0.05, 1.0);
    }
  }
  return out;
}

constexpr std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 64, 430};
constexpr double kFloor = 1e-250;

TEST(SimdTest, BackendNameIsKnown) {
  const std::string name = kBackendName;
  EXPECT_TRUE(name == "avx2" || name == "neon" || name == "scalar") << name;
}

// The label names the path chosen at startup: "avx2" exactly when the CPU
// supports x86-64-v3 and the build compiled the v3 copies in.
TEST(SimdTest, BackendNameReadsAvx2ExactlyWhenTheV3PathRuns) {
#if defined(__x86_64__) && !defined(FRESHSEL_SIMD_FORCE_SCALAR)
  __builtin_cpu_init();
#if defined(__clang__)
  const bool cpu_has_v3 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
      __builtin_cpu_supports("bmi") && __builtin_cpu_supports("bmi2") &&
      __builtin_cpu_supports("popcnt");
#else
  const bool cpu_has_v3 = __builtin_cpu_supports("x86-64-v3") != 0;
#endif
#else
  const bool cpu_has_v3 = false;
#endif
  EXPECT_EQ(V3Selected(), cpu_has_v3);
  EXPECT_EQ(std::string(kBackendName) == "avx2", cpu_has_v3) << kBackendName;
}

TEST(SimdTest, ScopedDefaultIsaSwitchesTheV3CopiesOff) {
  const bool selected = V3Selected();
  EXPECT_EQ(UseV3(), selected);
  {
    const ScopedDefaultIsa default_isa;
    EXPECT_FALSE(UseV3());
    EXPECT_EQ(V3Selected(), selected);
  }
  EXPECT_EQ(UseV3(), selected);
}

// Elementwise kernels carry a bit-identity contract: every backend must
// match the scalar reference exactly, including remainder lanes.
TEST(SimdTest, MulInPlaceBitIdenticalToScalar) {
  Rng rng(7);
  for (std::size_t n : kSizes) {
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<double> dst = RandomFactors(rng, n);
      const std::vector<double> src = RandomFactors(rng, n);
      std::vector<double> ref = dst;
      MulInPlace(dst.data(), src.data(), n);
      scalar::MulInPlace(ref.data(), src.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(dst[i], ref[i]) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(SimdTest, MulInPlaceFlooredBitIdenticalToScalar) {
  Rng rng(11);
  for (std::size_t n : kSizes) {
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<double> dst = RandomFactors(rng, n);
      const std::vector<double> src = RandomFactors(rng, n);
      std::vector<double> ref = dst;
      MulInPlaceFloored(dst.data(), src.data(), n, kFloor);
      scalar::MulInPlaceFloored(ref.data(), src.data(), n, kFloor);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(dst[i], ref[i]) << "n=" << n << " i=" << i;
        EXPECT_GE(dst[i], kFloor);
      }
    }
  }
}

TEST(SimdTest, MulInPlaceFlooredClampsUnderflow) {
  // Repeated tiny factors would denormalize and flush to zero without the
  // floor; with it the product parks exactly at the floor.
  std::vector<double> dst(5, 1.0);
  std::vector<double> tiny(5, 1e-130);
  for (int pushes = 0; pushes < 4; ++pushes) {
    MulInPlaceFloored(dst.data(), tiny.data(), dst.size(), kFloor);
  }
  for (double v : dst) EXPECT_EQ(v, kFloor);
}

// The scalar reference itself: hand-checked values so the reference the
// whole equivalence suite leans on is itself pinned.
TEST(SimdTest, ScalarReferenceHandChecked) {
  double product[] = {0.5, 0.25};
  const double factor[] = {0.5, 3.0};
  scalar::MulInPlace(product, factor, 2);
  EXPECT_EQ(product[0], 0.25);
  EXPECT_EQ(product[1], 0.75);
  double dst[] = {0.5, 1e-300};
  const double src[] = {0.5, 0.5};
  scalar::MulInPlaceFloored(dst, src, 2, kFloor);
  EXPECT_EQ(dst[0], 0.25);
  EXPECT_EQ(dst[1], kFloor);
}

}  // namespace
}  // namespace freshsel::simd
