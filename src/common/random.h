#pragma once

#include <cstdint>
#include <vector>

namespace freshsel {

/// Deterministic pseudo-random generator (xoshiro256**).
///
/// Every stochastic component in the library draws from an explicitly seeded
/// `Rng` so that workload generation, simulation and randomized algorithms
/// (GRASP) are fully reproducible. Satisfies the UniformRandomBitGenerator
/// requirements so it can also drive <random> distributions if needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the state via SplitMix64 on `seed`; any seed (including 0) yields
  /// a well-mixed state.
  explicit Rng(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~static_cast<result_type>(0); }

  /// Next raw 64-bit draw.
  std::uint64_t Next();
  result_type operator()() { return Next(); }

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform integer in [0, bound) using Lemire's unbiased method.
  /// Pre: bound > 0.
  std::uint64_t NextBounded(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Pre: lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [lo, hi). Pre: lo <= hi.
  double UniformDouble(double lo, double hi);

  /// Bernoulli draw: true with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Exponential variate with rate `lambda` (mean 1/lambda). Pre: lambda > 0.
  double Exponential(double lambda);

  /// Poisson variate with mean `mean`. Uses Knuth's method for small means
  /// and the PTRS transformed-rejection method for large ones. Pre: mean >= 0.
  std::int64_t Poisson(double mean);

  /// Standard normal variate (Box-Muller, one value per call).
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(NextBounded(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) without replacement
  /// (order unspecified). Pre: k <= n.
  std::vector<std::size_t> SampleWithoutReplacement(std::size_t n,
                                                    std::size_t k);

  /// Derives an independent child generator; use to give each entity /
  /// source its own stream without coupling draw order.
  Rng Fork();

 private:
  std::uint64_t state_[4];
};

}  // namespace freshsel
