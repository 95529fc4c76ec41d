// Deterministic random number generation for reproducible simulations.
//
// Every stochastic component in the simulator (gating skew, router sampling,
// workload generators) draws from an explicitly seeded `Rng`. Experiments are
// bit-reproducible across runs given the same seed.
#pragma once

#include <cstdint>
#include <vector>

namespace monde {

/// xoshiro256** PRNG. Small, fast, and good enough statistical quality for
/// workload sampling; fully deterministic across platforms (unlike
/// std::uniform_int_distribution, whose output is implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t next_below(std::uint64_t n);

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

 private:
  std::uint64_t s_[4];
};

/// Zipf-like popularity vector: weight[i] proportional to 1 / (i+1)^s,
/// normalized to sum to 1. Rank 0 is the most popular item.
[[nodiscard]] std::vector<double> zipf_weights(std::size_t n, double s);

}  // namespace monde
