#include "common/rng.hpp"

#include <cmath>

#include "common/error.hpp"

namespace monde {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Seed all four lanes from splitmix64 as recommended by the xoshiro authors.
  std::uint64_t sm = seed;
  for (auto& lane : s_) lane = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::next_below(std::uint64_t n) {
  MONDE_REQUIRE(n > 0, "next_below requires n > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * next_double(); }

std::vector<double> zipf_weights(std::size_t n, double s) {
  MONDE_REQUIRE(n > 0, "zipf_weights requires n > 0");
  std::vector<double> w(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
    total += w[i];
  }
  for (auto& v : w) v /= total;
  return w;
}

}  // namespace monde
