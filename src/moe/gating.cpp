#include "moe/gating.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace monde::moe {

SkewProfile SkewProfile::nllb_like() {
  SkewProfile p;
  p.num_heavy = 2;
  p.heavy_mass = 0.930;
  p.num_warm = 3;
  p.warm_mass = 0.030;
  p.zipf_s = 0.30;
  p.dead_fraction = 0.08;
  p.jitter = 0.25;
  return p;
}

SkewProfile SkewProfile::switch_like() {
  SkewProfile p;
  p.num_heavy = 4;
  p.heavy_mass = 0.55;
  p.num_warm = 6;
  p.warm_mass = 0.18;
  p.zipf_s = 0.45;
  p.jitter = 0.25;
  return p;
}

SkewProfile SkewProfile::uniform() {
  SkewProfile p;
  p.num_heavy = 0;
  p.heavy_mass = 0.0;
  p.num_warm = 0;
  p.warm_mass = 0.0;
  p.zipf_s = 0.0;
  p.jitter = 0.0;
  return p;
}

GatingModel::GatingModel(std::int64_t num_experts, int top_k, const SkewProfile& profile,
                         std::uint64_t seed)
    : top_k_{top_k} {
  MONDE_REQUIRE(num_experts > 0, "gating needs experts");
  MONDE_REQUIRE(top_k > 0 && top_k <= num_experts, "top_k must be in [1, E]");
  MONDE_REQUIRE(profile.num_heavy >= 0 && profile.num_warm >= 0 &&
                    profile.num_heavy + profile.num_warm <= static_cast<int>(num_experts),
                "heavy+warm expert count out of range");
  MONDE_REQUIRE(profile.heavy_mass >= 0.0 && profile.warm_mass >= 0.0 &&
                    profile.heavy_mass + profile.warm_mass < 1.0,
                "heavy_mass + warm_mass must be in [0, 1)");

  Rng rng{seed};
  const auto e = static_cast<std::size_t>(num_experts);
  popularity_.assign(e, 0.0);

  const int heavy = profile.num_heavy;
  const int warm = profile.num_warm;
  const double heavy_mass = heavy > 0 ? profile.heavy_mass : 0.0;
  const double warm_mass = warm > 0 ? profile.warm_mass : 0.0;
  const double tail_mass = 1.0 - heavy_mass - warm_mass;
  const std::size_t tail_n = e - static_cast<std::size_t>(heavy + warm);

  std::vector<double> weights;
  weights.reserve(e);

  // Splits a tier's mass across its members with uneven (jittered) shares.
  auto emit_tier = [&](int count, double mass) {
    if (count <= 0 || mass <= 0.0) return;
    std::vector<double> w(static_cast<std::size_t>(count));
    double total = 0.0;
    for (auto& v : w) {
      v = rng.uniform(0.6, 1.4);
      total += v;
    }
    for (double v : w) weights.push_back(v * mass / total);
  };
  emit_tier(heavy, heavy_mass);
  emit_tier(warm, warm_mass);

  // Tail: flat-ish Zipf over the cold experts with multiplicative jitter.
  // The lowest-ranked `dead_fraction` of the tail is scaled to near zero
  // (experts the current input distribution never exercises).
  std::vector<double> tail =
      tail_n > 0 ? zipf_weights(tail_n, profile.zipf_s) : std::vector<double>{};
  const std::size_t dead_n =
      static_cast<std::size_t>(profile.dead_fraction * static_cast<double>(tail_n));
  double tail_total = 0.0;
  for (std::size_t i = 0; i < tail.size(); ++i) {
    if (profile.jitter > 0.0) {
      tail[i] *= rng.uniform(1.0 - profile.jitter, 1.0 + profile.jitter);
    }
    if (i + dead_n >= tail.size()) tail[i] *= profile.dead_scale;
    tail_total += tail[i];
  }
  for (auto& w : tail) weights.push_back(w * tail_mass / tail_total);

  // Shuffle so hot experts land at random indices (layer-dependent).
  for (std::size_t i = e; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.next_below(i));
    std::swap(weights[i - 1], weights[j]);
  }
  popularity_ = std::move(weights);

  cdf_.resize(e);
  double acc = 0.0;
  for (std::size_t i = 0; i < e; ++i) {
    acc += popularity_[i];
    cdf_[i] = acc;
  }
  MONDE_ASSERT(acc > 0.999 && acc < 1.001, "popularity must normalize to 1");
  MONDE_ASSERT(std::is_sorted(cdf_.begin(), cdf_.end()), "popularity must be non-negative");

  // A bucket past the last knot's holds draws above every knot: it starts at e.
  guide_.assign(e, e);
  guide_scale_ = static_cast<double>(e) / acc;
  for (std::size_t i = 0, j = 0; i < e; ++i) {
    for (const std::size_t b = bucket_of(cdf_[i]); j <= b; ++j) guide_[j] = i;
  }
}

std::vector<std::uint64_t> GatingModel::route(std::int64_t tokens, Rng& rng) const {
  std::vector<std::uint64_t> counts(popularity_.size(), 0);
  route_into(tokens, rng, counts);
  return counts;
}

void GatingModel::route_into(std::int64_t tokens, Rng& rng,
                             std::span<std::uint64_t> counts) const {
  MONDE_REQUIRE(tokens >= 0, "token count must be >= 0");
  const std::size_t e = popularity_.size();
  MONDE_REQUIRE(counts.size() == e, "route_into needs one count per expert");
  const double total = cdf_.back();

  auto draw = [&]() { return expert_at(rng.next_double() * total); };

  for (std::int64_t t = 0; t < tokens; ++t) {
    // top_k distinct experts per token (dropless top-k routing).
    std::size_t first = draw();
    counts[first]++;
    std::size_t prev = first;
    for (int k = 1; k < top_k_; ++k) {
      std::size_t next = draw();
      // Resample on collision; with E >> k this terminates fast. Guard with
      // a linear fallback for pathological popularity vectors.
      int attempts = 0;
      while (next == prev && attempts++ < 64) next = draw();
      if (next == prev) next = (prev + 1) % e;
      counts[next]++;
      prev = next;
    }
  }
}

std::int64_t MoeLayerWork::activated_experts() const {
  return std::count_if(tokens_per_expert.begin(), tokens_per_expert.end(),
                       [](std::uint64_t c) { return c > 0; });
}

std::uint64_t MoeLayerWork::routed_tokens() const {
  return std::accumulate(tokens_per_expert.begin(), tokens_per_expert.end(), std::uint64_t{0});
}

std::vector<std::size_t> MoeLayerWork::experts_by_load() const {
  std::vector<std::size_t> idx(tokens_per_expert.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return tokens_per_expert[a] > tokens_per_expert[b];
  });
  return idx;
}

}  // namespace monde::moe
