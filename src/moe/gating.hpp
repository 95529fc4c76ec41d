// Skewed gating / routing model.
//
// The paper's key observation (Section 2.2, Figure 3) is that routed-token
// counts are highly skewed: a couple of hot experts absorb most tokens while
// the majority of experts receive 0-7 tokens. Since the system's behaviour
// depends only on the tokens-per-expert histogram (not on token contents),
// we model gating as a two-tier popularity distribution:
//
//   * `num_heavy` hot experts share `heavy_mass` of the routing probability;
//   * the remaining mass follows a Zipf(s) tail over the other experts,
//     shuffled per layer so different layers have different hot experts.
//
// Tokens pick top_k *distinct* experts each (dropless, padding-less routing
// as in the paper's implementation). The NLLB-like profile is calibrated so
// that encoder layer 0 with batch 4 x 512 tokens reproduces the Figure 3
// bucket counts; tests assert this.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace monde::moe {

/// Parameters of the three-tier popularity model: a couple of *hot* experts
/// absorb most mass, a few *warm* experts take tens of tokens, and a flat-
/// ish Zipf tail yields the 0-7-token cold majority.
struct SkewProfile {
  int num_heavy = 2;        ///< hot experts per layer
  double heavy_mass = 0.9;  ///< probability mass shared by hot experts
  int num_warm = 3;         ///< mid-tier experts
  double warm_mass = 0.055; ///< probability mass shared by warm experts
  double zipf_s = 0.35;     ///< tail skew exponent
  /// Fraction of tail experts that are effectively dead (language-pair /
  /// domain specialists the current input never routes to; these produce
  /// the large zero-token bucket of Figure 3).
  double dead_fraction = 0.0;
  /// Weight multiplier applied to dead experts.
  double dead_scale = 0.05;
  /// Uniform noise applied multiplicatively to tail weights, in [1-j, 1+j].
  double jitter = 0.25;

  /// Calibrated to Figure 3 (NLLB-MoE encoder layer 0, FLORES-200).
  [[nodiscard]] static SkewProfile nllb_like();
  /// Switch Transformers top-1 routing: milder skew, more mid-weight experts.
  [[nodiscard]] static SkewProfile switch_like();
  /// Uniform routing (ablation baseline).
  [[nodiscard]] static SkewProfile uniform();
};

/// Per-layer expert popularity + routing sampler.
class GatingModel {
 public:
  /// One GatingModel per MoE layer; `seed` should differ per layer so hot
  /// experts differ across layers.
  GatingModel(std::int64_t num_experts, int top_k, const SkewProfile& profile,
              std::uint64_t seed);

  /// Route `tokens` tokens; returns tokens-routed-per-expert (size E, sums
  /// to tokens * top_k). Each token selects top_k distinct experts.
  [[nodiscard]] std::vector<std::uint64_t> route(std::int64_t tokens, Rng& rng) const;

  /// route() without the vector: adds the same draws into `counts` (size E),
  /// so routing several batches into one histogram sums their routes.
  void route_into(std::int64_t tokens, Rng& rng, std::span<std::uint64_t> counts) const;

  /// The expert a draw `r` in [0, total popularity) picks: the first whose
  /// cumulative popularity reaches `r` (std::lower_bound over the CDF,
  /// clamped to the last expert), found through a guide table.
  [[nodiscard]] std::size_t expert_at(double r) const {
    std::size_t i = guide_[bucket_of(r)];
    while (i < cdf_.size() && cdf_[i] < r) ++i;
    return std::min(i, cdf_.size() - 1);
  }

  [[nodiscard]] const std::vector<double>& popularity() const { return popularity_; }
  [[nodiscard]] std::int64_t num_experts() const { return static_cast<std::int64_t>(popularity_.size()); }
  [[nodiscard]] int top_k() const { return top_k_; }

 private:
  /// Guide-table bucket of a draw: monotone in `r`, so a CDF value in an
  /// earlier bucket than `r`'s is below `r`.
  [[nodiscard]] std::size_t bucket_of(double r) const {
    return std::min(guide_.size() - 1, static_cast<std::size_t>(r * guide_scale_));
  }

  int top_k_;
  std::vector<double> popularity_;  ///< normalized, shuffled
  std::vector<double> cdf_;
  /// Chen-Asau guide table, one bucket per expert: guide_[j] is the first
  /// CDF index whose bucket is j or later. Every index before it holds a
  /// value below any draw in bucket j, so expert_at() scans on from it and
  /// lands where std::lower_bound would, usually in a step or two.
  std::vector<std::size_t> guide_;
  double guide_scale_ = 0.0;  ///< buckets per unit of CDF mass
};

/// Summary of one routed MoE layer: the unit of work every strategy consumes.
struct MoeLayerWork {
  int layer_id = 0;
  std::int64_t total_tokens = 0;  ///< tokens entering the layer (B*S or B)
  int top_k = 1;
  std::vector<std::uint64_t> tokens_per_expert;  ///< size E

  /// Experts with at least one routed token (Equation 5's E_activ).
  [[nodiscard]] std::int64_t activated_experts() const;
  /// Total routed token-slots: sum(tokens_per_expert) == total_tokens * top_k.
  [[nodiscard]] std::uint64_t routed_tokens() const;
  /// Expert indices sorted by descending token count (compute intensity).
  [[nodiscard]] std::vector<std::size_t> experts_by_load() const;
};

}  // namespace monde::moe
