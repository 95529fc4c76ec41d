// GPU-MoNDE load balancing (paper Section 3.3, Equations 3-6).
//
// After gating, the top-H most compute-intensive (hottest) experts run on
// the GPU via PMove while the cold remainder runs near-data via AMove; the
// two workflows overlap. H follows Equation 6:
//
//   H = alpha * BW_PCIe / (BW_MD + BW_PCIe) * E_activ
//
// which balances the bandwidth-bound PMove time against the bandwidth-bound
// NDP streaming time (Equation 4). The scaling factor alpha corrects for
// cases where the NDP-side experts are compute-intensive (intuition 2 of
// the paper breaks); it is auto-tuned by periodically re-evaluating recent
// layers under candidate values and keeping the local optimum, mirroring
// the paper's profiling-based tuner.
//
// Every MD+LB placement -- a live layer, a dry run, a tuner sweep -- is one
// composition: gating, the PMove prefix `by_load[0, H)` on the GPU, the
// MoNDE suffix, combine. The tuner's sweep is one pass per window layer. A
// layer's experts are sorted by load once, when it enters the window, into
// the storage of the layer that last left it; the live placement, the window
// and the sweep read that one list, so a warm layer allocates nothing. The
// window keeps only what a placement reads (layer id, token count, the
// sorted experts, the Equation-6 base). The sweep rewinds one reused,
// non-recording scratch schedule and places gating once. The distinct
// clamped H values ascend, so the PMove prefix grows only by the experts
// between consecutive H; for each H the scratch schedule is checkpointed
// after the prefix, the suffix and combine are placed, and the checkpoint is
// restored. Each H's latency is therefore the same chain of placements a
// pinned-H layer makes on a fresh schedule, to the bit. What-ifs and live
// layers price experts from the same cost tables (see strategy.hpp), so once
// a layer's token counts are warm a what-if makes no model call and no NDP
// memo lookup.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/strategy.hpp"

namespace monde::core {

/// Layers between alpha-tuner runs, once the first four layers have retuned.
inline constexpr int kTunePeriod = 4;
/// Recent layers each tuner run re-evaluates.
inline constexpr std::size_t kTuneWindow = 4;

/// The MD+LB strategy. Also exposes dry-run evaluation used by the tuner
/// and by the H-sweep ablation bench.
class MondeLoadBalanced final : public Strategy {
 public:
  explicit MondeLoadBalanced(StrategyContext ctx);

  [[nodiscard]] std::string name() const override { return "MD+LB"; }

  MoeLayerResult run_layer(const moe::MoeLayerWork& work, sim::StreamSchedule& sched,
                           const HwStreams& hw, Duration ready) override;

  /// Equation 6 with the current (or given) alpha, clamped to [0, E_activ].
  [[nodiscard]] int h_from_equation6(const moe::MoeLayerWork& work, double alpha) const;

  /// Unrounded Equation-6 value at alpha = 1 (used to invert H -> alpha).
  [[nodiscard]] double h_raw_equation6(const moe::MoeLayerWork& work) const;

  /// Dry-run: latency of the layer under a fixed H >= 0 on streams that
  /// start free at zero and record nothing. Side-effect free: the GPU
  /// expert cache is only peeked at, and the scratch schedule it replays on
  /// is rewound before every use. H above E_activ prices as H = E_activ.
  [[nodiscard]] Duration evaluate_layer_with_h(const moe::MoeLayerWork& work, int h);

  /// Pin H >= 0 (disables Equation 6 and tuning; the window keeps
  /// filling); pass -1 to restore auto mode. Anything below -1 throws.
  void set_fixed_h(int h);
  /// Pin a positive, finite alpha and disable the auto-tuner.
  void set_alpha(double alpha);

  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] int last_h() const { return last_h_; }

 private:
  /// A routed layer as a placement reads it, prepared once for the live
  /// layer and the tuner's window.
  struct PreparedLayer {
    int layer_id = 0;
    std::int64_t total_tokens = 0;
    std::vector<ExpertLoad> by_load;  ///< activated_by_load() of the work
    double h_raw = 0.0;               ///< h_raw_equation6(work)

    /// h_from_equation6(work, alpha) without re-counting the experts.
    [[nodiscard]] int h_at(double alpha) const;
  };

  /// `work` prepared in `storage`'s reused capacity.
  [[nodiscard]] PreparedLayer prepare(const moe::MoeLayerWork& work,
                                      std::vector<ExpertLoad> storage) const;
  /// Equation 6 at alpha = 1 for `activated` activated experts.
  [[nodiscard]] double h_raw_for(std::int64_t activated) const;

  /// Place `layer` from `ready` under each H of `hs` (ascending, each >= 0;
  /// an H above E_activ places as E_activ) and write H i's accounting to
  /// `out[i]`: the hot prefix `by_load[0, H)` on the GPU, the rest on
  /// MoNDE. Gating is placed once and the prefix grows between consecutive
  /// H; before each H but the last, `sched` is checkpointed after the
  /// prefix and restored after combine, so it must not record when `hs`
  /// holds more than one H. `what_if` leaves the expert cache untouched
  /// (see place_pmove_pipeline).
  void place_layer(const PreparedLayer& layer, std::span<const int> hs,
                   sim::StreamSchedule& sched, const HwStreams& hw, Duration ready,
                   bool what_if, std::span<MoeLayerResult> out);
  void maybe_retune();

  double alpha_ = 1.0;
  bool autotune_ = true;
  int fixed_h_ = -1;
  int last_h_ = -1;
  int layers_seen_ = 0;
  std::vector<PreparedLayer> window_;  ///< oldest first; at most kTuneWindow
  std::vector<ExpertLoad> spare_;  ///< by_load storage of the last layer to leave window_
  sim::StreamSchedule scratch_{sim::Recording::kOff};  ///< every what-if's streams
  HwStreams scratch_hw_;
};

}  // namespace monde::core
