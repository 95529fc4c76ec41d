// Expert-aware serving configuration.
//
// Reconnects the fleet layer to the paper's subject: when enabled, every
// request carries an ExpertProfile (its top activated experts per decoder
// MoE layer, moe/expert_profile.hpp), every replica keeps its own hot/cold
// expert residency (core::ExpertCache), each expert miss is priced into
// step time as a fetch of MoeModelConfig::expert_bytes() over the paper's
// CXL.mem Gen4 x16 path (the MoNDE device pulling cold experts from pooled
// memory; rebalance preloads pay the same fetch), and the cluster
// can periodically rebalance hot experts across replicas. Everything is
// off by default: with `enabled == false` the serving stack is bit-identical
// to an expert-oblivious build (pinned by tests/test_calendar_diff.cpp),
// mirroring the PrefixCacheConfig pattern in serve/kvcache.hpp.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/error.hpp"
#include "common/units.hpp"

namespace monde::serve {

/// Hottest experts preloaded per rebalance tick.
inline constexpr std::size_t kRebalanceHotExperts = 4;

/// Experts kept per layer for pruned requests.
inline constexpr int kPruneWidth = 1;

struct ExpertServingConfig {
  bool enabled = false;

  /// Per-replica residency: experts each replica can hold hot (ExpertCache
  /// capacity). Must be > 0 when enabled -- a replica with no residency
  /// would pay a fetch for every activated expert every step.
  std::size_t cache_capacity = 24;

  /// Experts kept per decoder MoE layer in a request's profile.
  static constexpr int profile_width = 2;

  /// Probe tokens routed per layer when deriving a profile. More tokens
  /// sharpen the top-k estimate; the draw happens on a dedicated per-request
  /// RNG stream either way, so this never perturbs the routed workload.
  static constexpr std::int64_t profile_tokens = 64;

  /// Seed of the cluster-level profiling WorkloadGenerator (independent of
  /// replica seeds so profiles are fleet-global, not per-replica).
  std::uint64_t profile_seed = 42;

  /// Cross-replica rebalancing cadence on the cluster event calendar;
  /// zero() disables rebalancing. Each tick preloads the fleet's
  /// kRebalanceHotExperts currently hottest experts (by dispatched-profile
  /// counts) into every accepting replica's residency, each preload priced
  /// as an expert fetch.
  Duration rebalance_period = Duration::zero();

  /// Pruned-expert degraded mode (MoNE-style): when the chosen replica's
  /// outstanding token load exceeds this threshold, the request's profile is
  /// truncated to kPruneWidth experts per layer before enqueue -- trading
  /// routing fidelity for fewer expert fetches under overload. 0 disables.
  std::int64_t prune_outstanding_tokens = 0;

  void validate() const {
    if (!enabled) return;
    MONDE_REQUIRE(cache_capacity > 0, "expert serving needs cache_capacity > 0");
    MONDE_REQUIRE(rebalance_period >= Duration::zero(),
                  "rebalance_period must be >= 0");
    MONDE_REQUIRE(prune_outstanding_tokens >= 0,
                  "prune_outstanding_tokens must be >= 0");
  }
};

}  // namespace monde::serve
