// Per-layer replays for the traced run.
//
// Each replay drives one layer's public calls directly, with the workload's
// model, scheduler configuration and per-replica arrival rate, and records a
// span around every call (or every group of calls, for calls too short to
// time alone). The per-layer metrics are then read off those spans.
#pragma once

#include <cstddef>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// What the layer replays take from a workload.
struct LayerSetup {
  FleetConfig fleet;  ///< model, strategy, scheduler, caches, arrivals, fleet size
  /// One replica's slice of the workload, replayed through a single replica:
  /// Poisson arrivals at the workload's mean per-replica rate, with expert
  /// profiles attached.
  std::vector<monde::serve::Request> requests;
  std::size_t share = 0;  ///< requests one replica of the fleet serves
  monde::moe::MoeModelConfig ndp_model;  ///< expert shapes for the NDP replay
};

[[nodiscard]] LayerSetup layer_setup(const FleetConfig& fleet,
                                     const monde::moe::MoeModelConfig& ndp_model);

/// NDP shape-memo counters of one simulator.
struct MemoCounts {
  double hits = 0.0;
  double lookups = 0.0;
};

/// Runs every layer replay under `tracer` and adds the per-layer metrics to
/// `out`. `memo` holds the shape-memo counters to report (the replay
/// simulator's own when null).
void replay_layers(const LayerSetup& setup, Tracer& tracer, Metrics& out,
                   const MemoCounts* memo);

}  // namespace perfbench
