// MoE expert-execution strategies (paper Sections 3.2-3.3, Figure 5).
//
// A Strategy schedules one routed MoE layer onto the platform's parallel
// hardware streams:
//
//   GPU        compute stream of the primary GPU
//   GPU-1      second GPU (multi-GPU expert parallelism only)
//   PCIe-G2M   GPU egress:  AMove input activations
//   PCIe-M2G   GPU ingress: PMove expert weights + AMove output activations
//   Host       driver work: NDP instruction issue, done-register polling
//   MoNDE-i    NDP compute stream of MoNDE device i
//   CPU        host CPU expert compute (CPU+AM baseline)
//
// matching the stream layout of Figure 5. The schedule is deterministic
// list scheduling (sim::StreamSchedule); the resulting Timeline doubles as
// the Figure 5 workflow trace.
//
// Every placement loop prices experts from per-strategy cost tables indexed
// by an expert's token count: GPU expert time, NDP kernel time, and PCIe
// activation transfer time. A table entry is filled on first use by the
// model call that prices it directly, so it is the same double, and pricing
// a warm count is an array lookup. The MoNDE devices of a platform are
// identical (Section 3.3), so one NDP table serves all of them; its entries
// come from the platform's shared NdpCoreSim memo, which stays the one
// source of NDP latencies. A token count never placed on a device is never
// simulated.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "compute/cpu.hpp"
#include "compute/gpu.hpp"
#include "compute/transformer.hpp"
#include "core/expert_cache.hpp"
#include "core/system_config.hpp"
#include "moe/gating.hpp"
#include "moe/model_config.hpp"
#include "ndp/ndp_core.hpp"
#include "sim/timeline.hpp"

namespace monde::core {

/// (expert index, routed tokens) for one activated expert of a layer.
using ExpertLoad = std::pair<std::size_t, std::uint64_t>;

/// The experts of `work` with at least one routed token, in descending-load
/// order (ties keep ascending expert index): experts_by_load() without its
/// zero-token tail.
[[nodiscard]] std::vector<ExpertLoad> activated_by_load(const moe::MoeLayerWork& work);

/// Stream handles shared by the engine and strategies.
struct HwStreams {
  sim::StreamId gpu;
  sim::StreamId gpu2;      ///< only meaningful when the config has 2+ GPUs
  sim::StreamId pcie_g2m;
  sim::StreamId pcie_m2g;
  sim::StreamId host;
  sim::StreamId cpu;
  std::vector<sim::StreamId> ndp;  ///< one per MoNDE device

  /// Registers all streams on `sched` according to `sys`.
  [[nodiscard]] static HwStreams create(sim::StreamSchedule& sched, const SystemConfig& sys);
};

/// Shared, non-owning view of the platform models a strategy prices against.
struct StrategyContext {
  const SystemConfig* sys = nullptr;
  const moe::MoeModelConfig* model = nullptr;
  const compute::GpuModel* gpu = nullptr;
  const compute::CpuModel* cpu = nullptr;
  const compute::TransformerCostModel* xformer = nullptr;
  /// The NDP simulator every MoNDE device of the platform shares (its
  /// SystemConfig::num_monde_devices devices are identical).
  ndp::NdpCoreSim* ndp = nullptr;

  [[nodiscard]] compute::DataType dtype() const { return model->dtype; }
  [[nodiscard]] compute::ExpertShape expert_shape(std::int64_t tokens) const {
    return {tokens, model->dmodel, model->dff};
  }
  /// Activation bytes for `routed` token-slots, one direction.
  [[nodiscard]] Bytes activation_bytes(std::uint64_t routed) const {
    return Bytes{routed * static_cast<std::uint64_t>(model->dmodel) *
                 static_cast<std::uint64_t>(compute::bytes_per_element(model->dtype))};
  }
  void validate() const;
};

/// Accounting for one scheduled MoE layer.
struct MoeLayerResult {
  Duration start = Duration::zero();
  Duration end = Duration::zero();
  Duration gating = Duration::zero();
  Duration combine = Duration::zero();
  std::int64_t experts_gpu = 0;
  std::int64_t experts_ndp = 0;
  std::int64_t experts_cpu = 0;
  Bytes pmove_bytes;
  Bytes amove_bytes;
  int h_value = -1;            ///< load-balanced strategy only
  std::int64_t cache_hits = 0; ///< PMove transfers skipped via the expert cache

  [[nodiscard]] Duration latency() const { return end - start; }
};

/// Available strategies (paper Section 4.2 configurations).
enum class StrategyKind {
  kIdealGpu,           ///< infinite GPU memory; experts compute in place
  kGpuPmove,           ///< GPU+PM: on-demand expert fetch over PCIe
  kMondeAmove,         ///< MD+AM: all experts on MoNDE NDP
  kMondeLoadBalanced,  ///< MD+LB: hot experts on GPU, cold on MoNDE
  kCpuAmove,           ///< CPU+AM: expert compute on the host CPU
  kMultiGpu,           ///< 2-GPU expert parallelism (Figure 10)
};

/// A cost indexed by a token count, computed on first use and kept: entry n
/// holds `compute(n)` from its first lookup on, so a lookup returns the very
/// double the direct call returns, and a count nobody looks up is never
/// computed.
class TokenCostTable {
 public:
  template <typename Compute>
  Duration at(std::uint64_t n, const Compute& compute) {
    if (n >= entries_.size()) [[unlikely]] grow(n);
    Duration& entry = entries_[n];
    if (entry < Duration::zero()) [[unlikely]] entry = compute(n);
    return entry;
  }

 private:
  /// Extend the table past index `n` with not-yet-computed entries.
  void grow(std::uint64_t n);

  std::vector<Duration> entries_;  ///< negative = not computed yet
};

/// Base class: schedules routed MoE layers onto hardware streams. Its cost
/// tables are its own: strategies are not shared between replicas.
class Strategy {
 public:
  explicit Strategy(StrategyContext ctx);
  virtual ~Strategy() = default;
  Strategy(const Strategy&) = delete;
  Strategy& operator=(const Strategy&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Schedule the layer starting no earlier than `ready` (attention output
  /// available in GPU memory). Returns accounting with absolute times.
  virtual MoeLayerResult run_layer(const moe::MoeLayerWork& work, sim::StreamSchedule& sched,
                                   const HwStreams& hw, Duration ready) = 0;

 protected:
  /// Gating network + dispatch of a layer of `total_tokens` tokens on the
  /// GPU stream; returns its end time.
  Duration place_gating(std::int64_t total_tokens, sim::StreamSchedule& sched,
                        const HwStreams& hw, Duration ready, MoeLayerResult& result) const;
  /// Combine (weighted gather) on the GPU stream.
  Duration place_combine(std::int64_t total_tokens, sim::StreamSchedule& sched,
                         const HwStreams& hw, Duration ready, MoeLayerResult& result) const;

  /// PMove pipeline: fetch each expert over PCIe (M->G) and run it on the
  /// GPU as soon as its weights land; returns the last compute end time.
  /// `layer_id` keys the optional GPU expert cache (transfers are skipped
  /// for cache-resident experts). A `what_if` placement only peeks at the
  /// cache (contains()): no recency refresh, no insert, no hit/miss count.
  Duration place_pmove_pipeline(std::span<const ExpertLoad> experts, int layer_id,
                                sim::StreamSchedule& sched, const HwStreams& hw,
                                Duration ready, sim::StreamId gpu_stream,
                                MoeLayerResult& result, bool what_if = false);

  /// GPU-resident experts (no weight transfer): per expert, a host dispatch
  /// no earlier than `dispatch_ready`, then its GEMM serially on
  /// `gpu_stream` from `ready`. Returns the last compute end (`ready` when
  /// `experts` is empty).
  Duration place_resident_experts(std::span<const ExpertLoad> experts,
                                  sim::StreamSchedule& sched, const HwStreams& hw,
                                  Duration dispatch_ready, Duration ready,
                                  sim::StreamId gpu_stream, MoeLayerResult& result);

  /// AMove + NDP batch: deal `experts` (sorted by descending load)
  /// round-robin across the configured MoNDE devices (paper Section 3.3,
  /// multi-device), then per device ship the activations, run its experts
  /// sequentially on the NDP, and retrieve outputs as kernels complete.
  Duration place_ndp_batch(std::span<const ExpertLoad> experts, sim::StreamSchedule& sched,
                           const HwStreams& hw, Duration ready, MoeLayerResult& result);

  /// GEMM time of one expert with `tok` routed tokens on a GPU.
  Duration gpu_expert_time(std::uint64_t tok);
  /// Kernel occupancy of one expert with `tok` routed tokens on a MoNDE
  /// device: its simulated latency plus kNdpExpertOverhead.
  Duration ndp_kernel_time(std::uint64_t tok);
  /// PCIe transfer time of `routed` token-slots of activations.
  Duration activation_transfer_time(std::uint64_t routed);

 public:
  /// The GPU expert cache, when SystemConfig::gpu_expert_cache_bytes > 0
  /// (PMove-side strategies only); nullptr otherwise.
  [[nodiscard]] const ExpertCache* expert_cache() const { return expert_cache_.get(); }

 protected:
  StrategyContext ctx_;
  std::unique_ptr<ExpertCache> expert_cache_;

 private:
  TokenCostTable gpu_time_;
  TokenCostTable ndp_time_;
  TokenCostTable activation_time_;
  Duration pmove_time_;         ///< PCIe transfer of one expert's weights
  Duration offload_dispatch_;   ///< host work to offload one expert to NDP
};

/// Factory covering every StrategyKind.
[[nodiscard]] std::unique_ptr<Strategy> make_strategy(StrategyKind kind, StrategyContext ctx);

}  // namespace monde::core
