// Full-system hardware configuration (paper Table 2, bottom half).
#pragma once

#include "compute/cpu.hpp"
#include "compute/gpu.hpp"
#include "dram/spec.hpp"
#include "interconnect/link.hpp"
#include "ndp/ndp_spec.hpp"

namespace monde::core {

// --- Fixed platform ------------------------------------------------------------
//
// The paper evaluates one host platform; no figure varies these, so they
// are constants rather than SystemConfig fields.

inline const compute::GpuSpec kGpu = compute::GpuSpec::a100_pcie_40gb();
inline const compute::CpuSpec kCpu = compute::CpuSpec::xeon_silver_4310();
/// The GPU's PCIe link; PMove rides M->G, AMove input rides G->M. Built once
/// because a LinkSpec holds a std::string: a preset call per placement would
/// allocate on the strategy hot path.
inline const interconnect::LinkSpec kPcie = interconnect::LinkSpec::pcie_gen4_x16();
/// CXL.mem path used for NDP instructions and MMIO (doorbell/done).
inline const interconnect::LinkSpec kCxl = interconnect::LinkSpec::cxl_mem_gen4_x16();

/// Host-side latency from the NDP done-register being raised to the host
/// observing it (MMIO poll interval).
inline constexpr Duration kDonePoll = Duration::micros(1.0);
/// Host framework cost per expert offloaded to an NDP/CPU backend: input
/// slicing, driver ioctl, completion arming. Serializes on the host thread
/// but is small enough to hide behind device execution.
inline constexpr Duration kOffloadDispatchOverhead = Duration::micros(25.0);
/// Device-side cost per offloaded expert kernel pair, paid on that device's
/// NDP stream: activation staging into the odd banks, instruction
/// fetch/decode, skew-unit fill/drain, output drain, and the done-register
/// handshake. Because it sits on the device, it scales down with more MoNDE
/// devices (Figure 9), unlike host dispatch. The value is calibrated against
/// the paper's Figure 6 magnitudes, whose measured workflow retains
/// per-expert overheads around this scale.
inline constexpr Duration kNdpExpertOverhead = Duration::micros(110.0);
/// Host framework cost per GPU-resident expert launch (Ideal / PMove /
/// multi-GPU paths): the HuggingFace MoE implementation loops over activated
/// experts in Python regardless of where weights live, so even the Ideal
/// baseline pays this per expert.
inline constexpr Duration kGpuExpertDispatch = Duration::micros(100.0);
/// Host framework (PyTorch-level) dispatch overhead per transformer block.
/// The paper's profiled latencies include this; it dominates decoder steps.
inline constexpr Duration kFrameworkBlockOverhead = Duration::micros(150.0);
/// Per-decoder-step overhead: sampling, KV-cache bookkeeping, host sync.
inline constexpr Duration kFrameworkStepOverhead = Duration::millis(1.5);

/// The platform settings the paper's figures vary, plus the expert-cache
/// extension.
struct SystemConfig {
  ndp::NdpSpec ndp = ndp::NdpSpec::monde_dac24();
  dram::Spec monde_mem = dram::Spec::monde_lpddr5x_8533();
  int num_monde_devices = 1;
  int num_gpus = 1;

  /// Spare GPU memory dedicated to an LRU cache of fetched experts
  /// (extension beyond the paper; 0 = the paper's fetch-and-evict PMove).
  /// Cached experts skip the PCIe transfer on re-activation.
  Bytes gpu_expert_cache_bytes = Bytes{0};

  /// Aggregate MoNDE memory bandwidth across devices (Equation 6's BW_MD).
  [[nodiscard]] Bandwidth monde_aggregate_bandwidth() const {
    return monde_mem.total_peak_bandwidth() * static_cast<double>(num_monde_devices);
  }

  /// The paper's evaluated platform: 1x A100 PCIe + PCIe Gen4 x16 + one
  /// MoNDE device (512 GB / ~512 GB/s, 64x 4x4 arrays @ 1 GHz).
  [[nodiscard]] static SystemConfig dac24() { return SystemConfig{}; }

  /// Figure 7(b): scale MoNDE memory bandwidth and rate-match NDP compute.
  [[nodiscard]] SystemConfig with_monde_bandwidth_scale(double factor) const {
    SystemConfig s = *this;
    s.monde_mem = monde_mem.with_bandwidth_scale(factor);
    s.ndp = ndp.rate_matched(factor);
    return s;
  }

  void validate() const;
};

}  // namespace monde::core
