// One MoNDE device: device memory + allocator + resident expert placement +
// host-driver instruction generation (paper Sections 3.1 and 3.4).
//
// A leaf of the library: nothing on the timing path includes it.
// Strategies price NDP kernels from the platform's shared NdpCoreSim, and
// an engine checks that the model's round-robin shard fits with plain
// arithmetic over the weight partition (engine.cpp). This model shows what
// the host driver does for one expert -- place its weights, compile the two
// 64-B NDP instructions (Figure 4(a)) -- and is what examples/device_explorer
// prints.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/allocator.hpp"
#include "interconnect/instruction.hpp"
#include "moe/expert_profile.hpp"
#include "moe/model_config.hpp"
#include "ndp/ndp_core.hpp"

namespace monde::core {

using moe::ExpertId;

/// A MoNDE CXL memory expander with NDP units and resident experts.
///
/// All devices in a system are identical, so they share one NdpCoreSim
/// (latency results depend only on the GEMM shape, and the sim memoizes).
class MondeDevice {
 public:
  MondeDevice(int device_id, std::shared_ptr<ndp::NdpCoreSim> sim);

  /// Place one expert's parameters in device memory; records the buffer for
  /// instruction generation. Throws on capacity exhaustion.
  void place_expert(ExpertId eid, Bytes bytes);

  [[nodiscard]] bool has_expert(ExpertId eid) const { return experts_.count(eid) > 0; }
  [[nodiscard]] const DeviceBuffer& expert_buffer(ExpertId eid) const;
  [[nodiscard]] Bytes weights_used() const { return allocator_.weights_used(); }

  /// Compile one expert operation into its two 64-B NDP instructions
  /// (gemm+relu for linear1, gemm for linear2) with real device addresses.
  [[nodiscard]] std::vector<interconnect::NdpInstruction> compile_expert_op(
      ExpertId eid, std::uint32_t tokens, const moe::MoeModelConfig& model);

  [[nodiscard]] ndp::NdpCoreSim& sim() { return *sim_; }

 private:
  int id_;
  std::shared_ptr<ndp::NdpCoreSim> sim_;
  DeviceAllocator allocator_;
  std::map<ExpertId, DeviceBuffer> experts_;
  std::uint16_t next_kernel_seq_ = 0;
};

}  // namespace monde::core
