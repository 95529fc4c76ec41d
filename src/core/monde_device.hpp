// One MoNDE device: device memory + allocator + resident expert placement +
// host-driver instruction generation (paper Sections 3.1 and 3.4).
//
// The timing path never builds one: strategies price NDP kernels from the
// platform's shared NdpCoreSim, and an engine only checks that the model
// fits (check_model_fits). MondeDevice is the allocation and
// instruction-compile model behind that check's rule.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/allocator.hpp"
#include "interconnect/instruction.hpp"
#include "interconnect/link.hpp"
#include "moe/model_config.hpp"
#include "ndp/ndp_core.hpp"

namespace monde::core {

/// Identifies an expert within the model: (MoE layer index, expert index).
struct ExpertId {
  int layer = 0;
  int expert = 0;
  auto operator<=>(const ExpertId&) const = default;
};

/// A MoNDE CXL memory expander with NDP units and resident experts.
///
/// All devices in a system are identical, so they share one NdpCoreSim
/// (latency results depend only on the GEMM shape, and the sim memoizes).
class MondeDevice {
 public:
  MondeDevice(int device_id, std::shared_ptr<ndp::NdpCoreSim> sim);

  [[nodiscard]] int id() const { return id_; }

  /// Place one expert's parameters in device memory; records the buffer for
  /// instruction generation. Throws on capacity exhaustion.
  void place_expert(ExpertId eid, Bytes bytes);

  /// Place all experts of every MoE layer of `model` whose index satisfies
  /// (expert % num_devices == device_id % num_devices) -- the static
  /// round-robin sharding used for multi-MoNDE deployments. For a single
  /// device, everything lands here.
  void place_model(const moe::MoeModelConfig& model, int num_devices);

  [[nodiscard]] bool has_expert(ExpertId eid) const { return experts_.count(eid) > 0; }
  [[nodiscard]] const DeviceBuffer& expert_buffer(ExpertId eid) const;
  [[nodiscard]] Bytes weights_used() const { return allocator_.weights_used(); }

  /// Compile one expert operation into its two 64-B NDP instructions
  /// (gemm+relu for linear1, gemm for linear2) with real device addresses.
  [[nodiscard]] std::vector<interconnect::NdpInstruction> compile_expert_op(
      ExpertId eid, std::uint32_t tokens, const moe::MoeModelConfig& model);

  [[nodiscard]] ndp::NdpCoreSim& sim() { return *sim_; }
  [[nodiscard]] const ndp::NdpCoreSim& sim() const { return *sim_; }
  [[nodiscard]] DeviceAllocator& allocator() { return allocator_; }

 private:
  int id_;
  std::shared_ptr<ndp::NdpCoreSim> sim_;
  DeviceAllocator allocator_;
  std::map<ExpertId, DeviceBuffer> experts_;
  std::uint16_t next_kernel_seq_ = 0;
};

/// Throws monde::Error ("device memory exhausted ...") unless every
/// device's place_model(model, num_devices) fits in a device of `mem`.
/// Device 0's round-robin shard is the largest -- ceil(E / num_devices)
/// experts per MoE layer -- so the check is that shard's block count
/// against the weight partition's, without placing anything.
void check_model_fits(const dram::Spec& mem, const moe::MoeModelConfig& model,
                      int num_devices);

}  // namespace monde::core
