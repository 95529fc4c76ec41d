// MoNDE device-memory allocator (paper Section 3.4, "Memory Allocation").
//
// The host-side driver allocates fixed-size regions for expert parameters
// and input/output activations at MoE layer initialization. Parameters live
// in even-indexed banks, activations in odd-indexed banks (contention
// avoidance), and both are laid out in the bandwidth-friendly
// ro-ba-bg-ra-co-ch block order via ndp::PartitionLayout.
//
// Allocation is bump-pointer per partition: the expert working set is
// immutable for the lifetime of a deployment (no frees), and the activation
// arena is reset per layer. This matches the paper's "fixed-sized memory
// space ... during MoE layer initialization".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dram/address.hpp"
#include "ndp/layout.hpp"

namespace monde::core {

/// A device-resident buffer: a contiguous range of logical blocks within a
/// bank-parity partition, plus its physical base address.
struct DeviceBuffer {
  ndp::Partition partition = ndp::Partition::kWeights;
  std::uint64_t first_block = 0;
  std::uint64_t block_count = 0;
  std::uint64_t base_address = 0;  ///< physical address of first_block
  Bytes bytes;                     ///< requested payload size

  [[nodiscard]] bool valid() const { return block_count > 0; }
};

/// Bump-pointer allocator over the two bank-parity partitions of one device.
class DeviceAllocator {
 public:
  explicit DeviceAllocator(const dram::Spec& spec);

  DeviceAllocator(const DeviceAllocator&) = delete;
  DeviceAllocator& operator=(const DeviceAllocator&) = delete;

  /// Allocate `bytes` in the given partition. Throws monde::Error with a
  /// capacity diagnosis when the partition is exhausted.
  DeviceBuffer allocate(ndp::Partition part, Bytes bytes, const std::string& tag);

  /// Reset the activation partition's bump pointer (per-layer reuse). The
  /// weights partition is never reset.
  void reset_activations();

  [[nodiscard]] Bytes weights_used() const;

  /// Resolve a block index within a buffer to a physical address.
  [[nodiscard]] std::uint64_t address_of(const DeviceBuffer& buf, std::uint64_t block) const;

 private:
  dram::Spec spec_;
  dram::AddressMapper mapper_;
  ndp::PartitionLayout weights_layout_;
  ndp::PartitionLayout acts_layout_;
  std::uint64_t weights_cursor_ = 0;
  std::uint64_t acts_cursor_ = 0;
};

}  // namespace monde::core
