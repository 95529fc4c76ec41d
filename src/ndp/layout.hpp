// Bank-partitioned device-memory layouts.
//
// Paper Section 3.4: "the parameters and activations are each mapped to the
// even and odd-indexed banks" to avoid contention between weight streaming
// and activation traffic, and data is laid out in ro-ba-bg-ra-co-ch order to
// maximize bandwidth for contiguous accesses.
//
// A PartitionLayout enumerates the column-access blocks of one bank-parity
// half of the device in bandwidth-friendly order (channel fastest, then
// column, rank, bank group, bank-within-parity, row slowest) and converts
// logical block indices to physical byte addresses.
#pragma once

#include <cstdint>

#include "dram/address.hpp"
#include "dram/spec.hpp"

namespace monde::ndp {

/// Which bank-parity half of the device a buffer lives in.
enum class Partition : std::uint8_t {
  kWeights = 0,      ///< even-indexed banks
  kActivations = 1,  ///< odd-indexed banks
};

/// Logical-block -> physical-address mapping within one bank-parity half.
class PartitionLayout {
 public:
  PartitionLayout(const dram::Spec& spec, const dram::AddressMapper& mapper, Partition part);

  /// Number of column-access blocks in this partition.
  [[nodiscard]] std::uint64_t block_count() const { return block_count_; }
  /// Bytes covered by this partition (half the device).
  [[nodiscard]] Bytes capacity() const;

  /// Physical byte address of logical block `index` (< block_count()).
  [[nodiscard]] std::uint64_t block_address(std::uint64_t index) const;

  /// Number of blocks needed to hold `bytes`.
  [[nodiscard]] std::uint64_t blocks_for(Bytes bytes) const;

  [[nodiscard]] int access_bytes() const { return spec_->org.access_bytes; }
  [[nodiscard]] Partition partition() const { return part_; }

 private:
  const dram::Spec* spec_;
  Partition part_;
  std::uint64_t block_count_;
  /// Every dimension is a power of two, so a logical index is the physical
  /// block number with the bank's parity bit removed: the index bits below
  /// the bank field (channel, column, rank, bank group) stay in place, and
  /// the rest (bank pair, row) move up one bit over the parity.
  int low_bits_;
  int offset_bits_;
};

}  // namespace monde::ndp
