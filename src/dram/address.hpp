// Physical address decomposition for the MoNDE device memory.
//
// The paper (Section 3.4) maps data "to the DRAM ro-ba-bg-ra-co-ch" order so
// that contiguous accesses stripe across channels first, then columns, then
// ranks/bank-groups/banks, with the row in the most-significant bits. This
// maximizes channel/bank parallelism for streaming reads. The mapper is
// bijective; the allocator uses compose() to build layouts constrained to
// even- or odd-indexed banks (parameter vs. activation partitioning).
#pragma once

#include <cstdint>

#include "common/error.hpp"
#include "dram/spec.hpp"

namespace monde::dram {

/// A fully decomposed DRAM coordinate.
struct Address {
  int channel = 0;
  int rank = 0;
  int bankgroup = 0;
  int bank = 0;  ///< bank index within the bank group
  int row = 0;
  int column = 0;

  /// Flat bank index within a rank: bankgroup * banks_per_group + bank.
  [[nodiscard]] int flat_bank(const Organization& org) const {
    return bankgroup * org.banks_per_group + bank;
  }

  bool operator==(const Address&) const = default;
};

/// Bijective byte-address <-> coordinate mapper in ro-ba-bg-ra-co-ch order.
///
/// Bit layout from LSB: [access offset][channel][column][rank][bankgroup]
/// [bank][row]. All dimension sizes are powers of two (validated by Spec).
class AddressMapper {
 public:
  explicit AddressMapper(const Spec& spec);

  /// Decompose a byte address. The low log2(access_bytes) offset bits are
  /// ignored. `addr` must lie within the device capacity.
  [[nodiscard]] Address decompose(std::uint64_t addr) const;

  /// Channel field alone: the cheap part of decompose() for admission checks.
  [[nodiscard]] int channel_of(std::uint64_t addr) const {
    MONDE_REQUIRE(addr < capacity_, "address 0x" << std::hex << addr << " beyond device capacity");
    return static_cast<int>((addr >> offset_bits_) & ((1ULL << channel_bits_) - 1));
  }

  /// Compose a byte address (offset bits zero) from a coordinate.
  [[nodiscard]] std::uint64_t compose(const Address& a) const;

  /// Total addressable bytes.
  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }

  [[nodiscard]] int offset_bits() const { return offset_bits_; }

 private:
  int offset_bits_;
  int channel_bits_;
  int column_bits_;
  int rank_bits_;
  int bankgroup_bits_;
  int bank_bits_;
  int row_bits_;
  std::uint64_t capacity_;
};

}  // namespace monde::dram
