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
    return channel_.get(addr);
  }

  /// Compose a byte address (offset bits zero) from a coordinate.
  [[nodiscard]] std::uint64_t compose(const Address& a) const;

  /// Total addressable bytes.
  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }

  [[nodiscard]] int offset_bits() const { return offset_bits_; }

 private:
  /// One coordinate's bit slice of a byte address. Each field is read
  /// independently of the others, so a decode has no serial shift chain.
  struct Field {
    int shift = 0;
    std::uint64_t mask = 0;  ///< (1 << width) - 1

    [[nodiscard]] int get(std::uint64_t addr) const {
      return static_cast<int>((addr >> shift) & mask);
    }
    [[nodiscard]] bool holds(int v) const {
      return v >= 0 && static_cast<std::uint64_t>(v) <= mask;
    }
    [[nodiscard]] std::uint64_t put(int v) const { return static_cast<std::uint64_t>(v) << shift; }
  };

  int offset_bits_;
  Field channel_;
  Field column_;
  Field rank_;
  Field bankgroup_;
  Field bank_;
  Field row_;
  std::uint64_t capacity_;
};

}  // namespace monde::dram
