#include "ndp/layout.hpp"

#include <bit>

#include "common/error.hpp"

namespace monde::ndp {

PartitionLayout::PartitionLayout(const dram::Spec& spec, const dram::AddressMapper& mapper,
                                 Partition part)
    : spec_{&spec}, part_{part}, offset_bits_{mapper.offset_bits()} {
  MONDE_REQUIRE(spec.org.banks_per_group % 2 == 0,
                "bank partitioning needs an even number of banks per group");
  const auto& org = spec.org;
  block_count_ = static_cast<std::uint64_t>(org.channels) *
                 static_cast<std::uint64_t>(org.columns) *
                 static_cast<std::uint64_t>(org.ranks) *
                 static_cast<std::uint64_t>(org.bankgroups) *
                 static_cast<std::uint64_t>(org.banks_per_group / 2) *
                 static_cast<std::uint64_t>(org.rows);
  low_bits_ = std::countr_zero(static_cast<unsigned>(org.channels)) +
              std::countr_zero(static_cast<unsigned>(org.columns)) +
              std::countr_zero(static_cast<unsigned>(org.ranks)) +
              std::countr_zero(static_cast<unsigned>(org.bankgroups));
}

Bytes PartitionLayout::capacity() const {
  return Bytes{block_count_ * static_cast<std::uint64_t>(spec_->org.access_bytes)};
}

std::uint64_t PartitionLayout::block_address(std::uint64_t index) const {
  MONDE_REQUIRE(index < block_count_, "partition block index out of range");
  // Enumerate channel fastest -> column -> rank -> bank group -> bank pair ->
  // row slowest. This mirrors the ro-ba-bg-ra-co-ch physical order with the
  // bank LSB pinned to the partition parity, so contiguous logical blocks
  // stripe across all channels and open rows stay hot for whole sweeps.
  const std::uint64_t low = index & ((std::uint64_t{1} << low_bits_) - 1);
  const std::uint64_t high = index >> low_bits_;
  const std::uint64_t parity = part_ == Partition::kActivations ? 1 : 0;
  const std::uint64_t block = low | (parity << low_bits_) | (high << (low_bits_ + 1));
  return block << offset_bits_;
}

std::uint64_t PartitionLayout::blocks_for(Bytes bytes) const {
  const auto gran = static_cast<std::uint64_t>(spec_->org.access_bytes);
  return (bytes.count() + gran - 1) / gran;
}

}  // namespace monde::ndp
