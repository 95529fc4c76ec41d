#include "core/allocator.hpp"

#include "common/error.hpp"

namespace monde::core {

DeviceAllocator::DeviceAllocator(const dram::Spec& spec)
    : spec_{spec},
      mapper_{spec_},
      weights_layout_{spec_, mapper_, ndp::Partition::kWeights},
      acts_layout_{spec_, mapper_, ndp::Partition::kActivations} {}

DeviceBuffer DeviceAllocator::allocate(ndp::Partition part, Bytes bytes,
                                       const std::string& tag) {
  MONDE_REQUIRE(bytes.count() > 0, "cannot allocate zero bytes for '" << tag << "'");
  const bool is_weights = part == ndp::Partition::kWeights;
  const ndp::PartitionLayout& layout = is_weights ? weights_layout_ : acts_layout_;
  std::uint64_t& cursor = is_weights ? weights_cursor_ : acts_cursor_;

  const std::uint64_t blocks = layout.blocks_for(bytes);
  MONDE_REQUIRE(cursor + blocks <= layout.block_count(),
                "device memory exhausted allocating '"
                    << tag << "': need " << bytes.str() << ", partition has "
                    << Bytes{(layout.block_count() - cursor) *
                             static_cast<std::uint64_t>(layout.access_bytes())}
                           .str()
                    << " free of " << layout.capacity().str());

  DeviceBuffer buf;
  buf.partition = part;
  buf.first_block = cursor;
  buf.block_count = blocks;
  buf.base_address = layout.block_address(cursor);
  buf.bytes = bytes;
  cursor += blocks;
  return buf;
}

void DeviceAllocator::reset_activations() { acts_cursor_ = 0; }

Bytes DeviceAllocator::weights_used() const {
  return Bytes{weights_cursor_ * static_cast<std::uint64_t>(weights_layout_.access_bytes())};
}

std::uint64_t DeviceAllocator::address_of(const DeviceBuffer& buf, std::uint64_t block) const {
  MONDE_REQUIRE(block < buf.block_count, "block offset beyond buffer");
  const ndp::PartitionLayout& layout =
      buf.partition == ndp::Partition::kWeights ? weights_layout_ : acts_layout_;
  return layout.block_address(buf.first_block + block);
}

}  // namespace monde::core
