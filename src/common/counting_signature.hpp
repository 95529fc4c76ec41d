// 64-bit Bloom-style residency summary shared by core::ExpertCache and
// serve::KvCache: each cache maps its resident keys onto bits with its own
// hash, and per-bit reference counts keep a bit set until every resident
// key on it has left, so collisions never clear a live bit.
#pragma once

#include <array>
#include <cstdint>

#include "common/error.hpp"

namespace monde {

class CountingSignature {
 public:
  void add(int bit) {
    if (counts_[bit]++ == 0) bits_ |= std::uint64_t{1} << bit;
  }
  void remove(int bit) {
    MONDE_ASSERT(counts_[bit] > 0, "signature bit " << bit << " underflow");
    if (--counts_[bit] == 0) bits_ &= ~(std::uint64_t{1} << bit);
  }
  /// The OR of every resident key's bit; 0 when nothing is resident.
  [[nodiscard]] std::uint64_t bits() const { return bits_; }
  void clear() { *this = CountingSignature{}; }

 private:
  std::uint64_t bits_ = 0;
  std::array<std::uint32_t, 64> counts_{};  ///< resident keys on each bit
};

}  // namespace monde
