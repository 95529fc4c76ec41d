// Unit tests for the GPU-resident ExpertCache: LRU eviction order under
// interleaved access/insert, capacity-0 behaviour, hit-rate accounting,
// and the residency signature maintained for gating-aware dispatch.
#include <gtest/gtest.h>

#include "core/expert_cache.hpp"
#include "moe/expert_profile.hpp"

namespace monde::core {
namespace {

ExpertId id(int layer, int expert) { return ExpertId{layer, expert}; }

TEST(ExpertCache, EvictsLeastRecentlyUsedUnderInterleavedAccessAndInsert) {
  ExpertCache cache{2};
  cache.insert(id(0, 0));
  cache.insert(id(0, 1));  // recency order (most recent first): 1, 0
  EXPECT_TRUE(cache.access(id(0, 0)));  // refresh -> order: 0, 1
  cache.insert(id(0, 2));               // evicts 1, the LRU
  EXPECT_TRUE(cache.contains(id(0, 0)));
  EXPECT_FALSE(cache.contains(id(0, 1)));
  EXPECT_TRUE(cache.contains(id(0, 2)));
  EXPECT_EQ(cache.size(), 2u);

  // Re-inserting a resident expert refreshes recency without evicting.
  cache.insert(id(0, 0));  // order: 0, 2
  EXPECT_EQ(cache.size(), 2u);
  cache.insert(id(0, 3));  // evicts 2
  EXPECT_TRUE(cache.contains(id(0, 0)));
  EXPECT_FALSE(cache.contains(id(0, 2)));
  EXPECT_TRUE(cache.contains(id(0, 3)));

  // A missed access must not change recency: 3 is most recent, 0 is LRU.
  EXPECT_FALSE(cache.access(id(1, 7)));
  cache.insert(id(0, 4));  // evicts 0
  EXPECT_FALSE(cache.contains(id(0, 0)));
  EXPECT_TRUE(cache.contains(id(0, 3)));
}

TEST(ExpertCache, ExpertsOnDifferentLayersAreDistinct) {
  ExpertCache cache{2};
  cache.insert(id(0, 5));
  cache.insert(id(1, 5));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.access(id(0, 5)));
  EXPECT_TRUE(cache.access(id(1, 5)));
}

TEST(ExpertCache, CapacityZeroNeverCaches) {
  ExpertCache cache{0};
  EXPECT_EQ(cache.capacity(), 0u);
  EXPECT_FALSE(cache.access(id(0, 0)));
  cache.insert(id(0, 0));  // no-op
  EXPECT_FALSE(cache.contains(id(0, 0)));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.access(id(0, 0)));  // still a miss after insert
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.0);
}

TEST(ExpertCache, HitRateAccounting) {
  ExpertCache cache{4};
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.0);  // no accesses yet: defined as 0
  EXPECT_FALSE(cache.access(id(0, 0)));     // miss
  cache.insert(id(0, 0));
  EXPECT_TRUE(cache.access(id(0, 0)));   // hit
  EXPECT_TRUE(cache.access(id(0, 0)));   // hit
  EXPECT_FALSE(cache.access(id(1, 0)));  // miss
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
}

TEST(ExpertCache, SignatureTracksResidency) {
  ExpertCache cache{2};
  EXPECT_EQ(cache.signature(), 0u);
  cache.insert(id(0, 1));
  const std::uint64_t bit01 = std::uint64_t{1} << moe::expert_signature_bit(0, 1);
  EXPECT_EQ(cache.signature(), bit01);
  // Re-inserting a resident expert leaves the signature unchanged.
  cache.insert(id(0, 1));
  EXPECT_EQ(cache.signature(), bit01);

  cache.insert(id(0, 2));
  const std::uint64_t bit02 = std::uint64_t{1} << moe::expert_signature_bit(0, 2);
  EXPECT_EQ(cache.signature(), bit01 | bit02);

  // Evicting the LRU (0,1) clears its bit; inserting (0,3) sets its own.
  cache.insert(id(0, 3));
  const std::uint64_t bit03 = std::uint64_t{1} << moe::expert_signature_bit(0, 3);
  EXPECT_EQ(cache.signature(), bit02 | bit03);

  cache.erase(id(0, 2));
  cache.erase(id(0, 3));
  EXPECT_EQ(cache.signature(), 0u);
}

TEST(ExpertCache, SignatureRefcountsCollidingExperts) {
  // Two distinct experts that hash to the same signature bit: the bit must
  // stay set until BOTH leave. Find a colliding pair by brute force.
  const int target = moe::expert_signature_bit(0, 0);
  int other_layer = -1, other_expert = -1;
  for (int l = 0; l < 64 && other_layer < 0; ++l) {
    for (int e = 0; e < 64; ++e) {
      if (l == 0 && e == 0) continue;
      if (moe::expert_signature_bit(l, e) == target) {
        other_layer = l;
        other_expert = e;
        break;
      }
    }
  }
  ASSERT_GE(other_layer, 0) << "no colliding pair in a 64x64 sweep";

  ExpertCache cache{2};
  cache.insert(id(0, 0));
  cache.insert(id(other_layer, other_expert));
  const std::uint64_t bit = std::uint64_t{1} << target;
  EXPECT_EQ(cache.signature() & bit, bit);
  cache.insert(id(1, 1));  // evicts (0,0); the collider keeps the bit alive
  EXPECT_EQ(cache.signature() & bit, bit);
  cache.insert(id(1, 2));  // evicts the collider; now the bit drops
  EXPECT_EQ(cache.signature() & bit, 0u);
}

TEST(ExpertCache, EraseRemovesResidencyAndSignature) {
  ExpertCache cache{4};
  cache.insert(id(0, 1));
  cache.insert(id(0, 2));
  cache.erase(id(0, 1));
  EXPECT_FALSE(cache.contains(id(0, 1)));
  EXPECT_TRUE(cache.contains(id(0, 2)));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.signature(),
            std::uint64_t{1} << moe::expert_signature_bit(0, 2));

  // Erasing an absent expert is a no-op, and erase never counts as an
  // access: hit/miss statistics stay untouched.
  const std::uint64_t misses = cache.misses();
  cache.erase(id(0, 1));
  cache.erase(id(5, 5));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), misses);
  EXPECT_EQ(cache.hits(), 0u);

  // The freed slot is real capacity: a full cache that loses a member
  // accepts the next insert without evicting anyone else.
  ExpertCache full{2};
  full.insert(id(1, 0));
  full.insert(id(1, 1));
  full.erase(id(1, 0));
  full.insert(id(1, 2));
  EXPECT_TRUE(full.contains(id(1, 1)));
  EXPECT_TRUE(full.contains(id(1, 2)));
  EXPECT_EQ(full.size(), 2u);
}

}  // namespace
}  // namespace monde::core
