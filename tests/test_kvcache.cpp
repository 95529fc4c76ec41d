// Unit tests for the prefix/KV-cache model (serve/kvcache.hpp): lookup
// semantics, LRU retention/eviction, pinning, transfer pricing, and the
// disabled-mode inertness the serving stack's bit-identity pin relies on.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "serve/kvcache.hpp"

namespace monde::serve {
namespace {

Request request(std::uint64_t id, std::int64_t prompt, std::int64_t new_tokens,
                std::uint64_t prefix_id = 0, std::int64_t shared_len = 0) {
  Request rq;
  rq.id = id;
  rq.prompt_len = prompt;
  rq.max_new_tokens = new_tokens;
  rq.prefix_id = prefix_id;
  rq.shared_prefix_len = shared_len;
  return rq;
}

PrefixCacheConfig enabled_config(std::int64_t capacity = 1 << 20) {
  PrefixCacheConfig cfg;
  cfg.enabled = true;
  cfg.capacity_tokens = capacity;
  return cfg;
}

TEST(PrefixCacheConfig, ValidationFiresOnlyWhenEnabled) {
  PrefixCacheConfig cfg;  // disabled: junk knobs are never read
  cfg.capacity_tokens = -5;
  EXPECT_NO_THROW(cfg.validate());
  cfg.enabled = true;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = enabled_config();
  cfg.kv_bytes_per_token = Bytes{0};
  EXPECT_THROW(cfg.validate(), Error);
  cfg = enabled_config();
  cfg.migration_bw = Bandwidth{};
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(KvCache, DisabledCacheIsInert) {
  KvCache cache{PrefixCacheConfig{}};
  EXPECT_FALSE(cache.enabled());
  Request rq = request(1, 64, 8, /*prefix_id=*/7, /*shared_len=*/32);
  rq.resume.prefilled = 10;
  // Disabled lookups degrade to the request's own resumed prefix.
  EXPECT_EQ(cache.saved_tokens(rq), 10);
  cache.admit(rq, 10);
  cache.decode_token(1);
  cache.complete(1);
  EXPECT_EQ(cache.resident_tokens(), 0);
  EXPECT_EQ(cache.stats().lookups, 0u);
  EXPECT_EQ(cache.stats().saved_tokens, 0);
}

TEST(KvCache, SharedPrefixHitsAfterFirstAdmission) {
  KvCache cache{enabled_config()};
  const Request a = request(1, 64, 8, /*prefix_id=*/3, /*shared_len=*/32);
  EXPECT_EQ(cache.saved_tokens(a), 0);  // nothing resident yet
  cache.admit(a, 0);
  // A group sibling now skips the resident part of the shared prefix...
  const Request b = request(2, 100, 8, /*prefix_id=*/3, /*shared_len=*/32);
  EXPECT_EQ(cache.saved_tokens(b), 32);
  // ...a stranger (other group / no group) does not.
  EXPECT_EQ(cache.saved_tokens(request(3, 100, 8, /*prefix_id=*/4, /*shared_len=*/32)), 0);
  EXPECT_EQ(cache.saved_tokens(request(4, 100, 8)), 0);
  cache.admit(b, 32);
  EXPECT_EQ(cache.stats().lookups, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().saved_tokens, 32);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
}

TEST(KvCache, SavedTokensTakesTheBestOfResumeAndSharedPrefix) {
  KvCache cache{enabled_config()};
  cache.admit(request(1, 64, 8, /*prefix_id=*/3, /*shared_len=*/32), 0);
  Request rq = request(2, 40, 8, /*prefix_id=*/3, /*shared_len=*/24);
  // The sibling carries only 24 shared tokens: the resident 32 don't all apply.
  EXPECT_EQ(cache.saved_tokens(rq), 24);
  // Its own resumed prefix wins when longer...
  rq.resume.prefilled = 30;
  EXPECT_EQ(cache.saved_tokens(rq), 30);
  // ...and the answer never exceeds the prompt.
  rq.resume.prefilled = 40;
  EXPECT_EQ(cache.saved_tokens(rq), 40);
}

TEST(KvCache, PinnedStateGrowsWithDecodeAndReleasesOnCompletion) {
  KvCache cache{enabled_config()};
  Request rq = request(1, 64, 8);
  rq.resume.prefilled = 64;
  rq.resume.decoded = 3;
  cache.admit(rq, 64);
  EXPECT_EQ(cache.resident_tokens(), 64 + 3);
  cache.decode_token(1);
  cache.decode_token(1);
  EXPECT_EQ(cache.resident_tokens(), 64 + 5);
  EXPECT_EQ(cache.stats().resident_peak, 64 + 5);
  cache.complete(1);
  EXPECT_EQ(cache.resident_tokens(), 0);
  EXPECT_EQ(cache.stats().resident_peak, 64 + 5);  // peak sticks
  // Double admission / release of an unknown request are contract errors.
  cache.admit(request(2, 8, 2), 0);
  EXPECT_THROW(cache.admit(request(2, 8, 2), 0), Error);
  EXPECT_THROW(cache.decode_token(99), Error);
  EXPECT_THROW(cache.complete(99), Error);
}

TEST(KvCache, SharedPrefixesEvictLruFirstAndPinnedNever) {
  // Capacity fits a 64-token pinned payload plus two 32-token prefixes.
  KvCache cache{enabled_config(/*capacity=*/64 + 2 * 32)};
  for (std::uint64_t g = 1; g <= 2; ++g) {
    // A request whose whole prompt IS the shared prefix pins nothing
    // unique: the prefix is one physical copy, counted once.
    cache.admit(request(g, 32, 4, /*prefix_id=*/g, /*shared_len=*/32), 0);
    EXPECT_EQ(cache.resident_tokens(), static_cast<std::int64_t>(32 * g));
    cache.complete(g);
  }
  EXPECT_EQ(cache.resident_tokens(), 64);  // two retained prefixes
  // Touch group 1 so group 2 becomes the LRU victim.
  cache.admit(request(10, 32, 4, /*prefix_id=*/1, /*shared_len=*/32), 32);
  cache.complete(10);
  // An 80-token admission carrying a new 16-token prefix overflows (64
  // unique + 32 + 32 + 16 shared = 144 > 128): exactly the LRU entry,
  // group 2, goes. The in-use group-3 prefix is not evictable.
  cache.admit(request(11, 80, 4, /*prefix_id=*/3, /*shared_len=*/16), 0);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.saved_tokens(request(12, 64, 4, /*prefix_id=*/2, /*shared_len=*/32)), 0);
  EXPECT_GT(cache.saved_tokens(request(13, 64, 4, /*prefix_id=*/1, /*shared_len=*/32)), 0);
  // Pinned state alone may exceed capacity; only retained entries are shed.
  cache.decode_token(11);
  EXPECT_GE(cache.resident_tokens(), 65);
  cache.complete(11);
  EXPECT_THROW(cache.complete(11), Error);  // already released
}

TEST(KvCache, DropPinnedKeepsRetainedPrefixes) {
  KvCache cache{enabled_config()};
  cache.admit(request(1, 32, 4, /*prefix_id=*/5, /*shared_len=*/16), 0);
  cache.admit(request(2, 48, 4), 0);
  cache.drop_pinned();
  EXPECT_EQ(cache.resident_tokens(), 16);  // the shared prefix survives
  EXPECT_EQ(cache.saved_tokens(request(3, 32, 4, /*prefix_id=*/5, /*shared_len=*/16)), 16);
}

TEST(KvCache, PrefixSignatureTracksResidencyIncrementally) {
  KvCache cache{enabled_config()};
  EXPECT_EQ(cache.prefix_signature(), 0u);
  cache.admit(request(1, 32, 4, /*prefix_id=*/5, /*shared_len=*/16), 0);
  const std::uint64_t bit5 = std::uint64_t{1} << prefix_signature_bit(5);
  EXPECT_EQ(cache.prefix_signature(), bit5);
  // A second admission of the same group sets nothing new; a different
  // group ORs its own bit in.
  cache.admit(request(2, 32, 4, /*prefix_id=*/5, /*shared_len=*/16), 16);
  cache.admit(request(3, 32, 4, /*prefix_id=*/9, /*shared_len=*/16), 0);
  const std::uint64_t bit9 = std::uint64_t{1} << prefix_signature_bit(9);
  EXPECT_EQ(cache.prefix_signature(), bit5 | bit9);
  // Completion retains the prefix: the signature advertises it to
  // dispatchers precisely because later arrivals would hit it.
  cache.complete(1);
  cache.complete(2);
  cache.complete(3);
  EXPECT_EQ(cache.prefix_signature(), bit5 | bit9);
  // Harvest/evacuation unpins but keeps retained prefixes -- and their bits.
  cache.drop_pinned();
  EXPECT_EQ(cache.prefix_signature(), bit5 | bit9);
  // Prefix-less admissions never touch the signature.
  cache.admit(request(4, 48, 4), 0);
  EXPECT_EQ(cache.prefix_signature(), bit5 | bit9);
}

TEST(KvCache, PrefixSignatureClearsOnEviction) {
  // Capacity fits exactly two 32-token retained prefixes.
  KvCache cache{enabled_config(/*capacity=*/64)};
  for (std::uint64_t g = 1; g <= 2; ++g) {
    cache.admit(request(g, 32, 4, /*prefix_id=*/g, /*shared_len=*/32), 0);
    cache.complete(g);
  }
  const std::uint64_t bit1 = std::uint64_t{1} << prefix_signature_bit(1);
  const std::uint64_t bit2 = std::uint64_t{1} << prefix_signature_bit(2);
  EXPECT_EQ(cache.prefix_signature(), bit1 | bit2);
  // A third group overflows the capacity: the LRU entry (group 1) is
  // evicted and its bit drops out of the signature.
  cache.admit(request(3, 32, 4, /*prefix_id=*/3, /*shared_len=*/32), 0);
  cache.complete(3);
  const std::uint64_t bit3 = std::uint64_t{1} << prefix_signature_bit(3);
  EXPECT_EQ(cache.prefix_signature(), bit2 | bit3);
}

TEST(KvCache, PrefixSignatureRefcountsBitCollisions) {
  // The 64-bit signature is Bloom-style: two groups may hash to one bit.
  // Find a colliding pair, make both resident, then evict one -- the bit
  // must stay set until the OTHER leaves too (per-bit refcounts).
  const int target = prefix_signature_bit(1);
  std::uint64_t other = 2;
  while (prefix_signature_bit(other) != target) ++other;
  // Capacity fits both 16-token prefixes plus slack.
  KvCache cache{enabled_config(/*capacity=*/32)};
  cache.admit(request(1, 16, 4, /*prefix_id=*/1, /*shared_len=*/16), 0);
  cache.complete(1);
  cache.admit(request(2, 16, 4, other, /*shared_len=*/16), 0);
  cache.complete(2);
  const std::uint64_t bit = std::uint64_t{1} << target;
  EXPECT_EQ(cache.prefix_signature(), bit);
  // Filler groups must NOT hash to the target bit, or they would mask the
  // refcount under test.
  std::uint64_t filler1 = other + 1;
  while (prefix_signature_bit(filler1) == target) ++filler1;
  std::uint64_t filler2 = filler1 + 1;
  while (prefix_signature_bit(filler2) == target) ++filler2;
  // Overflow once: group 1 (LRU) is evicted, but `other` still holds the bit.
  cache.admit(request(3, 16, 4, filler1, /*shared_len=*/16), 0);
  cache.complete(3);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.prefix_signature() & bit, bit);
  // Overflow again: `other` goes too and the bit finally clears.
  cache.admit(request(4, 16, 4, filler2, /*shared_len=*/16), 0);
  cache.complete(4);
  EXPECT_EQ(cache.prefix_signature() & bit, 0u);
}

TEST(KvCache, DisabledCacheHasEmptySignature) {
  KvCache cache{PrefixCacheConfig{}};
  cache.admit(request(1, 32, 4, /*prefix_id=*/5, /*shared_len=*/16), 0);
  EXPECT_EQ(cache.prefix_signature(), 0u);
}

TEST(KvCache, TransferTimeIsTokensTimesBytesOverBandwidth) {
  PrefixCacheConfig cfg = enabled_config();
  cfg.kv_bytes_per_token = Bytes::kib(64);
  cfg.migration_bw = Bandwidth::gbps(16.0);
  KvCache cache{cfg};
  // 1024 tokens x 64 KiB = 64 MiB over 16 GB/s.
  const double expect_s = 1024.0 * 64.0 * 1024.0 / 16e9;
  EXPECT_NEAR(cache.config().transfer_time_for(1024).sec(), expect_s, 1e-12);
  EXPECT_DOUBLE_EQ(cache.config().transfer_time_for(0).ns(), 0.0);
  EXPECT_THROW((void)cache.config().transfer_time_for(-1), Error);
}

TEST(ResumeState, RequestValidationGuardsResumeInvariants) {
  Request rq = request(1, 64, 8);
  rq.resume.prefilled = 65;  // beyond the prompt
  EXPECT_THROW(rq.validate(), Error);
  rq = request(1, 64, 8);
  rq.resume.decoded = 8;  // at the decode budget: nothing left to serve
  rq.resume.prefilled = 64;
  EXPECT_THROW(rq.validate(), Error);
  rq = request(1, 64, 8);
  rq.resume.decoded = 3;  // decoded tokens require a full prefill
  rq.resume.prefilled = 10;
  EXPECT_THROW(rq.validate(), Error);
  rq = request(1, 64, 8);
  rq.shared_prefix_len = 16;  // shared length without a group
  EXPECT_THROW(rq.validate(), Error);
  rq = request(1, 64, 8, /*prefix_id=*/2, /*shared_len=*/16);
  rq.resume.prefilled = 64;
  rq.resume.decoded = 7;
  EXPECT_NO_THROW(rq.validate());
  EXPECT_EQ(rq.resume.resident_tokens(), 71);
  EXPECT_TRUE(rq.resume.any());
}

}  // namespace
}  // namespace monde::serve
