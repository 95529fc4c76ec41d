// Unit tests for the prefix-locality dispatch policy (serve/dispatch.hpp):
// holder-restricted power-of-two choices for kPrefixAffinity, its load
// spill-over and fallback, and eligible_snapshots() on an all-healthy fleet.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/error.hpp"
#include "serve/dispatch.hpp"
#include "serve/kvcache.hpp"

namespace monde::serve {
namespace {

/// `n` healthy replicas with equal load, ids 0..n-1. Equal outstanding
/// tokens keep the spill-over from ever defecting (a probe is "better" only
/// when the choice carries MORE than twice its tokens), so picks expose the
/// holder choice directly.
std::vector<ReplicaSnapshot> even_fleet(std::size_t n) {
  std::vector<ReplicaSnapshot> snaps;
  for (std::size_t i = 0; i < n; ++i) snaps.push_back({i, 1, 100});
  return snaps;
}

Request prefix_request(std::uint64_t id, std::uint64_t prefix_id) {
  Request rq;
  rq.id = id;
  rq.prompt_len = 64;
  rq.max_new_tokens = 8;
  rq.prefix_id = prefix_id;
  rq.shared_prefix_len = prefix_id != 0 ? 16 : 0;
  return rq;
}

TEST(PrefixAffinity, RoutesToTheResidentHolder) {
  auto d = make_dispatcher(DispatchPolicy::kPrefixAffinity, 7);
  auto snaps = even_fleet(4);
  const std::uint64_t prefix = 77;
  snaps[3].prefix_sig = std::uint64_t{1} << prefix_signature_bit(prefix);
  for (std::uint64_t id = 0; id < 16; ++id) {
    EXPECT_EQ(d->pick(snaps, prefix_request(id, prefix)), 3u);
  }
}

TEST(PrefixAffinity, PowerOfTwoAmongMultipleHolders) {
  auto d = make_dispatcher(DispatchPolicy::kPrefixAffinity, 7);
  auto snaps = even_fleet(6);
  const std::uint64_t prefix = 12;
  const std::uint64_t bit = std::uint64_t{1} << prefix_signature_bit(prefix);
  snaps[1].prefix_sig = bit;
  snaps[4].prefix_sig = bit;
  snaps[4].outstanding_tokens = 10;  // the lighter holder
  for (std::uint64_t id = 0; id < 16; ++id) {
    const std::size_t got = d->pick(snaps, prefix_request(id, prefix));
    EXPECT_TRUE(got == 1u || got == 4u);
  }
}

TEST(PrefixAffinity, SpillOverLeavesSaturatedHolder) {
  auto d = make_dispatcher(DispatchPolicy::kPrefixAffinity, 7);
  auto snaps = even_fleet(6);
  const std::uint64_t prefix = 5;
  snaps[2].prefix_sig = std::uint64_t{1} << prefix_signature_bit(prefix);
  // Saturate the only holder: it now carries far more than twice any
  // probe's outstanding tokens, so the bounded-load check defects every pick.
  snaps[2].outstanding_tokens = 100000;
  for (std::uint64_t id = 0; id < 32; ++id) {
    EXPECT_NE(d->pick(snaps, prefix_request(id, prefix)), 2u);
  }
}

TEST(PrefixAffinity, FallsBackWhenNothingIsResident) {
  auto d = make_dispatcher(DispatchPolicy::kPrefixAffinity, 7);
  auto snaps = even_fleet(4);
  snaps[1].outstanding_tokens = 5;
  // No holder anywhere: the group's first arrival seeds a home at the
  // least-loaded replica.
  EXPECT_EQ(d->pick(snaps, prefix_request(0, 3)), 1u);
  // Same for prefix-less and decode-phase requests.
  EXPECT_EQ(d->pick(snaps, prefix_request(1, 0)), 1u);
  Request decode = prefix_request(2, 3);
  decode.resume.prefilled = decode.prompt_len;
  EXPECT_EQ(d->pick(snaps, decode), 1u);
}

TEST(PrefixAffinity, NameAndEmptySnapshotRejection) {
  auto d = make_dispatcher(DispatchPolicy::kPrefixAffinity);
  EXPECT_EQ(d->name(), "prefix-affinity");
  EXPECT_EQ(to_string(DispatchPolicy::kPrefixAffinity), "prefix-affinity");
  EXPECT_THROW((void)d->pick({}, Request{}), Error);
  EXPECT_THROW((void)d->pick({}, prefix_request(0, 1)), Error);
}

bool same_snapshot(const ReplicaSnapshot& a, const ReplicaSnapshot& b) {
  return a.replica == b.replica && a.in_flight == b.in_flight &&
         a.outstanding_tokens == b.outstanding_tokens && a.step_ewma_ms == b.step_ewma_ms &&
         a.expert_sig == b.expert_sig &&
         a.prefix_sig == b.prefix_sig && a.prefill_pool == b.prefill_pool;
}

TEST(EligibleSnapshots, NoFilterFastPathMatchesElementWiseScan) {
  // An all-healthy fleet must come back exactly as it went in -- every
  // field, every order -- with or without the slow-EWMA stage.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<ReplicaSnapshot> all;
  for (std::size_t i = 0; i < 5; ++i) {
    ReplicaSnapshot s{i, i + 1, static_cast<std::int64_t>(100 * i)};
    s.step_ewma_ms = 1.0 + 0.1 * static_cast<double>(i);
    s.expert_sig = 0xf0f0u + i;
    s.prefix_sig = 0x0f0fu + i;
    all.push_back(s);
  }
  const auto out = eligible_snapshots(all, inf);
  ASSERT_EQ(out.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_TRUE(same_snapshot(out[i], all[i])) << "snapshot " << i;
  }
  // With a finite factor the slow-EWMA stage still cuts the outlier.
  all[4].step_ewma_ms = 50.0;
  const auto cut = eligible_snapshots(all, 2.0);
  ASSERT_EQ(cut.size(), 4u);
  for (std::size_t i = 0; i < cut.size(); ++i) {
    EXPECT_TRUE(same_snapshot(cut[i], all[i])) << "snapshot " << i;
  }
}

}  // namespace
}  // namespace monde::serve
