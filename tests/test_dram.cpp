// Unit tests for the cycle-level DRAM simulator: address mapping, timing
// invariants, scheduling quality, refresh, and bandwidth scaling.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dram/dram_system.hpp"

namespace monde::dram {
namespace {

Spec small_spec() {
  // A small topology keeps unit tests fast while exercising all fields.
  Spec s = Spec::monde_lpddr5x_8533();
  s.org.channels = 2;
  s.org.ranks = 2;
  s.org.rows = 256;
  return s;
}

TEST(Spec, MondeConfigMatchesPaper) {
  const Spec s = Spec::monde_lpddr5x_8533();
  EXPECT_EQ(s.org.channels, 8);
  // Table 2: 512 GB capacity, ~512 GB/s bandwidth, 68 GB/s per module.
  EXPECT_NEAR(s.org.total_capacity().as_gib(), 512.0, 1e-9);
  EXPECT_NEAR(s.channel_peak_bandwidth().as_gbps(), 68.3, 0.2);
  EXPECT_NEAR(s.total_peak_bandwidth().as_gbps(), 546.0, 2.0);
  EXPECT_NO_THROW(s.validate());
}

TEST(Spec, ValidateRejectsBadFields) {
  Spec s = Spec::monde_lpddr5x_8533();
  s.org.channels = 0;
  EXPECT_THROW(s.validate(), Error);
  s = Spec::monde_lpddr5x_8533();
  s.org.rows = 1000;  // not a power of two
  EXPECT_THROW(s.validate(), Error);
  s = Spec::monde_lpddr5x_8533();
  s.data_rate_mtps = -1;
  EXPECT_THROW(s.validate(), Error);
  // Every timing is at least one cycle: a zero tREFI would make refresh due
  // forever, and a negative latency would break the in-flight FIFO.
  int Timing::*const fields[] = {
      &Timing::nBL,   &Timing::nCL,   &Timing::nWL,   &Timing::nRCD,  &Timing::nRP,
      &Timing::nRAS,  &Timing::nRC,   &Timing::nCCDS, &Timing::nCCDL, &Timing::nRRDS,
      &Timing::nRRDL, &Timing::nFAW,  &Timing::nRTP,  &Timing::nWR,   &Timing::nWTRS,
      &Timing::nWTRL, &Timing::nREFI, &Timing::nRFC};
  for (int Timing::*field : fields) {
    for (const int bad : {0, -12}) {
      s = Spec::monde_lpddr5x_8533();
      s.timing.*field = bad;
      EXPECT_THROW(s.validate(), Error) << "timing value " << bad;
      EXPECT_THROW(DramSystem{s}, Error) << "timing value " << bad;
    }
  }
  // A refresh must finish before the next one falls due.
  s = Spec::monde_lpddr5x_8533();
  s.timing.nRFC = s.timing.nREFI;
  EXPECT_THROW(s.validate(), Error);
  s.timing.nRFC = s.timing.nREFI - 1;
  EXPECT_NO_THROW(s.validate());
}

TEST(Spec, BandwidthScalingPreservesWallClockTimings) {
  const Spec base = Spec::monde_lpddr5x_8533();
  const Spec fast = base.with_bandwidth_scale(2.0);
  EXPECT_NEAR(fast.total_peak_bandwidth().as_gbps(),
              2.0 * base.total_peak_bandwidth().as_gbps(), 1.0);
  // tRCD in nanoseconds stays within one (new) clock period of the original.
  const double base_ns = base.timing.nRCD * base.clock_period().ns();
  const double fast_ns = fast.timing.nRCD * fast.clock_period().ns();
  EXPECT_NEAR(fast_ns, base_ns, fast.clock_period().ns() + 1e-9);
  EXPECT_THROW(base.with_bandwidth_scale(0.0), Error);
}

TEST(AddressMapper, RoundTripsRandomAddresses) {
  const Spec s = Spec::monde_lpddr5x_8533();
  const AddressMapper mapper{s};
  Rng rng{3};
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t addr =
        (rng.next_u64() % mapper.capacity()) & ~std::uint64_t{0x7F};  // block aligned
    const Address a = mapper.decompose(addr);
    EXPECT_EQ(mapper.compose(a), addr);
  }
}

TEST(AddressMapper, FieldsWithinBounds) {
  const Spec s = Spec::monde_lpddr5x_8533();
  const AddressMapper mapper{s};
  Rng rng{5};
  for (int i = 0; i < 1000; ++i) {
    const Address a = mapper.decompose(rng.next_u64() % mapper.capacity());
    EXPECT_GE(a.channel, 0);
    EXPECT_LT(a.channel, s.org.channels);
    EXPECT_LT(a.rank, s.org.ranks);
    EXPECT_LT(a.bankgroup, s.org.bankgroups);
    EXPECT_LT(a.bank, s.org.banks_per_group);
    EXPECT_LT(a.row, s.org.rows);
    EXPECT_LT(a.column, s.org.columns);
  }
}

TEST(AddressMapper, ChannelIsFastestVaryingField) {
  // ro-ba-bg-ra-co-ch order: consecutive blocks hit consecutive channels.
  const Spec s = Spec::monde_lpddr5x_8533();
  const AddressMapper mapper{s};
  const auto block = static_cast<std::uint64_t>(s.org.access_bytes);
  for (int i = 0; i < s.org.channels; ++i) {
    EXPECT_EQ(mapper.decompose(static_cast<std::uint64_t>(i) * block).channel, i);
  }
  // After one sweep of channels, the column advances.
  const Address a = mapper.decompose(static_cast<std::uint64_t>(s.org.channels) * block);
  EXPECT_EQ(a.channel, 0);
  EXPECT_EQ(a.column, 1);
}

TEST(AddressMapper, RejectsOutOfRange) {
  const Spec s = small_spec();
  const AddressMapper mapper{s};
  EXPECT_THROW((void)mapper.decompose(mapper.capacity()), Error);
  Address a;
  a.row = s.org.rows;  // one past the end
  EXPECT_THROW((void)mapper.compose(a), Error);
}

// Single-read latency should be ACT + RCD + CL + BL within a small slack.
TEST(DramSystem, ColdReadLatency) {
  const Spec s = small_spec();
  DramSystem sys{s};
  Duration done = Duration::zero();
  auto on_done = [&](const Request&, Duration t) { done = t; };
  Request req;
  req.addr = 0;
  req.type = Request::Type::kRead;
  req.complete_into(on_done);
  sys.enqueue(req);
  sys.run_until_idle();
  const double expected_cycles = s.timing.nRCD + s.timing.nCL + s.timing.nBL;
  const double actual_cycles = done.ns() / s.clock_period().ns();
  EXPECT_GE(actual_cycles, expected_cycles);
  EXPECT_LE(actual_cycles, expected_cycles + 4);  // scheduling slack
}

TEST(DramSystem, RowHitFasterThanRowMiss) {
  const Spec s = small_spec();
  const AddressMapper mapper{s};

  auto measure_pair = [&](std::uint64_t addr2) {
    DramSystem sys{s};
    Duration t1, t2;
    auto on_first = [&](const Request&, Duration t) { t1 = t; };
    auto on_second = [&](const Request&, Duration t) { t2 = t; };
    Request r1;
    r1.addr = 0;
    r1.type = Request::Type::kRead;
    r1.complete_into(on_first);
    sys.enqueue(r1);
    sys.run_until_idle();
    Request r2;
    r2.addr = addr2;
    r2.type = Request::Type::kRead;
    r2.complete_into(on_second);
    sys.enqueue(r2);
    sys.run_until_idle();
    return (t2 - t1).ns();
  };

  // Same row, next column in the same channel -> hit.
  Address hit = mapper.decompose(0);
  hit.column = 1;
  // Same bank, different row -> conflict (PRE + ACT).
  Address miss = mapper.decompose(0);
  miss.row = 1;
  const double hit_ns = measure_pair(mapper.compose(hit));
  const double miss_ns = measure_pair(mapper.compose(miss));
  EXPECT_LT(hit_ns, miss_ns);
  // Conflict pays at least tRP + tRCD more than a hit.
  const double penalty = (s.timing.nRP + s.timing.nRCD) * s.clock_period().ns();
  EXPECT_GE(miss_ns - hit_ns, penalty * 0.8);
}

TEST(DramSystem, StreamingReachesHighBandwidth) {
  const Spec s = Spec::monde_lpddr5x_8533();
  DramSystem sys{s};
  const auto block = static_cast<std::uint64_t>(s.org.access_bytes);
  const std::uint64_t total = 40000;
  std::uint64_t next = 0;
  std::uint64_t completed = 0;
  auto count_completion = [&](const Request&, Duration) { ++completed; };
  while (completed < total) {
    while (next < total && sys.can_accept(next * block)) {
      Request r;
      r.addr = next * block;
      r.type = Request::Type::kRead;
      r.complete_into(count_completion);
      sys.enqueue(r);
      ++next;
    }
    sys.tick();
  }
  const double achieved = sys.achieved_bandwidth().as_gbps();
  EXPECT_GT(achieved, 0.85 * s.total_peak_bandwidth().as_gbps());
  EXPECT_GT(sys.stats().row_hit_rate(), 0.9);
}

TEST(DramSystem, RefreshesAreIssued) {
  const Spec s = small_spec();
  DramSystem sys{s};
  // Run for > several tREFI with sporadic traffic.
  const auto block = static_cast<std::uint64_t>(s.org.access_bytes);
  for (int epoch = 0; epoch < 10; ++epoch) {
    Request r;
    r.addr = static_cast<std::uint64_t>(epoch) * block;
    r.type = Request::Type::kRead;
    sys.enqueue(r);
    for (int i = 0; i < s.timing.nREFI; ++i) sys.tick();
  }
  sys.run_until_idle();
  EXPECT_GT(sys.stats().refreshes, 0u);
}

TEST(DramSystem, WritesCompleteAndDrain) {
  const Spec s = small_spec();
  DramSystem sys{s};
  const auto block = static_cast<std::uint64_t>(s.org.access_bytes);
  std::uint64_t completed = 0;
  auto count_completion = [&](const Request&, Duration) { ++completed; };
  for (std::uint64_t i = 0; i < 100; ++i) {
    while (!sys.can_accept(i * block)) sys.tick();
    Request r;
    r.addr = i * block;
    r.type = Request::Type::kWrite;
    r.complete_into(count_completion);
    sys.enqueue(r);
  }
  sys.run_until_idle();
  EXPECT_EQ(completed, 100u);
  EXPECT_EQ(sys.stats().writes_completed, 100u);
  EXPECT_TRUE(sys.idle());
}

TEST(DramSystem, MixedReadWriteConserved) {
  const Spec s = small_spec();
  DramSystem sys{s};
  Rng rng{7};
  const auto block = static_cast<std::uint64_t>(s.org.access_bytes);
  const std::uint64_t blocks = s.org.total_capacity().count() / block;
  std::uint64_t completed = 0;
  auto count_completion = [&](const Request&, Duration) { ++completed; };
  const std::uint64_t total = 2000;
  std::uint64_t issued = 0;
  while (completed < total) {
    while (issued < total) {
      const std::uint64_t addr = (rng.next_u64() % blocks) * block;
      if (!sys.can_accept(addr)) break;
      Request r;
      r.addr = addr;
      r.type = (rng.next_u64() & 1) ? Request::Type::kWrite : Request::Type::kRead;
      r.complete_into(count_completion);
      sys.enqueue(r);
      ++issued;
    }
    sys.tick();
  }
  EXPECT_EQ(sys.stats().reads_completed + sys.stats().writes_completed, total);
}

TEST(DramSystem, EnqueueWithoutAdmissionCheckThrows) {
  const Spec s = small_spec();
  DramSystem sys{s};
  // Saturate one channel's read queue.
  std::uint64_t i = 0;
  const auto chan_stride =
      static_cast<std::uint64_t>(s.org.access_bytes) * static_cast<std::uint64_t>(s.org.channels);
  while (sys.can_accept(i * chan_stride)) {
    Request r;
    r.addr = i * chan_stride;  // always channel 0
    r.type = Request::Type::kRead;
    sys.enqueue(r);
    ++i;
  }
  Request r;
  r.addr = i * chan_stride;
  r.type = Request::Type::kRead;
  EXPECT_THROW(sys.enqueue(r), Error);
}

TEST(DramSystem, TryEnqueueRejectsOutOfCapacityAddressOnFullChannel) {
  // try_enqueue() checks admission before decoding the address; the
  // capacity check must still come first, so a full channel cannot turn an
  // invalid address into a quiet refusal.
  const Spec s = small_spec();
  DramSystem sys{s};
  const AddressMapper mapper{s};
  const auto chan_stride =
      static_cast<std::uint64_t>(s.org.access_bytes) * static_cast<std::uint64_t>(s.org.channels);
  Request r;
  r.type = Request::Type::kRead;
  for (std::uint64_t i = 0;; ++i) {
    r.addr = i * chan_stride;  // always channel 0
    if (!sys.try_enqueue(r)) break;
  }
  EXPECT_FALSE(sys.channel_can_accept(0));
  // One past the device; the capacity is a power of two, so the address's
  // channel field reads 0, the full channel.
  r.addr = mapper.capacity();
  EXPECT_THROW((void)sys.try_enqueue(r), Error);
  r.addr = chan_stride;  // a valid channel-0 address is refused, not thrown
  EXPECT_FALSE(sys.try_enqueue(r));
}

// Completion cycle of a request finishing at `t`.
std::uint64_t cycle_of(const Spec& s, Duration t) {
  return static_cast<std::uint64_t>(std::llround(t.ns() / s.clock_period().ns()));
}

TEST(DramSystem, FourActivateWindowDelaysFifthActivate) {
  // Five cold reads to five distinct banks of one rank. nFAW is stretched
  // past 4 x nRRDS so the window, not ACT-to-ACT spacing, binds the fifth
  // ACT: it must wait until the first ACT + nFAW.
  Spec s = small_spec();
  s.timing.nFAW = 40;
  ASSERT_GT(s.timing.nFAW, 4 * s.timing.nRRDS);
  DramSystem sys{s};
  std::uint64_t done[5] = {};
  auto on_done = [&](const Request& q, Duration t) { done[q.id] = cycle_of(s, t); };
  const int bankgroups[5] = {0, 1, 2, 3, 0};
  const int banks[5] = {0, 0, 0, 0, 1};
  for (int i = 0; i < 5; ++i) {
    Address a;
    a.bankgroup = bankgroups[i];
    a.bank = banks[i];
    Request r;
    r.addr = sys.mapper().compose(a);
    r.id = static_cast<std::uint64_t>(i);
    r.complete_into(on_done);
    sys.enqueue(r);
  }
  sys.run_until_idle();
  // Each read completes nRCD + nCL + nBL after its ACT.
  const auto act_to_data =
      static_cast<std::uint64_t>(s.timing.nRCD + s.timing.nCL + s.timing.nBL);
  const std::uint64_t first_act = done[0] - act_to_data;
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(done[i] - done[i - 1], static_cast<std::uint64_t>(s.timing.nRRDS)) << "ACT " << i;
  }
  EXPECT_EQ(done[4] - act_to_data, first_act + static_cast<std::uint64_t>(s.timing.nFAW));
  EXPECT_EQ(sys.stats().activates, 5u);
}

TEST(DramSystem, GoldenRandomMixedStream) {
  // Golden pin on a seeded random read/write stream: half the requests
  // continue sequentially, the rest jump to a random bank, one of four rows
  // and a random column, so the stream hits rows, misses and conflicts,
  // fills the write queue past the drain threshold, and runs through idle
  // gaps and refreshes. Every Stats counter and an order-sensitive checksum
  // of (id, completion cycle) pairs are pinned exactly: any change in
  // command order or timing moves them.
  const Spec s = small_spec();
  DramSystem sys{s};
  const AddressMapper& mapper = sys.mapper();
  Rng rng{2024};
  const auto block = static_cast<std::uint64_t>(s.org.access_bytes);
  std::uint64_t checksum = 0;
  std::uint64_t completions = 0;
  auto on_done = [&](const Request& q, Duration t) {
    checksum = (checksum ^ (q.id * 0x9e3779b97f4a7c15ULL + cycle_of(s, t))) * 0x100000001b3ULL;
    ++completions;
  };
  std::uint64_t addr = 0;
  for (std::uint64_t id = 0; id < 6000; ++id) {
    if (rng.next_below(2) == 0) {
      addr = (addr + block) % mapper.capacity();
    } else {
      Address a;
      a.channel = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(s.org.channels)));
      a.rank = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(s.org.ranks)));
      a.bankgroup =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(s.org.bankgroups)));
      a.bank =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(s.org.banks_per_group)));
      a.row = static_cast<int>(rng.next_below(4));
      a.column = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(s.org.columns)));
      addr = mapper.compose(a);
    }
    Request r;
    r.addr = addr;
    r.id = id;
    r.type = rng.next_below(5) < 2 ? Request::Type::kWrite : Request::Type::kRead;
    r.complete_into(on_done);
    while (!sys.can_accept(addr)) sys.advance();
    sys.enqueue(r);
    if (id % 2000 == 1999) {
      // Idle gap: refresh falls due with no queued demand.
      const std::uint64_t until = sys.cycle() + 2500;
      while (sys.cycle() < until) sys.advance_until(until);
    }
  }
  sys.run_until_idle();

  const Stats st = sys.stats();
  EXPECT_EQ(completions, 6000u);
  EXPECT_EQ(sys.cycle(), 14115u);
  EXPECT_EQ(st.reads_completed, 3565u);
  EXPECT_EQ(st.writes_completed, 2435u);
  EXPECT_EQ(st.row_hits, 6000u);
  EXPECT_EQ(st.row_misses, 4009u);
  EXPECT_EQ(st.row_conflicts, 3803u);
  EXPECT_EQ(st.activates, 4009u);
  EXPECT_EQ(st.precharges, 4009u);
  EXPECT_EQ(st.refreshes, 26u);
  EXPECT_EQ(st.data_bus_busy_cycles, 6000u);
  EXPECT_EQ(st.total_cycles, 28230u);
  EXPECT_DOUBLE_EQ(st.read_latency_sum_ns, 1331815.7740536747);
  EXPECT_EQ(checksum, 1995015452341794241u);
}

// Property sweep: achieved bandwidth scales with the data-rate knob
// (Figure 7(b)'s 0.5x / 1x / 2x memory configurations).
class BandwidthScaleTest : public ::testing::TestWithParam<double> {};

TEST_P(BandwidthScaleTest, StreamingTracksScale) {
  const double scale = GetParam();
  const Spec s = Spec::monde_lpddr5x_8533().with_bandwidth_scale(scale);
  DramSystem sys{s};
  const auto block = static_cast<std::uint64_t>(s.org.access_bytes);
  const std::uint64_t total = 20000;
  std::uint64_t next = 0, completed = 0;
  auto count_completion = [&](const Request&, Duration) { ++completed; };
  while (completed < total) {
    while (next < total && sys.can_accept(next * block)) {
      Request r;
      r.addr = next * block;
      r.type = Request::Type::kRead;
      r.complete_into(count_completion);
      sys.enqueue(r);
      ++next;
    }
    sys.tick();
  }
  EXPECT_GT(sys.achieved_bandwidth().as_gbps(), 0.8 * s.total_peak_bandwidth().as_gbps());
}

INSTANTIATE_TEST_SUITE_P(Scales, BandwidthScaleTest, ::testing::Values(0.5, 1.0, 2.0));

}  // namespace
}  // namespace monde::dram
