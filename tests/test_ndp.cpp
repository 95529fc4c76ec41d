// Unit tests for the NDP core cycle simulator and bank-partitioned layouts.
#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "core/system_config.hpp"
#include "dram/dram_system.hpp"
#include "ndp/layout.hpp"
#include "ndp/ndp_core.hpp"

namespace monde::ndp {
namespace {

dram::Spec test_mem() {
  // Shrink rows to keep constructors cheap; bandwidth identical per channel.
  dram::Spec s = dram::Spec::monde_lpddr5x_8533();
  return s;
}

TEST(NdpSpec, Dac24Configuration) {
  const NdpSpec s = NdpSpec::monde_dac24();
  EXPECT_EQ(s.num_units, 64);
  EXPECT_EQ(s.pe_rows, 4);
  EXPECT_EQ(s.pe_cols, 4);
  EXPECT_EQ(s.tile_cols(), 256);  // 4x256 output-stationary pass
  EXPECT_DOUBLE_EQ(s.macs_per_cycle(), 1024.0);
  EXPECT_NEAR(s.peak_flops().as_tflops(), 2.048, 1e-6);
  // Table 3 buffer budget: 264 KB.
  EXPECT_NEAR(s.scratchpad.as_kib() + s.operand_buffers.as_kib(), 264.0, 0.1);
}

TEST(NdpSpec, RateMatchedScalesClock) {
  const NdpSpec s = NdpSpec::monde_dac24().rate_matched(2.0);
  EXPECT_DOUBLE_EQ(s.clock_ghz, 2.0);
  EXPECT_NEAR(s.peak_flops().as_tflops(), 4.096, 1e-6);
}

TEST(PartitionLayout, HalvesTheDevice) {
  const dram::Spec spec = test_mem();
  const dram::AddressMapper mapper{spec};
  const PartitionLayout weights{spec, mapper, Partition::kWeights};
  const PartitionLayout acts{spec, mapper, Partition::kActivations};
  EXPECT_EQ(weights.capacity().count(), spec.org.total_capacity().count() / 2);
  EXPECT_EQ(acts.capacity().count(), spec.org.total_capacity().count() / 2);
}

TEST(PartitionLayout, BankParityIsRespected) {
  const dram::Spec spec = test_mem();
  const dram::AddressMapper mapper{spec};
  const PartitionLayout weights{spec, mapper, Partition::kWeights};
  const PartitionLayout acts{spec, mapper, Partition::kActivations};
  for (std::uint64_t i = 0; i < 4096; ++i) {
    const dram::Address w = mapper.decompose(weights.block_address(i));
    EXPECT_EQ(w.flat_bank(spec.org) % 2, 0) << "weights must use even banks";
    const dram::Address a = mapper.decompose(acts.block_address(i * 37));
    EXPECT_EQ(a.flat_bank(spec.org) % 2, 1) << "activations must use odd banks";
  }
}

TEST(PartitionLayout, AddressesAreDistinct) {
  const dram::Spec spec = test_mem();
  const dram::AddressMapper mapper{spec};
  const PartitionLayout layout{spec, mapper, Partition::kWeights};
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(seen.insert(layout.block_address(i)).second);
  }
}

TEST(PartitionLayout, ConsecutiveBlocksStripeChannels) {
  const dram::Spec spec = test_mem();
  const dram::AddressMapper mapper{spec};
  const PartitionLayout layout{spec, mapper, Partition::kWeights};
  for (int i = 0; i < spec.org.channels; ++i) {
    const dram::Address a = mapper.decompose(layout.block_address(static_cast<std::uint64_t>(i)));
    EXPECT_EQ(a.channel, i);
  }
}

TEST(PartitionLayout, BlocksForRoundsUp) {
  const dram::Spec spec = test_mem();
  const dram::AddressMapper mapper{spec};
  const PartitionLayout layout{spec, mapper, Partition::kWeights};
  EXPECT_EQ(layout.blocks_for(Bytes{1}), 1u);
  EXPECT_EQ(layout.blocks_for(Bytes{128}), 1u);
  EXPECT_EQ(layout.blocks_for(Bytes{129}), 2u);
  EXPECT_THROW((void)layout.block_address(layout.block_count()), Error);
}

dram::Spec small_mem() {
  // Non-default organization: 2 channels, 2 ranks, 512 rows.
  dram::Spec s = dram::Spec::monde_lpddr5x_8533();
  s.org.channels = 2;
  s.org.ranks = 2;
  s.org.rows = 512;
  return s;
}

TEST(PartitionLayout, MatchesDivModEnumerationOnSmallOrg) {
  // Reference enumeration: channel fastest, then column, rank, bank group,
  // bank pair, row, with the bank LSB pinned to the partition parity.
  const dram::Spec spec = small_mem();
  const dram::AddressMapper mapper{spec};
  const auto& org = spec.org;
  for (const Partition part : {Partition::kWeights, Partition::kActivations}) {
    const PartitionLayout layout{spec, mapper, part};
    for (std::uint64_t i = 0; i < layout.block_count(); ++i) {
      std::uint64_t v = i;
      auto take = [&v](int n) {
        const auto f = static_cast<int>(v % static_cast<std::uint64_t>(n));
        v /= static_cast<std::uint64_t>(n);
        return f;
      };
      dram::Address a;
      a.channel = take(org.channels);
      a.column = take(org.columns);
      a.rank = take(org.ranks);
      a.bankgroup = take(org.bankgroups);
      a.bank = take(org.banks_per_group / 2) * 2 + (part == Partition::kActivations ? 1 : 0);
      a.row = take(org.rows);
      ASSERT_EQ(v, 0u);
      ASSERT_EQ(layout.block_address(i), mapper.compose(a))
          << "block " << i << " partition " << static_cast<int>(part);
    }
  }
}

void expect_result(const NdpKernelResult& r, double latency_ns, std::uint64_t compute_cycles,
                   std::uint64_t read_blocks, std::uint64_t write_blocks, double row_hit_rate,
                   double bytes_per_sec) {
  EXPECT_DOUBLE_EQ(r.latency.ns(), latency_ns);
  EXPECT_EQ(r.compute_cycles, compute_cycles);
  EXPECT_EQ(r.read_blocks, read_blocks);
  EXPECT_EQ(r.write_blocks, write_blocks);
  EXPECT_DOUBLE_EQ(r.row_hit_rate, row_hit_rate);
  EXPECT_DOUBLE_EQ(r.achieved_bandwidth.as_bytes_per_sec(), bytes_per_sec);
  EXPECT_TRUE(r.cycle_accurate);
}

// Golden pins on the DAC'24 device: cold d512/dff2048 bf16 experts on a
// fresh simulator, one row per token count the cycle-level path covers.
// test_fastpath_diff compares two modes of one controller, and shortcuts in
// code the modes share are invisible to it; these pin the answers
// themselves, so a change to the controller or the pipeline that moves any
// cycle fails here.
TEST(NdpCoreSim, GoldenColdExpertsDac24) {
  const core::SystemConfig cfg = core::SystemConfig::dac24();
  struct Golden {
    std::int64_t tokens;
    double latency_ns;
    std::uint64_t compute_cycles, read_blocks, write_blocks;
    double row_hit_rate, bytes_per_sec;
  };
  const Golden goldens[] = {
      {1, 9305.3556779561695, 8352, 32808, 40, 0.98347305389221562, 461766036243.82208},
      {2, 9307.2307512012194, 8352, 32848, 80, 0.98327759197324416, 462795345274.86096},
      {3, 9309.1058244462674, 8352, 32888, 120, 0.98331744518589137, 463824230547.55042},
      {4, 9309.1058244462674, 8352, 32928, 160, 0.98335710889205896, 464948380403.45819},
      {5, 17563.178249150358, 16704, 65736, 200, 0.98318024573541696, 486075065226.7818},
      {6, 17563.178249150358, 16704, 65776, 240, 0.98320028595257958, 486664819006.47937},
      {7, 17565.053322395404, 16704, 65816, 280, 0.98322027847197424, 487201959183.67346},
      {8, 17565.053322395404, 16704, 65856, 320, 0.98324022346368711, 487791649281.935},
      {9, 26085.386147896403, 25056, 98664, 360, 0.98308315463426255, 489661306483.15826},
      {10, 26085.386147896403, 25056, 98704, 400, 0.98301856848119351, 490056896486.78009},
      {11, 26087.261221141453, 25056, 98744, 440, 0.98303203298445929, 490416961900.62286},
      {12, 26087.261221141453, 25056, 98784, 480, 0.98304547615274918, 490812523250.7605},
      {13, 34620.719559357785, 33408, 131592, 520, 0.98291768347122199, 491283628479.59906},
      {14, 34601.968826907301, 33408, 131632, 560, 0.98281092012133464, 491849059137.7337},
      {15, 34603.843900152351, 33408, 131672, 600, 0.9828795624777078, 492119893612.38281},
      {16, 34603.843900152351, 33408, 131712, 640, 0.98312336581887327, 492417534772.18225},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(testing::Message() << "tokens=" << g.tokens);
    NdpCoreSim sim{cfg.ndp, cfg.monde_mem};
    expect_result(sim.simulate_expert({g.tokens, 512, 2048}, compute::DataType::kBf16),
                  g.latency_ns, g.compute_cycles, g.read_blocks, g.write_blocks,
                  g.row_hit_rate, g.bytes_per_sec);
  }
}

TEST(NdpCoreSim, GoldenColdExpertWithoutBankPartitioning) {
  const core::SystemConfig cfg = core::SystemConfig::dac24();
  NdpCoreSim sim{cfg.ndp, cfg.monde_mem};
  sim.bank_partitioning = false;
  expect_result(sim.simulate_expert({4, 512, 2048}, compute::DataType::kBf16),
                9309.1058244462674, 8352, 32928, 160, 0.98359096313912009,
                464948380403.45819);
}

TEST(NdpCoreSim, GoldenColdExpertAtDoubleBandwidth) {
  // 2x data rate doubles nCL and nWL in cycles, which lengthens the
  // controller's in-flight window (sized from the Spec timing).
  const dram::Spec mem = small_mem().with_bandwidth_scale(2.0);
  ASSERT_GT(mem.timing.nCL, small_mem().timing.nCL);
  NdpCoreSim sim{NdpSpec::monde_dac24().rate_matched(2.0), mem};
  expect_result(sim.simulate_expert({2, 512, 1024}, compute::DataType::kBf16),
                9724.4345482245408, 4192, 16432, 48, 0.97457125960969837,
                221476665026.08524);
}

TEST(NdpCoreSim, ComputeCyclesExactFormula) {
  NdpCoreSim sim{NdpSpec::monde_dac24(), test_mem()};
  // 4x256 C tile, K streamed: ceil(m/4)*ceil(n/256)*(k + fill).
  EXPECT_EQ(sim.compute_cycles_for({4, 256, 1000}), 1000u + 16u);
  EXPECT_EQ(sim.compute_cycles_for({5, 256, 1000}), 2u * (1000u + 16u));
  EXPECT_EQ(sim.compute_cycles_for({4, 257, 1000}), 2u * (1000u + 16u));
  EXPECT_EQ(sim.compute_cycles_for({0, 256, 1000}), 0u);
}

TEST(NdpCoreSim, LatencyAboveAnalyticLowerBound) {
  NdpCoreSim sim{NdpSpec::monde_dac24(), test_mem()};
  for (const std::int64_t tokens : {1, 2, 4, 8, 16}) {
    const compute::ExpertShape e{tokens, 1024, 4096};
    const auto r = sim.simulate_expert(e, compute::DataType::kBf16);
    const Duration lb = sim.analytic_expert_lower_bound(e, compute::DataType::kBf16);
    EXPECT_GE(r.latency.ns(), lb.ns()) << "tokens=" << tokens;
  }
}

TEST(NdpCoreSim, ColdExpertNearBandwidthBound) {
  // A 1-token NLLB expert is memory-bound: the cycle-level latency should
  // sit within 25% of streaming the weights at peak bandwidth.
  NdpCoreSim sim{NdpSpec::monde_dac24(), test_mem()};
  const compute::ExpertShape e{1, 2048, 8192};
  const auto r = sim.simulate_expert(e, compute::DataType::kBf16);
  const Duration stream =
      transfer_time(e.weight_bytes(compute::DataType::kBf16),
                    sim.mem_spec().total_peak_bandwidth());
  EXPECT_LT(r.latency.ns(), stream.ns() * 1.25);
  EXPECT_TRUE(r.cycle_accurate);
  EXPECT_GT(r.row_hit_rate, 0.9);
}

TEST(NdpCoreSim, HotExpertComputeBound) {
  NdpCoreSim sim{NdpSpec::monde_dac24(), test_mem()};
  const compute::ExpertShape e{256, 2048, 8192};
  const auto r = sim.simulate_expert(e, compute::DataType::kBf16);
  EXPECT_FALSE(r.cycle_accurate);  // fast path
  const Duration compute =
      sim.ndp_spec().cycle_time() *
      static_cast<double>(sim.compute_cycles_for(e.linear1()) +
                          sim.compute_cycles_for(e.linear2()));
  EXPECT_NEAR(r.latency.us(), compute.us(), compute.us() * 0.05);
}

TEST(NdpCoreSim, FastPathContinuousAtBoundary) {
  // The cycle sim at the token limit and the fast path just above it should
  // produce latencies within ~15% per-token.
  NdpCoreSim sim{NdpSpec::monde_dac24(), test_mem()};
  const int limit = sim.cycle_sim_token_limit;
  const auto below = sim.simulate_expert({limit, 2048, 8192}, compute::DataType::kBf16);
  const auto above = sim.simulate_expert({limit + 4, 2048, 8192}, compute::DataType::kBf16);
  const double per_tok_below = below.latency.us() / static_cast<double>(limit);
  const double per_tok_above = above.latency.us() / static_cast<double>(limit + 4);
  EXPECT_TRUE(below.cycle_accurate);
  EXPECT_FALSE(above.cycle_accurate);
  EXPECT_NEAR(per_tok_above, per_tok_below, per_tok_below * 0.15);
}

TEST(NdpCoreSim, MemoizationReturnsIdenticalResults) {
  NdpCoreSim sim{NdpSpec::monde_dac24(), test_mem()};
  const compute::ExpertShape e{4, 1024, 4096};
  const auto first = sim.simulate_expert(e, compute::DataType::kBf16);
  const auto misses = sim.memo_misses();
  const auto second = sim.simulate_expert(e, compute::DataType::kBf16);
  EXPECT_EQ(sim.memo_misses(), misses);
  EXPECT_GT(sim.memo_hits(), 0u);
  EXPECT_DOUBLE_EQ(first.latency.ns(), second.latency.ns());
  EXPECT_EQ(first.read_blocks, second.read_blocks);
}

TEST(NdpCoreSim, MemoStatisticsCountPerFlagConfiguration) {
  // The memo accessors report cache effectiveness; the key must separate
  // the bank-partitioning ablation arms so results never alias.
  NdpCoreSim sim{NdpSpec::monde_dac24(), test_mem()};
  EXPECT_EQ(sim.memo_hits(), 0u);
  EXPECT_EQ(sim.memo_misses(), 0u);
  const compute::ExpertShape e{2, 1024, 4096};
  (void)sim.simulate_expert(e, compute::DataType::kBf16);
  EXPECT_EQ(sim.memo_misses(), 1u);
  sim.bank_partitioning = false;
  (void)sim.simulate_expert(e, compute::DataType::kBf16);
  EXPECT_EQ(sim.memo_misses(), 2u);
  EXPECT_EQ(sim.memo_hits(), 0u);
  sim.bank_partitioning = true;
  (void)sim.simulate_expert(e, compute::DataType::kBf16);
  EXPECT_EQ(sim.memo_hits(), 1u);
  EXPECT_EQ(sim.memo_misses(), 2u);
}

TEST(NdpCoreSim, LatencyMonotoneInTokens) {
  NdpCoreSim sim{NdpSpec::monde_dac24(), test_mem()};
  Duration prev = Duration::zero();
  for (const std::int64_t t : {1, 4, 8, 16, 32, 128}) {
    const auto r = sim.simulate_expert({t, 1024, 4096}, compute::DataType::kBf16);
    EXPECT_GE(r.latency.ns(), prev.ns() * 0.999) << "tokens=" << t;
    prev = r.latency;
  }
}

TEST(NdpCoreSim, BandwidthScalingSpeedsUpColdExperts) {
  // Figure 7(b): cold experts are bandwidth-bound, so 2x memory bandwidth
  // (with rate-matched compute) should cut latency by ~2x.
  NdpCoreSim base{NdpSpec::monde_dac24(), test_mem()};
  NdpCoreSim fast{NdpSpec::monde_dac24().rate_matched(2.0),
                  test_mem().with_bandwidth_scale(2.0)};
  const compute::ExpertShape e{1, 2048, 8192};
  const auto rb = base.simulate_expert(e, compute::DataType::kBf16);
  const auto rf = fast.simulate_expert(e, compute::DataType::kBf16);
  const double speedup = rb.latency.ns() / rf.latency.ns();
  EXPECT_GT(speedup, 1.6);
  EXPECT_LT(speedup, 2.4);
}

TEST(NdpCoreSim, GemmAndExpertConsistent) {
  NdpCoreSim sim{NdpSpec::monde_dac24(), test_mem()};
  const compute::ExpertShape e{4, 1024, 4096};
  const auto expert = sim.simulate_expert(e, compute::DataType::kBf16);
  const auto g1 = sim.simulate_gemm(e.linear1(), compute::DataType::kBf16);
  const auto g2 = sim.simulate_gemm(e.linear2(), compute::DataType::kBf16);
  // Chained execution costs at least the slower of the two kernels and at
  // most their sum plus decode overheads (they never overlap).
  EXPECT_GE(expert.latency.ns(), std::max(g1.latency.ns(), g2.latency.ns()));
  EXPECT_LE(expert.latency.ns(),
            (g1.latency + g2.latency + 4.0 * sim.ndp_spec().kernel_decode).ns() * 1.1);
}

TEST(NdpCoreSim, RejectsInvalidSpecs) {
  // A negative skew fill would silently shrink every pass's compute cycles.
  NdpSpec ndp = NdpSpec::monde_dac24();
  ndp.pipeline_fill = -20;
  EXPECT_THROW((NdpCoreSim{ndp, test_mem()}), Error);
  ndp = NdpSpec::monde_dac24();
  ndp.kernel_decode = Duration::nanos(-1.0);
  EXPECT_THROW((NdpCoreSim{ndp, test_mem()}), Error);
  ndp = NdpSpec::monde_dac24();
  ndp.pipeline_fill = 0;
  ndp.kernel_decode = Duration::zero();
  EXPECT_NO_THROW((NdpCoreSim{ndp, test_mem()}));
  // Device timings that would hang or saturate the DRAM model are rejected
  // up front, before any expert is simulated.
  dram::Spec mem = test_mem();
  mem.timing.nREFI = 0;
  EXPECT_THROW((NdpCoreSim{NdpSpec::monde_dac24(), mem}), Error);
  mem = test_mem();
  mem.timing.nRFC = mem.timing.nREFI + 1;
  EXPECT_THROW((NdpCoreSim{NdpSpec::monde_dac24(), mem}), Error);
  mem = test_mem();
  mem.timing.nWL = -3;
  EXPECT_THROW((NdpCoreSim{NdpSpec::monde_dac24(), mem}), Error);
}

TEST(NdpCoreSim, RejectsInvalidShapes) {
  NdpCoreSim sim{NdpSpec::monde_dac24(), test_mem()};
  EXPECT_THROW(sim.simulate_expert({0, 1024, 4096}, compute::DataType::kBf16), Error);
  EXPECT_THROW(sim.simulate_gemm({4, 0, 4096}, compute::DataType::kBf16), Error);
}

// Property sweep over (tokens, dmodel, dff): invariants of every simulated
// expert result.
struct ShapeCase {
  std::int64_t tokens, dmodel, dff;
};

class NdpShapeTest : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(NdpShapeTest, ResultInvariants) {
  const auto [tokens, dmodel, dff] = GetParam();
  NdpCoreSim sim{NdpSpec::monde_dac24(), test_mem()};
  const compute::ExpertShape e{tokens, dmodel, dff};
  const auto r = sim.simulate_expert(e, compute::DataType::kBf16);
  // Latency above the analytic bound.
  EXPECT_GE(r.latency.ns(),
            sim.analytic_expert_lower_bound(e, compute::DataType::kBf16).ns() * 0.999);
  // Reads cover at least the expert weights.
  const std::uint64_t weight_blocks =
      e.weight_bytes(compute::DataType::kBf16).count() / 128;
  EXPECT_GE(r.read_blocks, weight_blocks);
  // Compute cycles match the closed-form tile arithmetic.
  EXPECT_EQ(r.compute_cycles,
            sim.compute_cycles_for(e.linear1()) + sim.compute_cycles_for(e.linear2()));
  EXPECT_GT(r.achieved_bandwidth.as_gbps(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, NdpShapeTest,
                         ::testing::Values(ShapeCase{1, 768, 3072}, ShapeCase{3, 1024, 4096},
                                           ShapeCase{5, 2048, 8192}, ShapeCase{16, 512, 2048},
                                           ShapeCase{33, 1024, 4096},
                                           ShapeCase{100, 2048, 8192}));

}  // namespace
}  // namespace monde::ndp
