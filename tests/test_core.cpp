// Unit tests for the MoNDE runtime: allocator, device, driver instruction
// generation, execution strategies, load balancing, and the engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/footprint.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/load_balancer.hpp"
#include "core/monde_device.hpp"
#include "core/strategy.hpp"
#include "interconnect/instruction.hpp"
#include "moe/workload.hpp"

namespace monde::core {
namespace {

/// A small MoE model that keeps cycle-level simulations fast.
moe::MoeModelConfig tiny_model() {
  moe::MoeModelConfig m = moe::MoeModelConfig::switch_variant(512, 16);
  m.encoder_blocks = 4;
  m.decoder_blocks = 4;
  m.moe_every = 2;  // 2 encoder + 2 decoder MoE layers
  m.vocab_size = 8192;
  m.top_k = 2;
  m.name = "tiny-test-model";
  return m;
}

/// Places device `id`'s round-robin shard of `model` -- every MoE layer's
/// experts e with e % num_devices == id -- one expert at a time.
void place_shard(MondeDevice& dev, const moe::MoeModelConfig& model, int id, int num_devices) {
  for (int layer = 0; layer < model.total_moe_layers(); ++layer) {
    for (int e = id; e < model.num_experts; e += num_devices) {
      dev.place_expert({layer, e}, model.expert_bytes());
    }
  }
}

/// activated_by_load() into fresh storage.
std::vector<ExpertLoad> fresh_by_load(const moe::MoeLayerWork& work) {
  std::vector<ExpertLoad> out;
  activated_by_load(work, out);
  return out;
}

/// One decode step's routing for `slots`, drawn from the engine's
/// per-request workload streams and merged across the batch (the serving
/// scheduler's draw).
std::vector<moe::MoeLayerWork> step_works(InferenceEngine& eng,
                                          const std::vector<DecodeSlot>& slots) {
  std::vector<std::vector<moe::MoeLayerWork>> draws;
  for (const DecodeSlot& slot : slots) {
    draws.push_back(eng.workload().decoder_step_for(slot.request_id, slot.step));
  }
  return moe::WorkloadGenerator::merge_layer_works(draws);
}

/// Platform fixture shared by strategy tests: platform models, the shared
/// NDP simulator the strategies price kernels from, and a routed layer of
/// work.
class StrategyTest : public ::testing::Test {
 protected:
  StrategyTest()
      : sys_{SystemConfig::dac24()},
        model_{tiny_model()},
        gpu_{kGpu},
        cpu_{kCpu},
        xformer_{gpu_, model_.dtype},
        sim_{std::make_shared<ndp::NdpCoreSim>(sys_.ndp, sys_.monde_mem)} {}

  StrategyContext ctx() {
    StrategyContext c;
    c.sys = &sys_;
    c.model = &model_;
    c.gpu = &gpu_;
    c.cpu = &cpu_;
    c.xformer = &xformer_;
    c.ndp = sim_.get();
    return c;
  }

  moe::MoeLayerWork routed_work(std::int64_t tokens) {
    moe::WorkloadGenerator gen{model_, moe::SkewProfile::switch_like(), 42};
    auto pass = gen.encoder_pass(1, tokens);
    return pass.moe_layers.at(0);
  }

  MoeLayerResult run(StrategyKind kind, const moe::MoeLayerWork& work) {
    sim::StreamSchedule sched;
    const HwStreams hw = HwStreams::create(sched, sys_);
    auto strat = make_strategy(kind, ctx());
    const MoeLayerResult r = strat->run_layer(work, sched, hw, Duration::zero());
    EXPECT_TRUE(sched.timeline().validate().empty())
        << strat->name() << ": " << sched.timeline().validate();
    return r;
  }

  SystemConfig sys_;
  moe::MoeModelConfig model_;
  compute::GpuModel gpu_;
  compute::CpuModel cpu_;
  compute::TransformerCostModel xformer_;
  std::shared_ptr<ndp::NdpCoreSim> sim_;
};

// --- SystemConfig -------------------------------------------------------------

TEST(SystemConfig, Dac24Defaults) {
  const SystemConfig s = SystemConfig::dac24();
  EXPECT_NO_THROW(s.validate());
  EXPECT_EQ(s.num_monde_devices, 1);
  EXPECT_NEAR(s.monde_aggregate_bandwidth().as_gbps(), 546.0, 2.0);
}

TEST(SystemConfig, BandwidthScaleAffectsMemAndNdp) {
  const SystemConfig s = SystemConfig::dac24().with_monde_bandwidth_scale(2.0);
  EXPECT_NEAR(s.monde_mem.total_peak_bandwidth().as_gbps(), 1092.0, 5.0);
  EXPECT_DOUBLE_EQ(s.ndp.clock_ghz, 2.0);  // rate-matched compute
}

TEST(SystemConfig, ValidationCatchesBadValues) {
  SystemConfig s = SystemConfig::dac24();
  s.num_gpus = 0;
  EXPECT_THROW(s.validate(), Error);
  s = SystemConfig::dac24();
  s.num_monde_devices = -1;
  EXPECT_THROW(s.validate(), Error);
}

// --- Allocator ------------------------------------------------------------------

TEST(Allocator, DisjointSequentialBuffers) {
  DeviceAllocator alloc{dram::Spec::monde_lpddr5x_8533()};
  const DeviceBuffer a = alloc.allocate(ndp::Partition::kWeights, Bytes::mib(1), "a");
  const DeviceBuffer b = alloc.allocate(ndp::Partition::kWeights, Bytes::mib(2), "b");
  EXPECT_EQ(a.first_block + a.block_count, b.first_block);
  EXPECT_NE(a.base_address, b.base_address);
  EXPECT_EQ(alloc.weights_used().count(), a.block_count * 128 + b.block_count * 128);
}

TEST(Allocator, PartitionsIndependent) {
  DeviceAllocator alloc{dram::Spec::monde_lpddr5x_8533()};
  alloc.allocate(ndp::Partition::kWeights, Bytes::mib(10), "w");
  const DeviceBuffer act = alloc.allocate(ndp::Partition::kActivations, Bytes::mib(1), "a");
  EXPECT_EQ(act.first_block, 0u);
}

TEST(Allocator, ExhaustionThrowsWithDiagnosis) {
  dram::Spec small = dram::Spec::monde_lpddr5x_8533();
  small.org.channels = 1;
  small.org.ranks = 1;
  small.org.rows = 16;  // 16 banks * 16 rows * 8 KiB = 2 MiB; 1 MiB/partition
  DeviceAllocator alloc{small};
  EXPECT_NO_THROW(alloc.allocate(ndp::Partition::kWeights, Bytes::kib(512), "half"));
  try {
    alloc.allocate(ndp::Partition::kWeights, Bytes::mib(4), "too-big");
    FAIL() << "expected exhaustion";
  } catch (const Error& e) {
    EXPECT_NE(std::string{e.what()}.find("exhausted"), std::string::npos);
  }
}

TEST(Allocator, RejectsZeroBytes) {
  DeviceAllocator alloc{dram::Spec::monde_lpddr5x_8533()};
  EXPECT_THROW(alloc.allocate(ndp::Partition::kWeights, Bytes{0}, "zero"), Error);
}

TEST(Allocator, AddressOfStaysInBuffer) {
  DeviceAllocator alloc{dram::Spec::monde_lpddr5x_8533()};
  const DeviceBuffer buf = alloc.allocate(ndp::Partition::kActivations, Bytes::kib(4), "x");
  EXPECT_NO_THROW((void)alloc.address_of(buf, buf.block_count - 1));
  EXPECT_THROW((void)alloc.address_of(buf, buf.block_count), Error);
}

// --- MondeDevice -------------------------------------------------------------------

TEST_F(StrategyTest, DevicePlacementAndLookup) {
  MondeDevice dev{0, sim_};
  place_shard(dev, model_, 0, 1);
  EXPECT_TRUE(dev.has_expert({0, 0}));
  EXPECT_TRUE(dev.has_expert({3, 15}));  // 4 layers x 16 experts
  EXPECT_FALSE(dev.has_expert({4, 0}));
  EXPECT_THROW((void)dev.expert_buffer({9, 9}), Error);
  EXPECT_THROW(dev.place_expert({0, 0}, Bytes{1}), Error);  // double placement
  EXPECT_EQ(dev.weights_used().count(),
            model_.expert_bytes().count() * 16 * 4);
}

TEST_F(StrategyTest, ModelShardingAcrossDevices) {
  auto dev1 = std::make_unique<MondeDevice>(1, sim_);
  place_shard(*dev1, model_, 1, 2);
  // Device 1 of 2 holds only odd experts.
  EXPECT_FALSE(dev1->has_expert({0, 0}));
  EXPECT_TRUE(dev1->has_expert({0, 1}));
  EXPECT_EQ(dev1->weights_used().count(), model_.expert_bytes().count() * 8 * 4);
}

TEST_F(StrategyTest, CompiledInstructionsAreValid) {
  MondeDevice dev{0, sim_};
  place_shard(dev, model_, 0, 1);
  const auto instrs = dev.compile_expert_op({1, 3}, 12, model_);
  ASSERT_EQ(instrs.size(), 2u);
  EXPECT_EQ(instrs[0].opcode, interconnect::Opcode::kGemmRelu);
  EXPECT_EQ(instrs[1].opcode, interconnect::Opcode::kGemm);
  EXPECT_EQ(instrs[0].token_count, 12u);
  EXPECT_EQ(instrs[0].layer_id, 1);
  EXPECT_EQ(instrs[0].expert_id, 3);
  // Linear2 consumes linear1's output buffer.
  EXPECT_EQ(instrs[1].act_in.addr, instrs[0].act_out.addr);
  // Each kernel reads half of the expert's parameters.
  EXPECT_EQ(instrs[0].weight.size + instrs[1].weight.size,
            model_.expert_bytes().count());
  // Wire round-trip of compiled instructions.
  for (const auto& inst : instrs) {
    EXPECT_EQ(interconnect::decode(interconnect::encode(inst)), inst);
    EXPECT_TRUE(interconnect::is_ndp_flit(interconnect::encode(inst)));
  }
}

TEST_F(StrategyTest, CompiledAddressesRespectBankPartitions) {
  MondeDevice dev{0, sim_};
  place_shard(dev, model_, 0, 1);
  const auto instrs = dev.compile_expert_op({0, 5}, 4, model_);
  const dram::AddressMapper mapper{sys_.monde_mem};
  for (const auto& inst : instrs) {
    EXPECT_EQ(mapper.decompose(inst.weight.addr).flat_bank(sys_.monde_mem.org) % 2, 0)
        << "weights live in even banks";
    EXPECT_EQ(mapper.decompose(inst.act_in.addr).flat_bank(sys_.monde_mem.org) % 2, 1)
        << "activations live in odd banks";
    EXPECT_EQ(mapper.decompose(inst.act_out.addr).flat_bank(sys_.monde_mem.org) % 2, 1);
  }
}

// --- Strategies ----------------------------------------------------------------------

TEST_F(StrategyTest, AllStrategiesConserveExperts) {
  const moe::MoeLayerWork work = routed_work(128);
  const std::int64_t activated = work.activated_experts();
  for (const StrategyKind kind :
       {StrategyKind::kIdealGpu, StrategyKind::kGpuPmove, StrategyKind::kMondeAmove,
        StrategyKind::kMondeLoadBalanced, StrategyKind::kCpuAmove}) {
    SCOPED_TRACE(make_strategy(kind, ctx())->name());
    const MoeLayerResult r = run(kind, work);
    EXPECT_EQ(r.experts_gpu + r.experts_ndp + r.experts_cpu, activated);
    EXPECT_GT(r.end, r.start);
    EXPECT_GT(r.gating, Duration::zero());
    EXPECT_GT(r.combine, Duration::zero());
  }
}

TEST_F(StrategyTest, PmoveMovesExactlyActivatedWeights) {
  // With the GPU expert cache off, GPU+PM moves paper Equation 1's
  // on-demand volume: the weights of every activated expert, nothing else.
  ASSERT_EQ(sys_.gpu_expert_cache_bytes.count(), 0u);
  for (const std::int64_t tokens : {1, 16, 128, 512}) {
    SCOPED_TRACE(tokens);
    const moe::MoeLayerWork work = routed_work(tokens);
    const MoeLayerResult r = run(StrategyKind::kGpuPmove, work);
    EXPECT_EQ(r.experts_gpu, work.activated_experts());
    EXPECT_EQ(r.pmove_bytes, analysis::pmove_volume(model_, r.experts_gpu));
    EXPECT_EQ(r.amove_bytes.count(), 0u);
  }
}

TEST_F(StrategyTest, AmoveMovesOnlyActivations) {
  // MD+AM moves paper Equation 2's volume: the input and output
  // activations of every routed token-slot, and no weights.
  for (const std::int64_t tokens : {1, 16, 128, 512}) {
    SCOPED_TRACE(tokens);
    const moe::MoeLayerWork work = routed_work(tokens);
    const MoeLayerResult r = run(StrategyKind::kMondeAmove, work);
    EXPECT_EQ(r.pmove_bytes.count(), 0u);
    EXPECT_EQ(r.amove_bytes, analysis::amove_volume(
                                 model_, 1, static_cast<std::int64_t>(work.routed_tokens())));
    EXPECT_EQ(r.experts_gpu, 0);
  }
}

TEST_F(StrategyTest, AmoveVolumeFarBelowPmoveVolume) {
  // The core claim of the paper (Equations 1-2): activation movement is
  // orders of magnitude smaller than parameter movement.
  const moe::MoeLayerWork work = routed_work(128);
  const MoeLayerResult pm = run(StrategyKind::kGpuPmove, work);
  const MoeLayerResult am = run(StrategyKind::kMondeAmove, work);
  EXPECT_GT(pm.pmove_bytes.count(), 20u * am.amove_bytes.count());
}

TEST_F(StrategyTest, IdealIsFastest) {
  const moe::MoeLayerWork work = routed_work(256);
  const Duration ideal = run(StrategyKind::kIdealGpu, work).latency();
  for (const StrategyKind kind : {StrategyKind::kGpuPmove, StrategyKind::kMondeAmove,
                                  StrategyKind::kMondeLoadBalanced,
                                  StrategyKind::kCpuAmove}) {
    EXPECT_GE(run(kind, work).latency().ns(), ideal.ns() * 0.98)
        << make_strategy(kind, ctx())->name();
  }
}

TEST_F(StrategyTest, LoadBalancedBeatsOrMatchesPureStrategies) {
  const moe::MoeLayerWork work = routed_work(256);
  const Duration pm = run(StrategyKind::kGpuPmove, work).latency();
  const Duration am = run(StrategyKind::kMondeAmove, work).latency();
  const Duration lb = run(StrategyKind::kMondeLoadBalanced, work).latency();
  EXPECT_LE(lb.ns(), std::min(pm.ns(), am.ns()) * 1.05);
}

TEST_F(StrategyTest, Equation6HValue) {
  MondeLoadBalanced lb{ctx()};
  moe::MoeLayerWork work = routed_work(128);
  const double bw_pcie = kPcie.effective_bandwidth().as_bytes_per_sec();
  const double bw_md = sys_.monde_aggregate_bandwidth().as_bytes_per_sec();
  const double expected =
      bw_pcie / (bw_md + bw_pcie) * static_cast<double>(work.activated_experts());
  EXPECT_EQ(lb.h_from_equation6(work, 1.0),
            static_cast<int>(std::llround(expected)));
  // Alpha scales H linearly until the activated-expert clamp.
  EXPECT_GE(lb.h_from_equation6(work, 50.0), lb.h_from_equation6(work, 1.0));
  EXPECT_LE(lb.h_from_equation6(work, 1e9),
            static_cast<int>(work.activated_experts()));
}

TEST_F(StrategyTest, FixedHOverrideRespected) {
  MondeLoadBalanced lb{ctx()};
  lb.set_fixed_h(3);
  sim::StreamSchedule sched;
  const HwStreams hw = HwStreams::create(sched, sys_);
  const MoeLayerResult r = lb.run_layer(routed_work(128), sched, hw, Duration::zero());
  EXPECT_EQ(r.h_value, 3);
  EXPECT_EQ(r.experts_gpu, 3);
}

TEST_F(StrategyTest, LoadBalancerRejectsInvalidPins) {
  MondeLoadBalanced lb{ctx()};
  EXPECT_THROW(lb.set_alpha(std::numeric_limits<double>::infinity()), Error);
  EXPECT_THROW(lb.set_alpha(std::numeric_limits<double>::quiet_NaN()), Error);
  EXPECT_THROW(lb.set_alpha(0.0), Error);
  EXPECT_THROW(lb.set_fixed_h(-2), Error);
  EXPECT_THROW(lb.set_fixed_h(std::numeric_limits<int>::min()), Error);
  // The rejected pins changed nothing: alpha stays 1 and the tuner stays on.
  EXPECT_EQ(lb.alpha(), 1.0);
  EXPECT_NO_THROW(lb.set_fixed_h(-1));
  // The largest finite alpha overflows alpha * H_raw to infinity; Equation
  // 6 still clamps it to every activated expert.
  lb.set_alpha(std::numeric_limits<double>::max());
  sim::StreamSchedule sched;
  const HwStreams hw = HwStreams::create(sched, sys_);
  const moe::MoeLayerWork work = routed_work(128);
  EXPECT_EQ(lb.run_layer(work, sched, hw, Duration::zero()).h_value,
            work.activated_experts());
}

TEST_F(StrategyTest, EvaluateLayerWithHSweepHasInteriorOptimum) {
  MondeLoadBalanced lb{ctx()};
  const moe::MoeLayerWork work = routed_work(512);
  const std::int64_t activated = work.activated_experts();
  // All-GPU (H = activated) pays full PMove; H in between should be no
  // worse than the worst extreme.
  const Duration all_ndp = lb.evaluate_layer_with_h(work, 0);
  const Duration all_gpu = lb.evaluate_layer_with_h(work, static_cast<int>(activated));
  const Duration mid = lb.evaluate_layer_with_h(work, static_cast<int>(activated / 4));
  EXPECT_LE(mid.ns(), std::max(all_ndp.ns(), all_gpu.ns()));
  EXPECT_GT(all_gpu, Duration::zero());
}

TEST_F(StrategyTest, AutotunerAdjustsAlpha) {
  MondeLoadBalanced lb{ctx()};
  sim::StreamSchedule sched;
  const HwStreams hw = HwStreams::create(sched, sys_);
  const double alpha0 = lb.alpha();
  Duration t = Duration::zero();
  for (int i = 0; i < 12; ++i) {
    const auto r = lb.run_layer(routed_work(256), sched, hw, t);
    t = r.end;
  }
  // The tuner ran at least twice; alpha must remain positive and finite.
  EXPECT_GT(lb.alpha(), 0.0);
  EXPECT_LT(lb.alpha(), 1000.0);
  // With dispatch-heavy tiny experts the optimum moves away from alpha0=1
  // in this configuration.
  EXPECT_NE(lb.alpha(), alpha0);
}

TEST_F(StrategyTest, FixedHSkipsTheTuner) {
  // The same 12 layers that move alpha in AutotunerAdjustsAlpha leave it
  // at 1.0 while H is pinned: a pinned H needs no alpha.
  MondeLoadBalanced lb{ctx()};
  lb.set_fixed_h(2);
  sim::StreamSchedule sched;
  const HwStreams hw = HwStreams::create(sched, sys_);
  Duration t = Duration::zero();
  for (int i = 0; i < 12; ++i) {
    const auto r = lb.run_layer(routed_work(256), sched, hw, t);
    EXPECT_EQ(r.h_value, 2);
    EXPECT_EQ(lb.alpha(), 1.0);
    t = r.end;
  }
}

TEST_F(StrategyTest, EvaluateLayerWithHIsPure) {
  // What-ifs interleaved with live layers price exactly like a fresh
  // strategy's what-if and like a pinned-H layer on a fresh schedule; any
  // H above E_activ prices as H = E_activ.
  moe::WorkloadGenerator gen{model_, moe::SkewProfile::switch_like(), 7};
  std::vector<moe::MoeLayerWork> works = gen.encoder_pass(2, 64).moe_layers;
  for (const moe::DecoderStep& step : gen.decoder_steps(4, 4)) {
    works.insert(works.end(), step.moe_layers.begin(), step.moe_layers.end());
  }
  MondeLoadBalanced lb{ctx()};
  sim::StreamSchedule sched;
  const HwStreams hw = HwStreams::create(sched, sys_);
  Duration t = Duration::zero();
  for (const moe::MoeLayerWork& w : works) {
    const int activated = static_cast<int>(w.activated_experts());
    for (const int h : {activated, 0, activated + 3, activated / 2, 1000, 1}) {
      SCOPED_TRACE(h);
      const Duration got = lb.evaluate_layer_with_h(w, h);
      MondeLoadBalanced fresh{ctx()};
      EXPECT_EQ(got.ns(), fresh.evaluate_layer_with_h(w, h).ns());
      if (h > activated) {
        EXPECT_EQ(got.ns(), lb.evaluate_layer_with_h(w, activated).ns());
      }

      MondeLoadBalanced pinned{ctx()};
      pinned.set_fixed_h(h);
      sim::StreamSchedule fresh_sched;
      const HwStreams fresh_hw = HwStreams::create(fresh_sched, sys_);
      EXPECT_EQ(got.ns(), pinned.run_layer(w, fresh_sched, fresh_hw, Duration::zero())
                              .latency()
                              .ns());
    }
    t = lb.run_layer(w, sched, hw, t).end;
  }
  EXPECT_THROW((void)lb.evaluate_layer_with_h(works.front(), -1), Error);
}

TEST(ActivatedByLoad, MatchesExpertsByLoadWithoutZeros) {
  // Ties keep ascending expert index, as experts_by_load()'s stable sort
  // orders them; zero-token experts are dropped. One buffer is reused
  // across every work, so each list also lands over the previous one's
  // stale entries, longer or shorter.
  std::vector<ExpertLoad> reused{{99, 7}, {98, 7}};
  const auto expect_matches = [&](const moe::MoeLayerWork& work) {
    std::vector<ExpertLoad> want;
    for (const std::size_t e : work.experts_by_load()) {
      if (work.tokens_per_expert[e] == 0) break;
      want.emplace_back(e, work.tokens_per_expert[e]);
    }
    EXPECT_EQ(fresh_by_load(work), want);
    activated_by_load(work, reused);
    EXPECT_EQ(reused, want);
    EXPECT_EQ(static_cast<std::int64_t>(want.size()), work.activated_experts());
  };
  moe::MoeLayerWork ties;
  ties.tokens_per_expert = {3, 0, 5, 3, 0, 5, 1, 3};
  expect_matches(ties);
  EXPECT_EQ(fresh_by_load(ties),
            (std::vector<ExpertLoad>{{2, 5}, {5, 5}, {0, 3}, {3, 3}, {7, 3}, {6, 1}}));
  moe::MoeLayerWork idle;
  idle.tokens_per_expert = {0, 0, 0};
  expect_matches(idle);  // empties the reused buffer

  for (const std::int64_t experts : {16, 128}) {
    SCOPED_TRACE(experts);
    const moe::MoeModelConfig model = moe::MoeModelConfig::switch_variant(512, experts);
    moe::WorkloadGenerator gen{model, moe::SkewProfile::switch_like(), 42};
    int with_ties = 0;
    const auto check = [&](const moe::MoeLayerWork& w) {
      expect_matches(w);
      const std::vector<ExpertLoad> got = fresh_by_load(w);
      for (std::size_t i = 1; i < got.size(); ++i) {
        with_ties += got[i].second == got[i - 1].second ? 1 : 0;
      }
    };
    for (const moe::MoeLayerWork& w : gen.encoder_pass(2, 64).moe_layers) check(w);
    for (const moe::DecoderStep& step : gen.decoder_steps(4, 3)) {
      for (const moe::MoeLayerWork& w : step.moe_layers) check(w);
    }
    EXPECT_GT(with_ties, 0);  // the routed works exercise count ties too
  }
}

TEST_F(StrategyTest, MultiGpuRequiresTwoGpus) {
  EXPECT_THROW(make_strategy(StrategyKind::kMultiGpu, ctx()), Error);
}

TEST_F(StrategyTest, MultiGpuSplitsExperts) {
  sys_.num_gpus = 2;
  sim::StreamSchedule sched;
  const HwStreams hw = HwStreams::create(sched, sys_);
  auto strat = make_strategy(StrategyKind::kMultiGpu, ctx());
  const moe::MoeLayerWork work = routed_work(256);
  const MoeLayerResult r = strat->run_layer(work, sched, hw, Duration::zero());
  EXPECT_EQ(r.experts_gpu, work.activated_experts());
  EXPECT_TRUE(sched.timeline().validate().empty());
  // Both GPU streams were used (unless all activated experts share parity,
  // which this seed does not produce).
  EXPECT_GT(sched.timeline().busy_time(hw.gpu2), Duration::zero());
}

TEST_F(StrategyTest, ZeroColdExpertsStillValid) {
  // H >= activated: everything goes to the GPU; the NDP batch is empty.
  MondeLoadBalanced lb{ctx()};
  lb.set_fixed_h(1000);
  sim::StreamSchedule sched;
  const HwStreams hw = HwStreams::create(sched, sys_);
  const moe::MoeLayerWork work = routed_work(64);
  const MoeLayerResult r = lb.run_layer(work, sched, hw, Duration::zero());
  EXPECT_EQ(r.experts_ndp, 0);
  EXPECT_EQ(r.experts_gpu, work.activated_experts());
}

// --- Recording switch --------------------------------------------------------------

void expect_same_result(const MoeLayerResult& a, const MoeLayerResult& b) {
  EXPECT_EQ(a.start.ns(), b.start.ns());
  EXPECT_EQ(a.end.ns(), b.end.ns());
  EXPECT_EQ(a.gating.ns(), b.gating.ns());
  EXPECT_EQ(a.combine.ns(), b.combine.ns());
  EXPECT_EQ(a.experts_gpu, b.experts_gpu);
  EXPECT_EQ(a.experts_ndp, b.experts_ndp);
  EXPECT_EQ(a.experts_cpu, b.experts_cpu);
  EXPECT_EQ(a.pmove_bytes.count(), b.pmove_bytes.count());
  EXPECT_EQ(a.amove_bytes.count(), b.amove_bytes.count());
  EXPECT_EQ(a.h_value, b.h_value);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
}

TEST_F(StrategyTest, RecordingOffIsAnswerNeutral) {
  // The same layer sequence on a recording and a non-recording schedule:
  // identical accounting, stream free times and makespan; only the trace
  // differs.
  sys_.num_gpus = 2;  // lets kMultiGpu run; the other strategies never use GPU-1
  sys_.gpu_expert_cache_bytes = model_.expert_bytes() * 4;  // PMove cache path too
  moe::WorkloadGenerator gen{model_, moe::SkewProfile::switch_like(), 42};
  std::vector<moe::MoeLayerWork> works = gen.encoder_pass(2, 64).moe_layers;
  for (const moe::DecoderStep& step : gen.decoder_steps(4, 6)) {
    works.insert(works.end(), step.moe_layers.begin(), step.moe_layers.end());
  }
  for (const StrategyKind kind :
       {StrategyKind::kIdealGpu, StrategyKind::kGpuPmove, StrategyKind::kMondeAmove,
        StrategyKind::kMondeLoadBalanced, StrategyKind::kCpuAmove, StrategyKind::kMultiGpu}) {
    sim::StreamSchedule on{sim::Recording::kOn};
    sim::StreamSchedule off{sim::Recording::kOff};
    const HwStreams hw_on = HwStreams::create(on, sys_);
    const HwStreams hw_off = HwStreams::create(off, sys_);
    const auto strat_on = make_strategy(kind, ctx());
    const auto strat_off = make_strategy(kind, ctx());
    SCOPED_TRACE(strat_on->name());
    Duration t_on = Duration::zero();
    Duration t_off = Duration::zero();
    for (const moe::MoeLayerWork& w : works) {
      const MoeLayerResult a = strat_on->run_layer(w, on, hw_on, t_on);
      const MoeLayerResult b = strat_off->run_layer(w, off, hw_off, t_off);
      expect_same_result(a, b);
      t_on = a.end;
      t_off = b.end;
    }
    ASSERT_EQ(on.stream_count(), off.stream_count());
    for (std::size_t i = 0; i < on.stream_count(); ++i) {
      EXPECT_EQ(on.free_at(sim::StreamId{i}).ns(), off.free_at(sim::StreamId{i}).ns());
    }
    EXPECT_EQ(on.makespan().ns(), off.makespan().ns());
    EXPECT_EQ(on.makespan().ns(), on.timeline().end_time().ns());
    EXPECT_FALSE(on.timeline().intervals().empty());
    EXPECT_TRUE(off.timeline().intervals().empty());
  }
}

// --- Alpha tuner differential ------------------------------------------------------
//
// MondeLoadBalanced's one-pass sweep (sort once per layer, price each
// distinct H once, one rewound scratch schedule) against a test-local
// reference of the per-offset loop it replaced, which prices every
// (offset, window layer) pair with its own evaluate_layer_with_h call and
// recomputes Equation 6 from the work each time. Both run the same encoder
// and decoder layers side by side; alpha, last H and every MoeLayerResult
// field must agree bit for bit after each layer.

/// The tuner as a per-offset loop. The live layer runs on a
/// MondeLoadBalanced pinned to the H this reference picks; a pinned H runs
/// no tuner of its own, and the pinned strategy's expert cache sees the
/// same live layers as the tuned one's.
class ReferenceTuner {
 public:
  explicit ReferenceTuner(StrategyContext ctx) : lb_{std::move(ctx)} {}

  MoeLayerResult run_layer(const moe::MoeLayerWork& work, sim::StreamSchedule& sched,
                           const HwStreams& hw, Duration ready) {
    if (window_.empty()) window_.push_back(work);
    const bool warmup = layers_seen_ < 4;
    if (warmup || layers_seen_ % kTunePeriod == 0) retune();
    ++layers_seen_;
    window_.push_back(work);
    while (window_.size() > kTuneWindow) window_.pop_front();
    last_h_ = lb_.h_from_equation6(work, alpha_);
    lb_.set_fixed_h(last_h_);
    return lb_.run_layer(work, sched, hw, ready);
  }

  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] int last_h() const { return last_h_; }

 private:
  void retune() {
    static constexpr int kOffsets[] = {-4, -2, -1, 0, 1, 2, 4, 8, 16, 32};
    double best_alpha = alpha_;
    Duration best = Duration::infinite();
    for (const int off : kOffsets) {
      Duration total = Duration::zero();
      double alpha_sum = 0.0;
      for (const moe::MoeLayerWork& w : window_) {
        const int h = std::max(0, lb_.h_from_equation6(w, alpha_) + off);
        total += lb_.evaluate_layer_with_h(w, h);
        const double h0 = lb_.h_raw_equation6(w);
        alpha_sum += h0 > 0.0 ? static_cast<double>(h) / h0 : alpha_;
      }
      if (total < best) {
        best = total;
        best_alpha = std::max(0.05, alpha_sum / static_cast<double>(window_.size()));
      }
    }
    alpha_ = best_alpha;
  }

  MondeLoadBalanced lb_;
  std::deque<moe::MoeLayerWork> window_;
  double alpha_ = 1.0;
  int last_h_ = -1;
  int layers_seen_ = 0;
};

/// One platform: `devices` MoNDE devices sharing one NDP simulator, with
/// or without a GPU expert cache.
struct Platform {
  Platform(const moe::MoeModelConfig& m, int devices, bool cache, ndp::NdpCoreSim& sim)
      : sys{SystemConfig::dac24()}, model{m}, gpu{kGpu}, cpu{kCpu},
        xformer{gpu, model.dtype}, ndp{&sim} {
    sys.num_monde_devices = devices;
    if (cache) sys.gpu_expert_cache_bytes = model.expert_bytes() * 48;
  }

  StrategyContext ctx() {
    StrategyContext c;
    c.sys = &sys;
    c.model = &model;
    c.gpu = &gpu;
    c.cpu = &cpu;
    c.xformer = &xformer;
    c.ndp = ndp;
    return c;
  }

  SystemConfig sys;
  moe::MoeModelConfig model;
  compute::GpuModel gpu;
  compute::CpuModel cpu;
  compute::TransformerCostModel xformer;
  ndp::NdpCoreSim* ndp;
};

moe::MoeModelConfig tuner_model(std::int64_t experts) {
  moe::MoeModelConfig m = moe::MoeModelConfig::switch_variant(512, experts);
  m.encoder_blocks = 8;
  m.decoder_blocks = 8;
  m.moe_every = 2;  // 4 encoder + 4 decoder MoE layers
  m.vocab_size = 8192;
  m.top_k = 2;
  m.name = "tuner-diff-model";
  return m;
}

/// Encoder passes and decoder steps of several shapes, interleaved as a
/// serving replica would see them: 88 MoE layers. The large encoder passes
/// make the tuner put hot experts on the GPU, so the cache fills.
std::vector<moe::MoeLayerWork> layer_stream(const moe::MoeModelConfig& model) {
  moe::WorkloadGenerator gen{model, moe::SkewProfile::switch_like(), 42};
  std::vector<moe::MoeLayerWork> works;
  const auto add_encoder = [&](std::int64_t batch, std::int64_t seq) {
    const auto layers = gen.encoder_pass(batch, seq).moe_layers;
    works.insert(works.end(), layers.begin(), layers.end());
  };
  const auto add_decoder = [&](std::int64_t batch, std::int64_t steps) {
    for (const moe::DecoderStep& step : gen.decoder_steps(batch, steps)) {
      works.insert(works.end(), step.moe_layers.begin(), step.moe_layers.end());
    }
  };
  add_encoder(2, 64);
  add_decoder(4, 8);
  add_encoder(8, 256);
  add_decoder(8, 6);
  add_encoder(32, 512);
  add_decoder(1, 4);
  add_encoder(32, 512);
  return works;
}

/// The serving benches' model (bench/serve_scale): 16 experts, top-1.
moe::MoeModelConfig serving_model() {
  moe::MoeModelConfig m = moe::MoeModelConfig::switch_variant(512, 16);
  m.encoder_blocks = 4;
  m.decoder_blocks = 4;
  m.moe_every = 2;
  return m;
}

/// TunerDiff's models by name: the top-2 tuner model at 16 and 128
/// experts, and the top-1 serving model.
moe::MoeModelConfig tuner_diff_model(const std::string& name) {
  if (name == "serving-top1") return serving_model();
  return tuner_model(name == "top2-E128" ? 128 : 16);
}

class TunerDiff : public ::testing::TestWithParam<std::tuple<std::string, int, bool>> {};

TEST_P(TunerDiff, OnePassSweepMatchesPerOffsetLoop) {
  const auto [model_name, devices, cache] = GetParam();
  const moe::MoeModelConfig model = tuner_diff_model(model_name);
  const SystemConfig sys = SystemConfig::dac24();
  // One simulator for every instantiation, so expert shapes memoize.
  static const auto ndp_sim = std::make_shared<ndp::NdpCoreSim>(sys.ndp, sys.monde_mem);
  Platform platform{model, devices, cache, *ndp_sim};

  MondeLoadBalanced tuned{platform.ctx()};
  ReferenceTuner reference{platform.ctx()};
  sim::StreamSchedule sched_tuned{sim::Recording::kOff};
  sim::StreamSchedule sched_reference{sim::Recording::kOff};
  const HwStreams hw_tuned = HwStreams::create(sched_tuned, platform.sys);
  const HwStreams hw_reference = HwStreams::create(sched_reference, platform.sys);

  // 88 MoE layers on the tuner model, 44 on the serving model's 2 + 2.
  const std::vector<moe::MoeLayerWork> works = layer_stream(model);
  ASSERT_GE(works.size(), 44u);
  Duration ready = Duration::zero();
  bool alpha_moved = false;
  for (std::size_t i = 0; i < works.size(); ++i) {
    SCOPED_TRACE(i);
    const MoeLayerResult a = tuned.run_layer(works[i], sched_tuned, hw_tuned, ready);
    const MoeLayerResult b =
        reference.run_layer(works[i], sched_reference, hw_reference, ready);
    expect_same_result(a, b);
    ASSERT_EQ(tuned.alpha(), reference.alpha());
    ASSERT_EQ(tuned.last_h(), reference.last_h());
    EXPECT_EQ(sched_tuned.makespan().ns(), sched_reference.makespan().ns());
    alpha_moved = alpha_moved || tuned.alpha() != 1.0;
    ready = a.end;
  }
  EXPECT_TRUE(alpha_moved);  // the sweep's choice mattered
  // With the cache on, later what-ifs peeked at a cache holding experts.
  ASSERT_EQ(tuned.expert_cache() != nullptr, cache);
  if (cache) {
    EXPECT_GT(tuned.expert_cache()->size(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(DevicesAndCache, TunerDiff,
                         ::testing::Combine(::testing::Values("top2-E16", "top2-E128",
                                                              "serving-top1"),
                                            ::testing::Values(1, 2, 4), ::testing::Bool()));

// --- Cost-table differential -------------------------------------------------------
//
// Strategies price experts from lazily filled per-token-count tables. The
// reference below places an MD+LB layer as MondeLoadBalanced does, but
// prices every task with a direct model call, as the strategies did before
// the tables. A what-if, a pinned-H layer and the reference must agree to
// the bit, and the pinned layer's trace must match the reference's
// interval for interval.

std::string expert_label(const char* what, std::size_t e, std::uint64_t tok) {
  return std::string{what} + " E" + std::to_string(e) + " (" + std::to_string(tok) + " tok)";
}

/// The MD+LB layer under H, from time zero, priced with direct model calls.
/// An expert `cache` (may be null) is peeked at, as a what-if does.
/// Returns the layer's end.
Duration reference_md_lb_layer(Platform& p, const moe::MoeLayerWork& work, int h,
                               const ExpertCache* cache, sim::StreamSchedule& sched,
                               const HwStreams& hw) {
  const moe::MoeModelConfig& m = p.model;
  const auto shape = [&](std::uint64_t tok) {
    return compute::ExpertShape{static_cast<std::int64_t>(tok), m.dmodel, m.dff};
  };
  const auto act_bytes = [&](std::uint64_t n) {
    return Bytes{n * static_cast<std::uint64_t>(m.dmodel) *
                 static_cast<std::uint64_t>(compute::bytes_per_element(m.dtype))};
  };
  const std::vector<ExpertLoad> by_load = fresh_by_load(work);
  const std::size_t hot = std::min(static_cast<std::size_t>(h), by_load.size());

  const Duration gate_end =
      sched.place(hw.gpu, Duration::zero(),
                  p.xformer.gating_time(work.total_tokens, m.num_experts, m.dmodel), "gating",
                  "gating")
          .end;
  Duration gpu_end = gate_end;
  for (std::size_t i = 0; i < hot; ++i) {
    const auto [e, tok] = by_load[i];
    Duration weights_ready = gate_end;
    if (!(cache && cache->contains({work.layer_id, static_cast<int>(e)}))) {
      weights_ready = sched.place(hw.pcie_m2g, gate_end, kPcie.transfer_time(m.expert_bytes()),
                                  expert_label("PMove", e, tok), "pmove")
                          .end;
    }
    const auto disp = sched.place(hw.host, gate_end, kGpuExpertDispatch,
                                  expert_label("dispatch", e, tok), "driver");
    gpu_end = max(gpu_end, sched.place(hw.gpu, max(weights_ready, disp.end),
                                       p.gpu.expert_time(shape(tok), m.dtype),
                                       expert_label("expert", e, tok), "gemm")
                               .end);
  }

  const std::span<const ExpertLoad> cold = std::span{by_load}.subspan(hot);
  const auto n = static_cast<std::size_t>(p.sys.num_monde_devices);
  Duration ndp_end = gate_end;
  for (std::size_t d = 0; d < std::min(n, cold.size()); ++d) {
    std::uint64_t routed = 0;
    for (std::size_t i = d; i < cold.size(); i += n) routed += cold[i].second;
    const auto am = sched.place(hw.pcie_g2m, gate_end, kPcie.transfer_time(act_bytes(routed)),
                                "AMove-in dev" + std::to_string(d), "amove");
    Duration kernel_ready = am.end;
    for (std::size_t i = d; i < cold.size(); i += n) {
      const auto [e, tok] = cold[i];
      const auto disp =
          sched.place(hw.host, gate_end, kOffloadDispatchOverhead + kCxl.message_time(Bytes{64}) * 2.0,
                      expert_label("offload", e, tok), "driver");
      const auto kv = sched.place(
          hw.ndp[d], max(kernel_ready, disp.end),
          p.ndp->simulate_expert(shape(tok), m.dtype).latency + kNdpExpertOverhead,
          expert_label("NDP expert", e, tok), "ndp");
      kernel_ready = kv.end;
      ndp_end = max(ndp_end, sched.place(hw.pcie_m2g, kv.end + kDonePoll,
                                         kPcie.transfer_time(act_bytes(tok)),
                                         expert_label("AMove-out", e, tok), "amove")
                                 .end);
    }
  }
  return sched
      .place(hw.gpu, max(gpu_end, ndp_end), p.xformer.combine_time(work.total_tokens, m.dmodel),
             "combine", "combine")
      .end;
}

void expect_same_intervals(const sim::Timeline& got, const sim::Timeline& want) {
  ASSERT_EQ(got.intervals().size(), want.intervals().size());
  for (std::size_t i = 0; i < got.intervals().size(); ++i) {
    SCOPED_TRACE(i);
    const sim::Interval& a = got.intervals()[i];
    const sim::Interval& b = want.intervals()[i];
    EXPECT_EQ(a.stream, b.stream);
    EXPECT_EQ(a.start.ns(), b.start.ns());
    EXPECT_EQ(a.end.ns(), b.end.ns());
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.category, b.category);
  }
}

class CostTableDiff : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(CostTableDiff, TablePricingMatchesDirectPricing) {
  const auto [devices, cache] = GetParam();
  const moe::MoeModelConfig model = tuner_model(16);
  const SystemConfig sys = SystemConfig::dac24();
  static const auto ndp_sim = std::make_shared<ndp::NdpCoreSim>(sys.ndp, sys.monde_mem);
  Platform platform{model, devices, cache, *ndp_sim};

  // Random layers: decoder steps of a few tokens, and encoder passes up to
  // 4 x 512 tokens top-2, whose hot experts route far more tokens than
  // NdpCoreSim::cycle_sim_token_limit or a table's first block holds.
  moe::WorkloadGenerator gen{model, moe::SkewProfile::switch_like(), 11};
  Rng rng{2024};
  std::vector<moe::MoeLayerWork> works;
  for (int i = 0; i < 8; ++i) {
    const std::vector<moe::MoeLayerWork> layers =
        rng.next_below(2) == 0
            ? gen.encoder_pass(1 + static_cast<std::int64_t>(rng.next_below(4)),
                               16 + static_cast<std::int64_t>(rng.next_below(497)))
                  .moe_layers
            : gen.decoder_steps(1 + static_cast<std::int64_t>(rng.next_below(8)), 1)
                  .front()
                  .moe_layers;
    works.push_back(layers[rng.next_below(layers.size())]);
  }
  works.push_back(gen.encoder_pass(4, 512).moe_layers.front());
  std::uint64_t max_tok = 0;
  for (const moe::MoeLayerWork& w : works) {
    for (const std::uint64_t tok : w.tokens_per_expert) max_tok = std::max(max_tok, tok);
  }
  EXPECT_GT(max_tok, 512u);

  // The strategy under test runs every layer live between its what-ifs, so
  // its tables (and its expert cache, when on) are warm and growing.
  MondeLoadBalanced lb{platform.ctx()};
  sim::StreamSchedule live{sim::Recording::kOff};
  const HwStreams live_hw = HwStreams::create(live, platform.sys);
  Duration t = Duration::zero();
  for (const moe::MoeLayerWork& w : works) {
    const int activated = static_cast<int>(w.activated_experts());
    for (int h = 0; h <= activated + 2; ++h) {
      SCOPED_TRACE(testing::Message() << "layer " << w.layer_id << ", " << w.total_tokens
                                      << " tokens, H " << h);
      sim::StreamSchedule peeked{sim::Recording::kOff};
      const HwStreams peeked_hw = HwStreams::create(peeked, platform.sys);
      const Duration what_if = lb.evaluate_layer_with_h(w, h);
      EXPECT_EQ(what_if.ns(),
                reference_md_lb_layer(platform, w, h, lb.expert_cache(), peeked, peeked_hw).ns());

      // A fresh strategy's cache is empty, so the reference peeks at none.
      MondeLoadBalanced pinned{platform.ctx()};
      pinned.set_fixed_h(h);
      sim::StreamSchedule fresh;
      const HwStreams fresh_hw = HwStreams::create(fresh, platform.sys);
      const Duration pinned_latency =
          pinned.run_layer(w, fresh, fresh_hw, Duration::zero()).latency();
      sim::StreamSchedule want;
      const HwStreams want_hw = HwStreams::create(want, platform.sys);
      EXPECT_EQ(pinned_latency.ns(),
                reference_md_lb_layer(platform, w, h, nullptr, want, want_hw).ns());
      expect_same_intervals(fresh.timeline(), want.timeline());
      if (!cache) {
        EXPECT_EQ(what_if.ns(), pinned_latency.ns());
      }
    }
    t = lb.run_layer(w, live, live_hw, t).end;
  }
}

INSTANTIATE_TEST_SUITE_P(DevicesAndCache, CostTableDiff,
                         ::testing::Combine(::testing::Values(1, 2, 4), ::testing::Bool()));

TEST(CostTables, SimulateEachPlacedNdpShapeOnce) {
  // The NDP table fills on first use: after N layers the simulator has
  // missed once per distinct token count placed on the NDP side and never
  // for the GPU-side counts; a second strategy on the same simulator fills
  // its own tables from the memo and adds no miss.
  const moe::MoeModelConfig model = tuner_model(16);
  const SystemConfig sys = SystemConfig::dac24();
  const auto ndp_sim = std::make_shared<ndp::NdpCoreSim>(sys.ndp, sys.monde_mem);
  Platform platform{model, 1, false, *ndp_sim};
  moe::WorkloadGenerator gen{model, moe::SkewProfile::switch_like(), 5};
  std::vector<moe::MoeLayerWork> works = gen.encoder_pass(2, 64).moe_layers;
  for (const moe::DecoderStep& step : gen.decoder_steps(8, 6)) {
    works.insert(works.end(), step.moe_layers.begin(), step.moe_layers.end());
  }
  constexpr int kHot = 2;
  std::set<std::uint64_t> ndp_counts;
  std::set<std::uint64_t> gpu_only_counts;
  for (const moe::MoeLayerWork& w : works) {
    const std::vector<ExpertLoad> by_load = fresh_by_load(w);
    for (std::size_t i = 0; i < by_load.size(); ++i) {
      (i < kHot ? gpu_only_counts : ndp_counts).insert(by_load[i].second);
    }
  }
  for (const std::uint64_t tok : ndp_counts) gpu_only_counts.erase(tok);
  ASSERT_FALSE(gpu_only_counts.empty());  // some shapes must never be simulated

  const auto run_all = [&] {
    MondeLoadBalanced lb{platform.ctx()};
    lb.set_fixed_h(kHot);
    sim::StreamSchedule sched{sim::Recording::kOff};
    const HwStreams hw = HwStreams::create(sched, platform.sys);
    Duration t = Duration::zero();
    for (const moe::MoeLayerWork& w : works) t = lb.run_layer(w, sched, hw, t).end;
  };
  run_all();
  EXPECT_EQ(ndp_sim->memo_misses(), ndp_counts.size());
  EXPECT_EQ(ndp_sim->memo_hits(), 0u);  // repeats are table hits
  run_all();
  EXPECT_EQ(ndp_sim->memo_misses(), ndp_counts.size());
  EXPECT_EQ(ndp_sim->memo_hits(), ndp_counts.size());
}

// --- Engine -----------------------------------------------------------------------

TEST(Engine, EncoderReportConsistency) {
  InferenceEngine eng{SystemConfig::dac24(), tiny_model(), moe::SkewProfile::switch_like(),
                      StrategyKind::kMondeLoadBalanced, 42};
  const RunReport r = eng.run_encoder(2, 128);
  EXPECT_EQ(r.phase, "encoder");
  EXPECT_EQ(r.tokens, 256u);
  EXPECT_EQ(r.layers.size(), 2u);  // tiny model: 2 encoder MoE layers
  // Blocks and MoE layers serialize on the GPU stream: totals add up.
  EXPECT_NEAR(r.total.us(), (r.non_moe + r.moe).us(), r.total.us() * 1e-6);
  EXPECT_TRUE(r.timeline.validate().empty());
  EXPECT_GT(r.throughput_tokens_per_s(), 0.0);
}

TEST(Engine, DecoderReportConsistency) {
  InferenceEngine eng{SystemConfig::dac24(), tiny_model(), moe::SkewProfile::switch_like(),
                      StrategyKind::kMondeAmove, 42};
  const RunReport r = eng.run_decoder(2, 4, 128);
  EXPECT_EQ(r.phase, "decoder");
  EXPECT_EQ(r.tokens, 8u);
  EXPECT_EQ(r.layers.size(), 8u);  // 4 steps x 2 decoder MoE layers
  EXPECT_NEAR(r.total.us(), (r.non_moe + r.moe).us(), r.total.us() * 1e-6);
  EXPECT_TRUE(r.timeline.validate().empty());
}

TEST(Engine, DeterministicAcrossRuns) {
  const auto run_once = [] {
    InferenceEngine eng{SystemConfig::dac24(), tiny_model(),
                        moe::SkewProfile::switch_like(), StrategyKind::kMondeLoadBalanced,
                        7};
    return eng.run_encoder(1, 128).total;
  };
  EXPECT_DOUBLE_EQ(run_once().ns(), run_once().ns());
}

TEST(Engine, SharedSimulatorReusesMemoization) {
  auto sys = SystemConfig::dac24();
  auto shared = std::make_shared<ndp::NdpCoreSim>(sys.ndp, sys.monde_mem);
  InferenceEngine a{sys, tiny_model(), moe::SkewProfile::switch_like(),
                    StrategyKind::kMondeAmove, 42, shared};
  a.run_encoder(1, 128);
  const auto misses_after_first = shared->memo_misses();
  InferenceEngine b{sys, tiny_model(), moe::SkewProfile::switch_like(),
                    StrategyKind::kMondeAmove, 42, shared};
  b.run_encoder(1, 128);
  EXPECT_EQ(shared->memo_misses(), misses_after_first);  // all hits
}

// --- Refactor seam: run_encoder / run_decoder are reimplemented on top of
// the prefill()/decode_step() primitives. These pins capture the exact
// report values the pre-refactor monolithic loops produced (printed with
// %.17g, so the literals round-trip bit-exactly); the step-wise engine must
// keep reproducing them.

TEST(Engine, ReportsPinnedMdLb) {
  // Encoder then decoder on one engine, in this order: the load balancer's
  // autotuner state and the workload RNG advance across runs, so the pinned
  // values are tied to this exact call sequence.
  InferenceEngine eng{SystemConfig::dac24(), tiny_model(), moe::SkewProfile::switch_like(),
                      StrategyKind::kMondeLoadBalanced, 42};
  const RunReport enc = eng.run_encoder(2, 128);
  EXPECT_DOUBLE_EQ(enc.total.ns(), 4569608.2068707831);
  EXPECT_DOUBLE_EQ(enc.moe.ns(), 3792324.1966473516);
  EXPECT_DOUBLE_EQ(enc.non_moe.ns(), 777284.0102234314);
  ASSERT_EQ(enc.layers.size(), 2u);
  std::int64_t gpu = 0, ndp = 0, cpu = 0;
  for (const auto& l : enc.layers) {
    gpu += l.experts_gpu;
    ndp += l.experts_ndp;
    cpu += l.experts_cpu;
  }
  EXPECT_EQ(gpu, 20);
  EXPECT_EQ(ndp, 12);
  EXPECT_EQ(cpu, 0);

  const RunReport dec = eng.run_decoder(2, 4, 128);
  EXPECT_DOUBLE_EQ(dec.total.ns(), 12792135.793517902);
  EXPECT_DOUBLE_EQ(dec.moe.ns(), 3292931.5194639787);
  EXPECT_DOUBLE_EQ(dec.non_moe.ns(), 9499204.2740539219);
  ASSERT_EQ(dec.layers.size(), 8u);
  gpu = ndp = 0;
  for (const auto& l : dec.layers) {
    gpu += l.experts_gpu;
    ndp += l.experts_ndp;
  }
  EXPECT_EQ(gpu, 19);
  EXPECT_EQ(ndp, 8);
}

TEST(Engine, ReportsPinnedGpuPmove) {
  InferenceEngine eng{SystemConfig::dac24(), tiny_model(), moe::SkewProfile::switch_like(),
                      StrategyKind::kGpuPmove, 7};
  const RunReport enc = eng.run_encoder(1, 64);
  EXPECT_DOUBLE_EQ(enc.total.ns(), 5642157.4822156876);
  EXPECT_DOUBLE_EQ(enc.moe.ns(), 4873306.7923957678);
  EXPECT_DOUBLE_EQ(enc.non_moe.ns(), 768850.68981991964);
  ASSERT_EQ(enc.layers.size(), 2u);
  const RunReport dec = eng.run_decoder(1, 3, 64);
  EXPECT_DOUBLE_EQ(dec.total.ns(), 9125789.8294882607);
  EXPECT_DOUBLE_EQ(dec.moe.ns(), 2003078.6348308269);
  EXPECT_DOUBLE_EQ(dec.non_moe.ns(), 7122711.1946574338);
  ASSERT_EQ(dec.layers.size(), 6u);
}

// --- Step primitives ---------------------------------------------------------

TEST(Engine, StepPrimitivesComposeIntoRuns) {
  // Driving the primitives by hand must equal run_encoder + run_decoder on a
  // fresh engine with the same seed (same draws, same schedule).
  InferenceEngine manual{SystemConfig::dac24(), tiny_model(), moe::SkewProfile::switch_like(),
                         StrategyKind::kMondeAmove, 42};
  EngineState st = manual.make_state();
  const StepResult pf = manual.prefill(st, 2, 64);
  EXPECT_DOUBLE_EQ(pf.start.ns(), 0.0);
  EXPECT_EQ(pf.tokens, 128u);
  const auto works = manual.workload().decoder_steps(2, 1);
  const std::vector<DecodeSlot> slots = {{0, 0, 64}, {1, 0, 64}};
  const StepResult ds = manual.decode_step(st, slots, works[0].moe_layers);
  EXPECT_DOUBLE_EQ(ds.start.ns(), pf.end.ns());  // steps chain on the cursor
  EXPECT_EQ(ds.tokens, 2u);
  const RunReport rep = manual.finish(std::move(st), "decoder");
  EXPECT_EQ(rep.tokens, 130u);
  EXPECT_DOUBLE_EQ(rep.total.ns(), ds.end.ns());
  EXPECT_TRUE(rep.timeline.validate().empty());

  InferenceEngine whole{SystemConfig::dac24(), tiny_model(), moe::SkewProfile::switch_like(),
                        StrategyKind::kMondeAmove, 42};
  const RunReport enc = whole.run_encoder(2, 64);
  const RunReport dec = whole.run_decoder(2, 1, 64);
  EXPECT_DOUBLE_EQ(rep.total.ns(), (enc.total + dec.total).ns());
}

TEST(Engine, DecodeStepHandlesMixedDepths) {
  InferenceEngine eng{SystemConfig::dac24(), tiny_model(), moe::SkewProfile::switch_like(),
                      StrategyKind::kMondeLoadBalanced, 42};
  EngineState st = eng.make_state();
  // A continuous batch: three requests at decode depths 0, 5, and 11 with
  // different prompt lengths.
  const std::vector<DecodeSlot> slots = {{10, 0, 64}, {11, 5, 128}, {12, 11, 96}};
  const StepResult r = eng.decode_step(st, slots, step_works(eng, slots));
  EXPECT_EQ(r.tokens, 3u);
  EXPECT_GT(r.end, r.start);
  EXPECT_TRUE(st.sched.timeline().validate().empty());
  ASSERT_EQ(st.layers.size(), 2u);  // tiny model: 2 decoder MoE layers
  for (const auto& l : st.layers) {
    EXPECT_GE(l.experts_gpu + l.experts_ndp + l.experts_cpu, 1);
    EXPECT_LE(l.experts_gpu + l.experts_ndp + l.experts_cpu, 6);  // 3 tokens x top-2
  }
  // Deeper slots attend over longer KV caches: a second identical step at
  // greater depths must not be cheaper.
  EngineState st2 = eng.make_state();
  const std::vector<DecodeSlot> deep = {{10, 100, 64}, {11, 105, 128}, {12, 111, 96}};
  const StepResult r2 = eng.decode_step(st2, deep, step_works(eng, deep));
  EXPECT_GE(r2.latency().ns(), r.latency().ns() * 0.5);
}

TEST(Engine, NonRecordingStateMatchesRecordingState) {
  // A non-recording state (the serving layer's) keeps the same times and
  // accumulators but neither the trace nor the per-layer results.
  for (const StrategyKind kind : {StrategyKind::kMondeLoadBalanced, StrategyKind::kGpuPmove}) {
    InferenceEngine a{SystemConfig::dac24(), tiny_model(), moe::SkewProfile::switch_like(),
                      kind, 42};
    SCOPED_TRACE(a.strategy().name());
    InferenceEngine b{SystemConfig::dac24(), tiny_model(), moe::SkewProfile::switch_like(),
                      kind, 42};
    EngineState on = a.make_state();
    EngineState off = b.make_state(sim::Recording::kOff);
    const std::vector<DecodeSlot> slots = {{0, 0, 64}, {1, 3, 96}};
    for (int step = 0; step < 3; ++step) {
      a.prefill(on, 1, 64);
      b.prefill(off, 1, 64);
      a.decode_step(on, slots, step_works(a, slots));
      b.decode_step(off, slots, step_works(b, slots));
    }
    EXPECT_EQ(on.now.ns(), off.now.ns());
    EXPECT_EQ(on.non_moe.ns(), off.non_moe.ns());
    EXPECT_EQ(on.moe.ns(), off.moe.ns());
    EXPECT_EQ(on.tokens, off.tokens);
    EXPECT_EQ(on.decode_steps, off.decode_steps);
    EXPECT_EQ(on.sched.makespan().ns(), off.sched.makespan().ns());
    EXPECT_EQ(on.layers.size(), 12u);  // 3 x (2 encoder + 2 decoder MoE layers)
    EXPECT_TRUE(off.layers.empty());
    EXPECT_TRUE(off.sched.timeline().intervals().empty());
  }
}

/// "<what> E<e> (<tok> tok)" for the expert of `rank` in `w`'s load order.
std::string expert_label(const char* what, const moe::MoeLayerWork& w, std::size_t rank) {
  const std::size_t e = w.experts_by_load().at(rank);
  return std::string{what} + " E" + std::to_string(e) + " (" +
         std::to_string(w.tokens_per_expert[e]) + " tok)";
}

std::vector<std::string> labels_of(const sim::Timeline& tl) {
  std::vector<std::string> out;
  for (const sim::Interval& iv : tl.intervals()) out.push_back(iv.label);
  return out;
}

TEST(Engine, TraceLabelsPinnedMdLbDecode) {
  // One MD+LB decode step with H = 1: the hottest expert over PMove, the
  // rest near-data on the single MoNDE device. Every label, in placement
  // order.
  const moe::MoeModelConfig model = tiny_model();
  InferenceEngine eng{SystemConfig::dac24(), model, moe::SkewProfile::switch_like(),
                      StrategyKind::kMondeLoadBalanced, 42};
  dynamic_cast<MondeLoadBalanced&>(eng.strategy()).set_fixed_h(1);
  EngineState st = eng.make_state();
  const std::vector<moe::MoeLayerWork> works = eng.workload().decoder_steps(2, 1).at(0).moe_layers;
  eng.decode_step(st, {{0, 0, 64}, {1, 0, 64}}, works);

  std::vector<std::string> want;
  std::size_t moe_idx = 0;
  for (int block = 0; block < model.decoder_blocks; ++block) {
    want.push_back("dec s0 block " + std::to_string(block));
    if (!model.is_moe_block(block)) continue;
    const moe::MoeLayerWork& w = works.at(moe_idx++);
    const auto activated = static_cast<std::size_t>(w.activated_experts());
    ASSERT_GE(activated, 2u);
    want.push_back("gating");
    want.push_back(expert_label("PMove", w, 0));
    want.push_back(expert_label("dispatch", w, 0));
    want.push_back(expert_label("expert", w, 0));
    want.push_back("AMove-in dev0");
    for (std::size_t r = 1; r < activated; ++r) {
      want.push_back(expert_label("offload", w, r));
      want.push_back(expert_label("NDP expert", w, r));
      want.push_back(expert_label("AMove-out", w, r));
    }
    want.push_back("combine");
  }
  want.push_back("lm head dec s0");
  EXPECT_EQ(labels_of(st.sched.timeline()), want);
}

TEST(Engine, TraceLabelsPinnedCpuAmEncoder) {
  const moe::MoeModelConfig model = tiny_model();
  InferenceEngine eng{SystemConfig::dac24(), model, moe::SkewProfile::switch_like(),
                      StrategyKind::kCpuAmove, 42};
  // The engine's first encoder draw, reproduced on a twin generator.
  moe::WorkloadGenerator twin{model, moe::SkewProfile::switch_like(), 42};
  const moe::EncoderPass pass = twin.encoder_pass(1, 32);
  const RunReport r = eng.run_encoder(1, 32);

  std::vector<std::string> want;
  std::size_t moe_idx = 0;
  for (int block = 0; block < model.encoder_blocks; ++block) {
    want.push_back("enc block " + std::to_string(block));
    if (!model.is_moe_block(block)) continue;
    const moe::MoeLayerWork& w = pass.moe_layers.at(moe_idx++);
    want.push_back("gating");
    want.push_back("AMove-in CPU");
    for (std::size_t rank = 0; rank < static_cast<std::size_t>(w.activated_experts()); ++rank) {
      want.push_back(expert_label("offload", w, rank));
      want.push_back(expert_label("CPU expert", w, rank));
      want.push_back(expert_label("AMove-out", w, rank));
    }
    want.push_back("combine");
  }
  EXPECT_EQ(labels_of(r.timeline), want);
}

TEST(Engine, DecodeStepPerRequestRoutingIndependentOfBatchOrder) {
  // The same three requests in a different slot order must produce the same
  // merged MoE work (per-request draws are order-independent).
  InferenceEngine eng{SystemConfig::dac24(), tiny_model(), moe::SkewProfile::switch_like(),
                      StrategyKind::kMondeAmove, 42};
  const auto draw = [&](std::uint64_t id, std::int64_t step) {
    return eng.workload().decoder_step_for(id, step);
  };
  const auto merged_a = moe::WorkloadGenerator::merge_layer_works(
      {draw(1, 0), draw(2, 3), draw(3, 7)});
  const auto merged_b = moe::WorkloadGenerator::merge_layer_works(
      {draw(3, 7), draw(1, 0), draw(2, 3)});
  ASSERT_EQ(merged_a.size(), merged_b.size());
  for (std::size_t i = 0; i < merged_a.size(); ++i) {
    EXPECT_EQ(merged_a[i].tokens_per_expert, merged_b[i].tokens_per_expert);
  }
}

TEST(Engine, DecodeStepRejectsBadInput) {
  InferenceEngine eng{SystemConfig::dac24(), tiny_model(), moe::SkewProfile::switch_like(),
                      StrategyKind::kMondeAmove, 42};
  EngineState st = eng.make_state();
  const std::vector<DecodeSlot> slots = {{0, 0, 64}};
  const auto works = step_works(eng, slots);
  EXPECT_THROW((void)eng.decode_step(st, {}, works), Error);
  // Wrong per-layer work count for this model.
  EXPECT_THROW((void)eng.decode_step(st, slots, {}), Error);
  // Negative decode depth.
  EngineState st2 = eng.make_state();
  EXPECT_THROW((void)eng.decode_step(st2, {{0, -1, 64}}, works), Error);
}

TEST(Engine, RejectsDenseModel) {
  EXPECT_THROW(InferenceEngine(SystemConfig::dac24(), moe::MoeModelConfig::t5_large_dense(),
                               moe::SkewProfile::uniform(), StrategyKind::kIdealGpu, 1),
               Error);
}

TEST(Engine, FitCheckAgreesWithDevicePlacement) {
  // The engine rejects a model that does not fit without placing it; a
  // device that places every expert of device 0's round-robin shard, one
  // place_expert at a time, is the oracle. The sweep straddles the 256-GiB
  // weight partition: an NLLB expert is 8 KiB x dff and device 0 holds
  // ceil(E / n) experts in each of the 12 MoE layers.
  const auto error_of = [](const auto& fn) -> std::string {
    try {
      fn();
    } catch (const Error& e) {
      return e.what();
    }
    return {};
  };
  SystemConfig sys = SystemConfig::dac24();
  const auto sim = std::make_shared<ndp::NdpCoreSim>(sys.ndp, sys.monde_mem);
  int fits = 0;
  int rejected = 0;
  for (const int devices : {1, 2}) {
    sys.num_monde_devices = devices;
    for (const std::int64_t experts : {128, 341, 342, 682, 683}) {
      for (const std::int64_t dff : {8192, 21845, 21846, 43690, 43691}) {
        moe::MoeModelConfig model = moe::MoeModelConfig::nllb_moe_128();
        model.num_experts = experts;
        model.dff = dff;
        SCOPED_TRACE(std::to_string(devices) + " devices, E=" + std::to_string(experts) +
                     ", dff=" + std::to_string(dff));
        const std::string placed = error_of([&] {
          MondeDevice dev{0, sim};
          place_shard(dev, model, 0, devices);
        });
        const std::string built = error_of([&] {
          InferenceEngine{sys, model, moe::SkewProfile::uniform(), StrategyKind::kMondeAmove, 1,
                          sim};
        });
        EXPECT_EQ(built.empty(), placed.empty()) << "engine: " << built << "\ndevice: " << placed;
        if (placed.empty()) {
          ++fits;
        } else {
          ++rejected;
          EXPECT_NE(placed.find("exhausted"), std::string::npos) << placed;
          EXPECT_NE(built.find("exhausted"), std::string::npos) << built;
        }
      }
    }
  }
  EXPECT_GT(fits, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Engine, MultiDeviceEncoderNotSlower) {
  SystemConfig one = SystemConfig::dac24();
  SystemConfig four = SystemConfig::dac24();
  four.num_monde_devices = 4;
  InferenceEngine e1{one, tiny_model(), moe::SkewProfile::switch_like(),
                     StrategyKind::kMondeAmove, 42};
  InferenceEngine e4{four, tiny_model(), moe::SkewProfile::switch_like(),
                     StrategyKind::kMondeAmove, 42};
  const Duration t1 = e1.run_encoder(4, 128).moe;
  const Duration t4 = e4.run_encoder(4, 128).moe;
  EXPECT_LE(t4.ns(), t1.ns() * 1.01);
}

}  // namespace
}  // namespace monde::core
