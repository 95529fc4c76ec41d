// Failure-injection and edge-case tests: degenerate workloads, capacity
// exhaustion, misconfiguration, and corrupted wire data.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/engine.hpp"
#include "core/load_balancer.hpp"
#include "interconnect/instruction.hpp"
#include "serve/fault.hpp"

namespace monde::core {
namespace {

moe::MoeModelConfig tiny() {
  moe::MoeModelConfig m = moe::MoeModelConfig::switch_variant(512, 16);
  m.encoder_blocks = 2;
  m.decoder_blocks = 2;
  m.moe_every = 2;
  m.vocab_size = 4096;
  return m;
}

struct Platform {
  SystemConfig sys = SystemConfig::dac24();
  moe::MoeModelConfig model = tiny();
  compute::GpuModel gpu{kGpu};
  compute::CpuModel cpu{kCpu};
  compute::TransformerCostModel xformer{gpu, model.dtype};
  std::shared_ptr<ndp::NdpCoreSim> sim =
      std::make_shared<ndp::NdpCoreSim>(sys.ndp, sys.monde_mem);
  MondeDevice device{0, sim};

  Platform() { device.place_model(model, 1); }

  StrategyContext ctx() {
    StrategyContext c;
    c.sys = &sys;
    c.model = &model;
    c.gpu = &gpu;
    c.cpu = &cpu;
    c.xformer = &xformer;
    c.ndp = sim.get();
    return c;
  }
};

TEST(FailureInjection, LayerWithNoRoutedTokensIsHarmless) {
  // A layer where gating dropped every token (all counts zero): strategies
  // must schedule gating+combine only and report zero experts.
  Platform p;
  moe::MoeLayerWork work;
  work.total_tokens = 4;
  work.top_k = 1;
  work.tokens_per_expert.assign(16, 0);
  for (const StrategyKind kind : {StrategyKind::kIdealGpu, StrategyKind::kGpuPmove,
                                  StrategyKind::kMondeAmove,
                                  StrategyKind::kMondeLoadBalanced,
                                  StrategyKind::kCpuAmove}) {
    sim::StreamSchedule sched;
    const HwStreams hw = HwStreams::create(sched, p.sys);
    auto strat = make_strategy(kind, p.ctx());
    const MoeLayerResult r = strat->run_layer(work, sched, hw, Duration::zero());
    EXPECT_EQ(r.experts_gpu + r.experts_ndp + r.experts_cpu, 0) << to_string(kind);
    EXPECT_GT(r.end, r.start) << to_string(kind);  // gating + combine still run
    EXPECT_TRUE(sched.timeline().validate().empty());
  }
}

TEST(FailureInjection, SingleExpertModelWorks) {
  moe::MoeModelConfig m = tiny();
  m.num_experts = 1;
  m.top_k = 1;
  InferenceEngine eng{SystemConfig::dac24(), m, moe::SkewProfile::uniform(),
                      StrategyKind::kMondeLoadBalanced, 3};
  const RunReport r = eng.run_encoder(1, 64);
  EXPECT_GT(r.total, Duration::zero());
  for (const auto& l : r.layers) {
    EXPECT_EQ(l.experts_gpu + l.experts_ndp, 1);
  }
}

TEST(FailureInjection, MondeStrategiesRequireDevices) {
  Platform p;
  p.sys.num_monde_devices = 0;
  StrategyContext c = p.ctx();
  c.ndp = nullptr;
  EXPECT_THROW(make_strategy(StrategyKind::kMondeLoadBalanced, c), Error);
  // MD+AM constructs but must fail loudly when asked to schedule.
  auto am = make_strategy(StrategyKind::kMondeAmove, c);
  sim::StreamSchedule sched;
  const HwStreams hw = HwStreams::create(sched, p.sys);
  moe::WorkloadGenerator gen{p.model, moe::SkewProfile::switch_like(), 1};
  const auto work = gen.encoder_pass(1, 64).moe_layers[0];
  EXPECT_THROW(am->run_layer(work, sched, hw, Duration::zero()), Error);
}

TEST(FailureInjection, DevicePlacementExhaustsCleanly) {
  // An expert working set beyond the 256-GiB weight partition must throw
  // with a capacity diagnosis, not corrupt state.
  auto sys = SystemConfig::dac24();
  auto sim = std::make_shared<ndp::NdpCoreSim>(sys.ndp, sys.monde_mem);
  MondeDevice dev{0, sim};
  moe::MoeModelConfig huge = moe::MoeModelConfig::nllb_moe_128();
  huge.dff = 8192 * 40;  // ~2.7 GB per expert x 128 x 12 layers >> 256 GiB
  try {
    dev.place_model(huge, 1);
    FAIL() << "expected capacity exhaustion";
  } catch (const Error& e) {
    EXPECT_NE(std::string{e.what()}.find("exhausted"), std::string::npos);
  }
}

TEST(FailureInjection, ActivationArenaResetEnablesLongRuns) {
  // compile_expert_op consumes activation-arena space; periodic per-layer
  // resets (the paper's fixed per-layer allocation) keep it bounded.
  Platform p;
  MondeDevice& dev = p.device;
  for (int round = 0; round < 200; ++round) {
    (void)dev.compile_expert_op({0, round % 16}, 64, p.model);
    if (round % 8 == 7) dev.allocator().reset_activations();
  }
  SUCCEED();
}

TEST(FailureInjection, CorruptedFlitRejectedOrInert) {
  // All-zero payload: opcode 0 (kNop) decodes, but must not claim NDP.
  interconnect::InstructionBytes zeros{};
  EXPECT_FALSE(interconnect::is_ndp_flit(zeros));
  const auto inst = interconnect::decode(zeros);
  EXPECT_EQ(inst.opcode, interconnect::Opcode::kNop);
  EXPECT_FALSE(inst.is_ndp);
}

TEST(FailureInjection, NdpSlowdownWhenRateMismatched) {
  // Halving the NDP clock without touching memory must not speed anything up.
  auto sys = SystemConfig::dac24();
  ndp::NdpCoreSim fast{sys.ndp, sys.monde_mem};
  ndp::NdpCoreSim slow{sys.ndp.rate_matched(0.5), sys.monde_mem};
  const compute::ExpertShape e{8, 1024, 4096};
  EXPECT_GE(slow.simulate_expert(e, compute::DataType::kBf16).latency.ns(),
            fast.simulate_expert(e, compute::DataType::kBf16).latency.ns());
}

TEST(FailureInjection, DecoderRejectsBadArguments) {
  InferenceEngine eng{SystemConfig::dac24(), tiny(), moe::SkewProfile::switch_like(),
                      StrategyKind::kIdealGpu, 1};
  EXPECT_THROW(eng.run_decoder(0, 4), Error);
  EXPECT_THROW(eng.run_decoder(1, 0), Error);
  EXPECT_THROW(eng.run_encoder(-1, 16), Error);
}

TEST(FailureInjection, TuningWindowBoundedUnderManyLayers) {
  Platform p;
  MondeLoadBalanced lb{p.ctx()};
  sim::StreamSchedule sched;
  const HwStreams hw = HwStreams::create(sched, p.sys);
  moe::WorkloadGenerator gen{p.model, moe::SkewProfile::switch_like(), 9};
  Duration t = Duration::zero();
  // Ten tuner periods past the every-layer warm-up.
  for (int i = 0; i < 4 + 10 * kTunePeriod; ++i) {
    const auto work = gen.encoder_pass(1, 64).moe_layers[0];
    const auto r = lb.run_layer(work, sched, hw, t);
    t = r.end;
  }
  EXPECT_TRUE(sched.timeline().validate().empty());
  EXPECT_GT(lb.alpha(), 0.0);
}

TEST(FailureInjection, HeartbeatAgeWithinTimeoutBeforeDetection) {
  // The cluster drops a stale-heartbeat cut at dispatch because it can never
  // fire: detections at or before a dispatch instant are processed first,
  // and before its detection instant a replica's heartbeat age never exceeds
  // the timeout -- wherever the death falls relative to the poll grid.
  // Whole-nanosecond instants keep the double arithmetic exact.
  const auto interval = static_cast<std::int64_t>(serve::kHeartbeatInterval.ns());
  const std::int64_t step = interval / 8;
  const auto age_at = [](std::int64_t now, Duration fail_at) {
    const Duration t = Duration::nanos(static_cast<double>(now));
    return t - serve::last_ok_heartbeat(t, fail_at);
  };
  // Fail before the first poll, on a poll, one nanosecond either side of
  // one, and between polls, over the first few intervals.
  const std::int64_t offsets[] = {-1, 0, 1, 3, interval / 2};
  std::vector<std::int64_t> fails;
  for (std::int64_t k = 0; k <= 4; ++k) {
    for (const std::int64_t off : offsets) {
      if (k * interval + off > 0) fails.push_back(k * interval + off);
    }
  }
  for (const std::int64_t fail : fails) {
    SCOPED_TRACE("fail_at=" + std::to_string(fail));
    const Duration fail_at = Duration::nanos(static_cast<double>(fail));
    const Duration detect = serve::failure_detection_time(fail_at);
    const auto detect_ns = static_cast<std::int64_t>(detect.ns());
    ASSERT_EQ(Duration::nanos(static_cast<double>(detect_ns)), detect);
    EXPECT_GE(detect, fail_at);
    for (std::int64_t now = 0; now < detect_ns; now += step) {
      EXPECT_LE(age_at(now, fail_at), serve::kHeartbeatTimeout) << "now=" << now;
    }
    EXPECT_LE(age_at(detect_ns - 1, fail_at), serve::kHeartbeatTimeout);
  }
  // A replica that never fails is never older than one interval.
  for (std::int64_t now = 0; now < interval * 6; now += step) {
    EXPECT_LT(age_at(now, Duration::infinite()), serve::kHeartbeatInterval) << "now=" << now;
  }
}

}  // namespace
}  // namespace monde::core
