// Figure 5: MoE workflow comparison across parallel hardware streams.
//
// Schedules one NLLB-MoE encoder MoE layer (batch 4) under each strategy
// and renders the per-stream timeline as an ASCII Gantt chart -- the same
// picture as the paper's Figure 5 (gating, PMove 'p', AMove 'a', expert 'e'
// boxes on GPU / PCIe / MoNDE / CPU streams). Also writes Chrome-trace JSON
// next to the binary for interactive inspection. Exits 1 if any recorded
// timeline has two overlapping intervals on one stream.
#include <fstream>

#include "bench_util.hpp"

int main() {
  using namespace monde;
  using core::StrategyKind;
  bench::banner("Figure 5", "MoE workflow timelines (one NLLB-MoE encoder layer, B=4)");

  const auto model = moe::MoeModelConfig::nllb_moe_128();
  const auto sys = core::SystemConfig::dac24();
  const auto prof = moe::SkewProfile::nllb_like();
  auto sim = std::make_shared<ndp::NdpCoreSim>(sys.ndp, sys.monde_mem);

  moe::WorkloadGenerator gen{model, prof, 42};
  const auto work = gen.encoder_pass(4, 512).moe_layers[0];
  std::printf("layer: %lld activated experts, %llu routed token-slots\n\n",
              static_cast<long long>(work.activated_experts()),
              static_cast<unsigned long long>(work.routed_tokens()));

  bool overlap = false;
  for (const StrategyKind kind : {StrategyKind::kIdealGpu, StrategyKind::kMondeAmove,
                                  StrategyKind::kMondeLoadBalanced,
                                  StrategyKind::kGpuPmove}) {
    core::InferenceEngine eng{sys, model, prof, kind, 42, sim};
    // Drive the strategy directly on a fresh schedule for a clean chart.
    sim::StreamSchedule sched;
    const core::HwStreams hw = core::HwStreams::create(sched, sys);
    const auto res = eng.strategy().run_layer(work, sched, hw, Duration::zero());

    std::printf("--- %s: MoE layer latency %s", eng.strategy().name().c_str(),
                res.latency().str().c_str());
    if (res.h_value >= 0) std::printf(" (H=%d)", res.h_value);
    std::printf(" ---\n%s\n",
                sched.timeline().to_ascii_gantt(sched.stream_names(), 96).c_str());

    const std::string path = "fig5_trace_" + eng.strategy().name() + ".json";
    std::ofstream{path} << sched.timeline().to_chrome_trace(sched.stream_names());
    std::printf("chrome trace written to %s\n\n", path.c_str());

    const std::string invalid = sched.timeline().validate();
    if (!invalid.empty()) {
      std::fprintf(stderr, "FAIL: %s timeline: %s\n", eng.strategy().name().c_str(),
                   invalid.c_str());
      overlap = true;
    }
  }
  std::printf("paper: GPU+PM serializes PMove 'p' boxes on PCIe; MD+AM replaces them with\n"
              "small 'a' boxes and NDP 'e' boxes; MD+LB overlaps the GPU and MoNDE\n"
              "workflows; Ideal runs experts back-to-back on the GPU.\n");
  return overlap ? 1 : 0;
}
