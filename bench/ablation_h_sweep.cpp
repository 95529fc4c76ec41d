// Ablation (beyond the paper's figures): sensitivity of the MD+LB layer
// latency to the hot-expert count H, against Equation 6's choice and the
// auto-tuned value.
//
// The paper states H "sensitively affects performance" (Section 3.3); this
// bench quantifies it: a full H sweep on one NLLB encoder layer, marking
// the Equation-6 baseline (alpha = 1) and the tuner's pick.
//
//   ablation_h_sweep [--json <path>]
//
// --json writes the latency at H = 0, at Equation 6's H and at H = E_activ,
// the sweep's best H, and the tuner's converged alpha and H: the budget
// gate's pin on the tuner's answers for the paper's 128-expert NLLB layer.
#include "bench_util.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace monde;
  using core::StrategyKind;
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  bench::banner("Ablation: H sweep", "MD+LB layer latency vs hot-expert count H");

  const auto sys = core::SystemConfig::dac24();
  const auto model = moe::MoeModelConfig::nllb_moe_128();
  const auto prof = moe::SkewProfile::nllb_like();
  auto sim = std::make_shared<ndp::NdpCoreSim>(sys.ndp, sys.monde_mem);

  core::InferenceEngine eng{sys, model, prof, StrategyKind::kMondeLoadBalanced, 42, sim};
  auto& lb = dynamic_cast<core::MondeLoadBalanced&>(eng.strategy());

  moe::WorkloadGenerator gen{model, prof, 42};
  const auto work = gen.encoder_pass(4, 512).moe_layers[0];
  const int activated = static_cast<int>(work.activated_experts());
  const int h_eq6 = lb.h_from_equation6(work, 1.0);

  std::printf("layer: %d activated experts; Equation 6 (alpha=1) picks H=%d\n\n", activated,
              h_eq6);
  Table t{{"H", "layer latency (ms)", "note"}};
  int best_h = 0;
  double best = 1e300;
  for (int h = 0; h <= activated; h = h < 8 ? h + 1 : h + (h < 32 ? 4 : 16)) {
    const double ms = lb.evaluate_layer_with_h(work, h).ms();
    if (ms < best) {
      best = ms;
      best_h = h;
    }
    t.add_row({std::to_string(h), Table::num(ms, 2), h == h_eq6 ? "<- Equation 6" : ""});
  }
  t.print(std::cout);

  // Let the auto-tuner converge on a stream of layers, then report alpha.
  sim::StreamSchedule sched;
  const auto hw = core::HwStreams::create(sched, sys);
  Duration when = Duration::zero();
  for (int i = 0; i < 16; ++i) {
    const auto res = lb.run_layer(work, sched, hw, when);
    when = res.end;
  }
  std::printf("\nbest H in sweep: %d (%.2f ms); auto-tuner converged to alpha=%.2f -> H=%d\n",
              best_h, best, lb.alpha(), lb.last_h());

  bench::BenchMetrics metrics{"ablation_h_sweep"};
  metrics.add("latency_ms.h0", lb.evaluate_layer_with_h(work, 0).ms());
  metrics.add("latency_ms.h_eq6", lb.evaluate_layer_with_h(work, h_eq6).ms());
  metrics.add("latency_ms.h_all", lb.evaluate_layer_with_h(work, activated).ms());
  metrics.add("h_eq6", h_eq6);
  metrics.add("best_h", best_h);
  metrics.add("tuned_alpha", lb.alpha());
  metrics.add("tuned_last_h", lb.last_h());
  metrics.write(args.json_path);
  return 0;
}
