// Capacity planner: which MoE configurations need expert offloading, and
// what serving them costs under each placement.
//
// For a sweep of backbone sizes and expert counts, reports the parameter
// footprint (Figure 2(a) analytics), whether the model fits in one GPU, and
// the simulated encoder throughput of GPU+PM vs MD+LB when it does not --
// i.e., the decision table a deployment engineer would want.
//
//   ./examples/capacity_planner
#include <cstdio>
#include <iostream>

#include "analysis/footprint.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"

int main() {
  using namespace monde;

  const core::SystemConfig sys = core::SystemConfig::dac24();
  const double gpu_gb = core::kGpu.memory_capacity.as_gb();
  std::printf("planning for 1x %s (%.0f GB) + MoNDE device (%s)\n\n", core::kGpu.name.c_str(),
              gpu_gb, sys.monde_mem.org.total_capacity().str().c_str());

  Table t{{"model", "params (GB)", "fits GPU?", "GPU+PM enc tok/s", "MD+LB enc tok/s",
           "MoNDE speedup"}};

  for (const std::int64_t dmodel : {std::int64_t{768}, std::int64_t{1024},
                                    std::int64_t{2048}}) {
    for (const std::int64_t experts : {std::int64_t{32}, std::int64_t{128}}) {
      moe::MoeModelConfig model = moe::MoeModelConfig::switch_variant(dmodel, experts);
      const auto fp = analysis::footprint(model);
      const double total_gb = fp.total().as_gb();
      const bool fits = total_gb <= gpu_gb * 0.9;  // leave headroom for activations

      std::string pm_cell = "-", lb_cell = "-", speedup = "(resident)";
      if (!fits) {
        const auto prof = moe::SkewProfile::switch_like();
        auto sim = std::make_shared<ndp::NdpCoreSim>(sys.ndp, sys.monde_mem);
        core::InferenceEngine pm{sys, model, prof, core::StrategyKind::kGpuPmove, 42, sim};
        core::InferenceEngine lb{sys, model, prof, core::StrategyKind::kMondeLoadBalanced,
                                 42, sim};
        const double t_pm = pm.run_encoder(4, 512).throughput_tokens_per_s();
        const double t_lb = lb.run_encoder(4, 512).throughput_tokens_per_s();
        pm_cell = Table::num(t_pm, 0);
        lb_cell = Table::num(t_lb, 0);
        speedup = Table::num(t_lb / t_pm, 1) + "x";
      }
      t.add_row({model.name, Table::num(total_gb, 1), fits ? "yes" : "no", pm_cell, lb_cell,
                 speedup});
    }
  }
  t.print(std::cout);
  std::printf("\nmodels that spill out of GPU memory are exactly where near-data expert\n"
              "offloading pays: the bigger the spill, the bigger the MoNDE speedup.\n");
  return 0;
}
