// Dispatch-policy comparison for multi-replica cluster serving.
//
// Replays the same Poisson and bursty request traces through fleets of
// MoNDE (MD+LB) replica servers at several replica counts, once per
// dispatch policy, and reports fleet tokens/s, TTFT/E2E tail percentiles,
// and the busy-time imbalance factor. The load-aware policies (JSQ, least
// -outstanding-tokens, power-of-two) should separate from round-robin most
// under bursty traffic, where replicas hold uneven backlogs.
//
// Two must-beat sections make opt-in mechanisms pay for their code. They
// run on the smoke model and step budget in both modes (the configuration
// their gates were measured on), and the binary FAILS (non-zero exit) when
// either loses:
//   * slow replica  -- one of four replicas runs 4x slow for the whole run;
//     the slow-replica filter (HealthConfig::slow_ewma_factor = 2) must
//     beat filter-free dispatch on E2E p99 under both least-outstanding
//     -tokens and power-of-two dispatch;
//   * size-aware admission -- a bimodal trace (1/4 long, 3/4 short
//     requests) at a rate where replica queues form; fewest-remaining
//     -tokens admission (SchedulerConfig::size_aware_admission) must cut
//     TTFT p50 at least 2x versus FIFO while keeping TTFT p99 within 1.5x.
//
//   ./bench/serve_cluster_policies                    full sweep
//   ./bench/serve_cluster_policies --smoke            tiny CI configuration
//   ./bench/serve_cluster_policies --smoke --json f   + deterministic metrics
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "serve/arrivals.hpp"
#include "serve/cluster.hpp"

namespace {

using namespace monde;

moe::MoeModelConfig fleet_model(bool smoke) {
  moe::MoeModelConfig model =
      moe::MoeModelConfig::switch_variant(smoke ? 512 : 768, smoke ? 16 : 64);
  model.encoder_blocks = smoke ? 4 : 8;
  model.decoder_blocks = smoke ? 4 : 8;
  model.moe_every = 2;
  return model;
}

serve::RequestShape request_shape(bool smoke) {
  serve::RequestShape shape;
  shape.prompt_min = 16;
  shape.prompt_max = smoke ? 48 : 192;
  shape.new_tokens_min = 2;
  shape.new_tokens_max = smoke ? 8 : 24;
  return shape;
}

serve::SchedulerConfig scheduler(bool smoke) {
  serve::SchedulerConfig cfg;
  cfg.token_budget = smoke ? 128 : 256;
  return cfg;
}

/// Must-beat 1: the slow-replica filter. Queue-length signals cannot see
/// that the last replica drains 4x slower, so load-only dispatch keeps
/// feeding it whenever its queue looks short; its step EWMA gives it away.
/// False when the filter loses on E2E p99 under either policy.
bool slow_replica_section(const core::SystemConfig& sys, const serve::ClusterConfig& ccfg,
                          bench::BenchMetrics& metrics) {
  const moe::MoeModelConfig model = fleet_model(/*smoke=*/true);
  std::vector<serve::ReplicaSpec> specs =
      serve::uniform_fleet(4, core::StrategyKind::kMondeLoadBalanced, scheduler(/*smoke=*/true));
  specs.back().fault.slow_until = Duration::infinite();
  specs.back().fault.slow_factor = 4.0;
  const auto trace = serve::poisson_trace(96, 120.0, request_shape(/*smoke=*/true), /*seed=*/7);
  std::printf("--- slow replica: 4x MD+LB, replica 3 slowed 4x for the whole run, "
              "96 requests at 120 req/s ---\n");
  Table table{{"policy", "E2E p99 no filter (ms)", "E2E p99 filter (ms)", "gain"}};
  bool ok = true;
  for (const serve::DispatchPolicy policy : {serve::DispatchPolicy::kLeastOutstandingTokens,
                                             serve::DispatchPolicy::kPowerOfTwoChoices}) {
    std::string name;
    double p99[2] = {0.0, 0.0};
    for (const bool filter : {false, true}) {
      serve::ClusterConfig run_cfg = ccfg;
      if (filter) run_cfg.health.slow_ewma_factor = 2.0;
      serve::ClusterSim cluster{sys, model, bench::profile_for(model), specs, run_cfg};
      const auto dispatcher = serve::make_dispatcher(policy, /*seed=*/17);
      const serve::ClusterReport rep = cluster.run(trace, *dispatcher);
      name = rep.policy;
      p99[filter] = rep.e2e_ms.p99;
      metrics.add("slow_replica." + name + (filter ? ".filter" : ".no_filter") +
                      ".e2e_p99_ms",
                  rep.e2e_ms.p99);
    }
    table.add_row({name, Table::num(p99[0], 2), Table::num(p99[1], 2),
                   Table::num(p99[0] / p99[1], 2) + "x"});
    if (p99[1] >= p99[0]) {
      std::printf("FAIL: %s with the slow-replica filter: E2E p99 %.2f ms did not beat "
                  "%.2f ms without it\n",
                  name.c_str(), p99[1], p99[0]);
      ok = false;
    }
  }
  std::printf("%s\n", table.str().c_str());
  return ok;
}

/// Must-beat 2: size-aware admission. Long prompts at the head of a FIFO
/// queue hold every short request behind them; fewest-remaining-tokens
/// first lets the shorts through. The rate is high enough for queues to
/// form -- at light load both orders admit the same requests. False when
/// TTFT p50 is not at least 2x better or TTFT p99 exceeds 1.5x FIFO's.
bool size_aware_section(const core::SystemConfig& sys, const serve::ClusterConfig& ccfg,
                        bench::BenchMetrics& metrics) {
  const moe::MoeModelConfig model = fleet_model(/*smoke=*/true);
  serve::RequestShape long_shape;
  long_shape.prompt_min = 128;
  long_shape.prompt_max = 256;
  long_shape.new_tokens_min = 16;
  long_shape.new_tokens_max = 32;
  serve::RequestShape short_shape;
  short_shape.prompt_min = 8;
  short_shape.prompt_max = 32;
  short_shape.new_tokens_min = 2;
  short_shape.new_tokens_max = 8;
  const auto trace =
      bench::merge_traces(serve::poisson_trace(24, 120.0, long_shape, /*seed=*/7),
                          serve::poisson_trace(72, 360.0, short_shape, /*seed=*/8));
  std::printf("--- size-aware admission: 4x MD+LB, least-outstanding-tokens, 24 long + "
              "72 short requests at 480 req/s ---\n");
  Table table{{"admission", "TTFT p50 (ms)", "TTFT p99 (ms)", "E2E p99 (ms)"}};
  double p50[2] = {0.0, 0.0};
  double p99[2] = {0.0, 0.0};
  for (const bool size_aware : {false, true}) {
    serve::SchedulerConfig cfg = scheduler(/*smoke=*/true);
    cfg.size_aware_admission = size_aware;
    serve::ClusterSim cluster{sys, model, bench::profile_for(model),
                              serve::uniform_fleet(4, core::StrategyKind::kMondeLoadBalanced, cfg),
                              ccfg};
    const auto dispatcher =
        serve::make_dispatcher(serve::DispatchPolicy::kLeastOutstandingTokens, /*seed=*/17);
    const serve::ClusterReport rep = cluster.run(trace, *dispatcher);
    p50[size_aware] = rep.ttft_ms.p50;
    p99[size_aware] = rep.ttft_ms.p99;
    table.add_row({size_aware ? "size-aware" : "FIFO", Table::num(rep.ttft_ms.p50, 2),
                   Table::num(rep.ttft_ms.p99, 2), Table::num(rep.e2e_ms.p99, 2)});
    const std::string key = size_aware ? "admission.size_aware." : "admission.fifo.";
    metrics.add(key + "ttft_p50_ms", rep.ttft_ms.p50);
    metrics.add(key + "ttft_p99_ms", rep.ttft_ms.p99);
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("size-aware vs FIFO: TTFT p50 %.2fx better (gate >= 2x), TTFT p99 %.2fx "
              "FIFO's (gate <= 1.5x)\n",
              p50[0] / p50[1], p99[1] / p99[0]);
  if (p50[0] < 2.0 * p50[1] || p99[1] > 1.5 * p99[0]) {
    std::printf("FAIL: size-aware admission missed its TTFT gate\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  const bool smoke = args.smoke;
  bench::BenchMetrics metrics{"serve_cluster_policies"};

  bench::banner("cluster serving",
                smoke ? "dispatch policies, smoke configuration"
                      : "dispatch policies under Poisson and bursty traffic");

  const core::SystemConfig sys = core::SystemConfig::dac24();
  const moe::MoeModelConfig model = fleet_model(smoke);
  const moe::SkewProfile prof = bench::profile_for(model);
  const serve::RequestShape shape = request_shape(smoke);

  const int requests = smoke ? 12 : 64;
  const std::vector<std::size_t> replica_counts = smoke ? std::vector<std::size_t>{2}
                                                        : std::vector<std::size_t>{2, 4, 8};

  const serve::SchedulerConfig cfg = scheduler(smoke);

  serve::ClusterConfig ccfg;
  ccfg.threads = args.threads;  // bit-identical results; only wall-clock moves

  struct TraceCase {
    std::string name;
    std::vector<serve::Request> trace;
  };
  const std::vector<TraceCase> cases{
      {"poisson", serve::poisson_trace(requests, smoke ? 60.0 : 120.0, shape, /*seed=*/7)},
      {"bursty", serve::bursty_trace(requests, /*burst_size=*/8,
                                     Duration::millis(smoke ? 20.0 : 25.0), shape,
                                     /*seed=*/13)},
  };

  for (const TraceCase& tc : cases) {
    std::printf("--- %s trace, homogeneous MD+LB fleet: %d requests ---\n", tc.name.c_str(),
                requests);
    Table table{{"replicas", "policy", "tok/s", "TTFT p50 (ms)", "TTFT p95 (ms)",
                 "E2E p95 (ms)", "imbalance"}};
    for (const std::size_t n : replica_counts) {
      for (const serve::DispatchPolicy policy : serve::all_dispatch_policies()) {
        serve::ClusterSim cluster{
            sys, model, prof,
            serve::uniform_fleet(n, core::StrategyKind::kMondeLoadBalanced, cfg), ccfg};
        const auto dispatcher = serve::make_dispatcher(policy, /*seed=*/17);
        const serve::ClusterReport rep = cluster.run(tc.trace, *dispatcher);
        table.add_row({std::to_string(n), rep.policy, Table::num(rep.tokens_per_s, 1),
                       Table::num(rep.ttft_ms.p50, 2), Table::num(rep.ttft_ms.p95, 2),
                       Table::num(rep.e2e_ms.p95, 2), Table::num(rep.imbalance, 2)});
        const std::string key = tc.name + ".r" + std::to_string(n) + "." + rep.policy;
        metrics.add(key + ".tokens_per_s", rep.tokens_per_s);
        metrics.add(key + ".e2e_p95_ms", rep.e2e_ms.p95);
      }
    }
    std::printf("%s\n", table.str().c_str());
  }

  // Where dispatch policy really matters: an asymmetric fleet. Three full
  // -budget MD+LB replicas plus one capacity-limited GPU+PM replica; round
  // -robin keeps feeding the weak replica its full share.
  {
    serve::SchedulerConfig weak = cfg;
    weak.token_budget = smoke ? 24 : 48;
    std::vector<serve::ReplicaSpec> specs;
    specs.push_back({core::StrategyKind::kMondeLoadBalanced, cfg, 1, {}});
    specs.push_back({core::StrategyKind::kMondeLoadBalanced, cfg, 2, {}});
    specs.push_back({core::StrategyKind::kMondeLoadBalanced, cfg, 3, {}});
    specs.push_back({core::StrategyKind::kGpuPmove, weak, 4, {}});
    std::printf("--- bursty trace, heterogeneous fleet (3x MD+LB + 1 weak GPU+PM) ---\n");
    // Moderate load: the strong replicas drain between bursts, so the weak
    // replica's persistent backlog is what the queue snapshots expose.
    const auto hetero_trace = serve::bursty_trace(
        requests, /*burst_size=*/8, Duration::millis(smoke ? 20.0 : 60.0), shape,
        /*seed=*/13);
    Table table{{"policy", "tok/s", "TTFT p50 (ms)", "TTFT p95 (ms)", "E2E p95 (ms)",
                 "weak-replica share", "imbalance"}};
    for (const serve::DispatchPolicy policy : serve::all_dispatch_policies()) {
      serve::ClusterSim cluster{sys, model, prof, specs, ccfg};
      const auto dispatcher = serve::make_dispatcher(policy, /*seed=*/17);
      const serve::ClusterReport rep = cluster.run(hetero_trace, *dispatcher);
      const double share = static_cast<double>(rep.replicas.back().dispatched) /
                           static_cast<double>(rep.requests.size());
      table.add_row({rep.policy, Table::num(rep.tokens_per_s, 1),
                     Table::num(rep.ttft_ms.p50, 2), Table::num(rep.ttft_ms.p95, 2),
                     Table::num(rep.e2e_ms.p95, 2), Table::num(100.0 * share, 1) + "%",
                     Table::num(rep.imbalance, 2)});
      const std::string key = "hetero." + rep.policy;
      metrics.add(key + ".tokens_per_s", rep.tokens_per_s);
      metrics.add(key + ".ttft_p95_ms", rep.ttft_ms.p95);
      metrics.add(key + ".e2e_p95_ms", rep.e2e_ms.p95);
    }
    std::printf("%s\n", table.str().c_str());
  }

  std::printf("On a homogeneous fleet with evenly split bursts the four policies make\n"
              "near-identical choices. The asymmetric fleet is where load-awareness\n"
              "can pay. In the full run round-robin keeps handing the weak replica its\n"
              "full share and its queue dominates the TTFT tail; least-outstanding-\n"
              "tokens sends it the fewest requests and more than doubles round-robin's\n"
              "tok/s. Join-shortest-queue and power-of-two-choices compare requests in\n"
              "flight, not tokens owed, and recover only a small part of that gain.\n"
              "The --smoke trace is too short to separate the policies: there,\n"
              "round-robin has the best tok/s.\n\n");

  // Both must-beat sections run, so a failing run still prints every margin.
  const bool slow_ok = slow_replica_section(sys, ccfg, metrics);
  const bool size_ok = size_aware_section(sys, ccfg, metrics);
  metrics.write(args.json_path);
  return slow_ok && size_ok ? 0 : 1;
}