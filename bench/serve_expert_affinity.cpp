// Gating-aware dispatch vs load-only dispatch under Figure-3 expert skew.
//
// Expert-aware serving (serve/expert.hpp) gives every request an
// ExpertProfile -- its top gated experts per MoE layer -- and every replica
// a hot/cold ExpertCache whose misses are priced as interconnect fetches.
// This bench is the acceptance proof for the gating-aware dispatcher:
//
//   1. dispatch policies -- the same skewed stream served by a fleet with
//      expert residency enabled, dispatched by (a) least-outstanding-tokens
//      (the load-only baseline) and (b) expert-affinity (best residency
//      overlap with power-of-two load spill-over). The binary FAILS
//      (non-zero exit) unless expert-affinity beats the baseline on BOTH
//      the fleet expert hit-rate AND TPOT p99 -- the two halves of the
//      claim that routing by gating cuts expert-fetch stalls without
//      wrecking the load balance.
//   2. rebalancing -- the affinity fleet with periodic cross-replica
//      expert rebalancing off vs on: the calendar tick preloads the
//      fleet-wide hottest experts everywhere, priced over the same link.
//   3. degraded mode -- an overloaded fleet with the pruned-expert mode:
//      requests dispatched onto replicas past the outstanding-token
//      threshold are served with a truncated profile (fewer expert
//      fetches, top-1 quality). The binary also FAILS unless pruning on
//      beats pruning off on BOTH tok/s AND TPOT p99. The 512-token
//      threshold wins both at smoke and full size; thresholds of 256 and
//      below lose full-size throughput.
//
//   ./bench/serve_expert_affinity                  full sweep
//   ./bench/serve_expert_affinity --smoke          tiny CI configuration
//   ./bench/serve_expert_affinity --smoke --json f + deterministic metrics
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "serve/arrivals.hpp"
#include "serve/cluster.hpp"

namespace {

/// The figures a section's must-beat gate compares.
struct GatedRun {
  double tokens_per_s = 0.0;
  double hit_rate = 0.0;
  double tpot_p99 = 0.0;
};

GatedRun gated_run(const monde::serve::ClusterReport& rep) {
  return {rep.tokens_per_s, rep.expert_hit_rate, rep.tpot_ms.p99};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace monde;
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  const bool smoke = args.smoke;
  bench::BenchMetrics metrics{"serve_expert_affinity"};

  bench::banner("expert-affinity serving",
                smoke ? "gating-aware vs load-only dispatch (smoke)"
                      : "gating-aware vs load-only dispatch under fig3 skew");

  const core::SystemConfig sys = core::SystemConfig::dac24();
  moe::MoeModelConfig model = moe::MoeModelConfig::switch_variant(512, 16);
  model.encoder_blocks = 4;
  model.decoder_blocks = 4;
  model.moe_every = 2;  // two decoder MoE layers x 16 experts
  // Switch-style top-1 skew: a handful of heavy experts, a warm mid-tier,
  // and a long cold tail (Figure 3's shape). Enough per-request diversity
  // in the top experts that affinity has something to exploit.
  const moe::SkewProfile prof = moe::SkewProfile::switch_like();

  serve::RequestShape shape;
  shape.prompt_min = 16;
  shape.prompt_max = 48;
  shape.new_tokens_min = 4;
  shape.new_tokens_max = 12;

  serve::SchedulerConfig sched;
  sched.token_budget = 128;

  serve::ExpertServingConfig expert;
  expert.enabled = true;
  // Far fewer cache slots than the 32 experts the model routes across, so
  // residency is a scarce resource the dispatcher can actually steward.
  expert.cache_capacity = 8;

  const std::size_t replicas = smoke ? 8 : 32;
  const int requests = smoke ? 600 : 5'000;
  const double rate_per_s = 250.0 * static_cast<double>(replicas);

  // --- 1. Dispatch policies under expert residency ------------------------
  GatedRun baseline, affinity;
  {
    std::printf("--- dispatch: %zu replicas, %d requests, %zu-expert caches ---\n",
                replicas, requests, expert.cache_capacity);
    Table table{{"policy", "tok/s", "hit rate", "TPOT p50 (ms)", "TPOT p99 (ms)",
                 "E2E p95 (ms)", "imbalance"}};
    struct Policy {
      serve::DispatchPolicy policy;
      const char* key;
    };
    for (const Policy p :
         {Policy{serve::DispatchPolicy::kLeastOutstandingTokens, "baseline."},
          Policy{serve::DispatchPolicy::kExpertAffinity, "affinity."}}) {
      serve::ClusterConfig ccfg;
      ccfg.expert = expert;
      ccfg.event_log_enabled = false;
      ccfg.threads = args.threads;
      serve::ClusterSim cluster{
          sys, model, prof,
          serve::uniform_fleet(replicas, core::StrategyKind::kMondeLoadBalanced, sched),
          ccfg};
      const auto dispatcher = serve::make_dispatcher(p.policy, /*seed=*/17);
      const auto stream = serve::poisson_stream(requests, rate_per_s, shape, /*seed=*/7);
      const serve::ClusterReport rep = cluster.run(*stream, *dispatcher);
      table.add_row({dispatcher->name(), Table::num(rep.tokens_per_s, 1),
                     Table::num(100.0 * rep.expert_hit_rate, 1) + "%",
                     Table::num(rep.tpot_ms.p50, 3), Table::num(rep.tpot_ms.p99, 3),
                     Table::num(rep.e2e_ms.p95, 2), Table::num(rep.imbalance, 3)});
      const std::string key{p.key};
      metrics.add(key + "tokens_per_s", rep.tokens_per_s);
      metrics.add(key + "hit_rate", rep.expert_hit_rate);
      metrics.add(key + "tpot_p99_ms", rep.tpot_ms.p99);
      metrics.add(key + "e2e_p95_ms", rep.e2e_ms.p95);
      metrics.add(key + "imbalance", rep.imbalance);
      if (p.policy == serve::DispatchPolicy::kLeastOutstandingTokens) {
        baseline = gated_run(rep);
      } else if (p.policy == serve::DispatchPolicy::kExpertAffinity) {
        affinity = gated_run(rep);
      }
    }
    std::printf("%s\n", table.str().c_str());
  }

  // --- 2. Periodic cross-replica expert rebalancing -----------------------
  {
    std::printf("--- rebalance: affinity dispatch, hot-expert preload tick off vs on ---\n");
    Table table{{"rebalance", "tok/s", "hit rate", "TPOT p99 (ms)", "migrations"}};
    for (const bool on : {false, true}) {
      serve::ClusterConfig ccfg;
      ccfg.expert = expert;
      if (on) ccfg.expert.rebalance_period = Duration::millis(smoke ? 20.0 : 50.0);
      ccfg.event_log_enabled = false;
      ccfg.threads = args.threads;
      serve::ClusterSim cluster{
          sys, model, prof,
          serve::uniform_fleet(replicas, core::StrategyKind::kMondeLoadBalanced, sched),
          ccfg};
      const auto dispatcher =
          serve::make_dispatcher(serve::DispatchPolicy::kExpertAffinity, /*seed=*/17);
      const auto stream = serve::poisson_stream(requests, rate_per_s, shape, /*seed=*/7);
      const serve::ClusterReport rep = cluster.run(*stream, *dispatcher);
      table.add_row({on ? "on" : "off", Table::num(rep.tokens_per_s, 1),
                     Table::num(100.0 * rep.expert_hit_rate, 1) + "%",
                     Table::num(rep.tpot_ms.p99, 3), std::to_string(rep.expert_migrations)});
      const std::string key = on ? "rebalance.on." : "rebalance.off.";
      metrics.add(key + "hit_rate", rep.expert_hit_rate);
      metrics.add(key + "tpot_p99_ms", rep.tpot_ms.p99);
      metrics.add(key + "expert_migrations", static_cast<double>(rep.expert_migrations));
    }
    std::printf("%s\n", table.str().c_str());
  }

  // --- 3. Pruned-expert degraded mode under overload ----------------------
  GatedRun full_profiles, pruned;
  {
    std::printf("--- overload: prune profiles dispatched onto backed-up replicas ---\n");
    // A small fleet driven well past capacity, so outstanding tokens pile up
    // and the prune threshold actually trips.
    const std::size_t orep = smoke ? 2 : 4;
    const int oreq = smoke ? 200 : 1'000;
    const double orate = 2'000.0 * static_cast<double>(orep);
    Table table{{"degraded mode", "tok/s", "hit rate", "TPOT p99 (ms)", "pruned"}};
    for (const bool on : {false, true}) {
      serve::ClusterConfig ccfg;
      ccfg.expert = expert;
      if (on) ccfg.expert.prune_outstanding_tokens = 512;
      ccfg.event_log_enabled = false;
      ccfg.threads = args.threads;
      serve::ClusterSim cluster{
          sys, model, prof,
          serve::uniform_fleet(orep, core::StrategyKind::kMondeLoadBalanced, sched), ccfg};
      const auto dispatcher =
          serve::make_dispatcher(serve::DispatchPolicy::kExpertAffinity, /*seed=*/17);
      const auto stream = serve::poisson_stream(oreq, orate, shape, /*seed=*/7);
      const serve::ClusterReport rep = cluster.run(*stream, *dispatcher);
      table.add_row({on ? "prune to top-1" : "full profiles",
                     Table::num(rep.tokens_per_s, 1),
                     Table::num(100.0 * rep.expert_hit_rate, 1) + "%",
                     Table::num(rep.tpot_ms.p99, 3), std::to_string(rep.pruned_requests)});
      const std::string key = on ? "prune.on." : "prune.off.";
      metrics.add(key + "tokens_per_s", rep.tokens_per_s);
      metrics.add(key + "tpot_p99_ms", rep.tpot_ms.p99);
      metrics.add(key + "pruned_requests", static_cast<double>(rep.pruned_requests));
      (on ? pruned : full_profiles) = gated_run(rep);
    }
    std::printf("%s\n", table.str().c_str());
  }

  std::printf("Routing by gating overlap keeps each replica's small expert cache hot for\n"
              "the requests it serves, so the fetch bill -- and the TPOT tail it inflates\n"
              "-- drops below what any load-only policy achieves under the same skew.\n");

  metrics.write(args.json_path);

  // The acceptance gates this bench exists for: gating-aware dispatch must
  // beat the load-only baseline on residency AND on the decode tail, and
  // the degraded mode must beat full profiles on throughput AND the tail.
  bool failed = false;
  if (affinity.hit_rate <= baseline.hit_rate) {
    std::printf("FAIL: affinity hit rate (%.1f%%) did not beat baseline (%.1f%%)\n",
                100.0 * affinity.hit_rate, 100.0 * baseline.hit_rate);
    failed = true;
  }
  if (affinity.tpot_p99 >= baseline.tpot_p99) {
    std::printf("FAIL: affinity TPOT p99 (%.3f ms) did not beat baseline (%.3f ms)\n",
                affinity.tpot_p99, baseline.tpot_p99);
    failed = true;
  }
  if (pruned.tokens_per_s <= full_profiles.tokens_per_s) {
    std::printf("FAIL: pruned tok/s (%.1f) did not beat full profiles (%.1f)\n",
                pruned.tokens_per_s, full_profiles.tokens_per_s);
    failed = true;
  }
  if (pruned.tpot_p99 >= full_profiles.tpot_p99) {
    std::printf("FAIL: pruned TPOT p99 (%.3f ms) did not beat full profiles (%.3f ms)\n",
                pruned.tpot_p99, full_profiles.tpot_p99);
    failed = true;
  }
  if (failed) return 1;
  std::printf("affinity hit rate %.1f%% > baseline %.1f%%; TPOT p99 %.3f ms < %.3f ms\n",
              100.0 * affinity.hit_rate, 100.0 * baseline.hit_rate, affinity.tpot_p99,
              baseline.tpot_p99);
  std::printf("pruned tok/s %.1f > full profiles %.1f; TPOT p99 %.3f ms < %.3f ms\n",
              pruned.tokens_per_s, full_profiles.tokens_per_s, pruned.tpot_p99,
              full_profiles.tpot_p99);
  return 0;
}
