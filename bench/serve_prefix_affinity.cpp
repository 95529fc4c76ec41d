// Prefix-locality dispatch vs load-only dispatch on a multi-tenant trace.
//
// The serving-side MoNDE argument: state that is already resident should
// attract the work, not the other way around. At fleet scale the resident
// state is the KV prefix cache (serve/kvcache.hpp) -- a request whose
// shared prefix is hot on replica 3 pays a full prefill if dispatch lands
// it on replica 7. This bench is the acceptance proof for the
// prefix-locality dispatcher (serve/dispatch.hpp):
//
//   1. dispatch policies -- a Zipf-skewed multi-tenant trace (a few heavy
//      tenants, a long tail; every tenant a shared-prefix group) served by
//      a fleet whose per-replica cache holds only a handful of prefixes,
//      dispatched by (a) least-outstanding-tokens (the load-only
//      baseline) and (b) prefix-affinity (power-of-two choices among
//      resident prefix-holders, with bounded-load spill-over). The binary
//      FAILS (non-zero exit) unless prefix-affinity beats the baseline on
//      BOTH the cached-token rate AND p99 E2E -- locality must pay for
//      itself at the tail, not just in the hit counter.
//   2. fleet churn -- the same head-to-head under autoscaling: spawns and
//      retirements reshuffle membership and migrate work (with its KV) off
//      retirees. Affinity reads where each prefix is resident after every
//      such move, so it keeps the cached-token rate up where the load-only
//      baseline scatters every group across the churned fleet.
//
//   ./bench/serve_prefix_affinity                  full sweep
//   ./bench/serve_prefix_affinity --smoke          tiny CI configuration
//   ./bench/serve_prefix_affinity --smoke --json f + deterministic metrics
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "serve/arrivals.hpp"
#include "serve/cluster.hpp"

namespace {

struct PolicyRun {
  double cached_rate = 0.0;
  double e2e_p99 = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace monde;
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  const bool smoke = args.smoke;
  bench::BenchMetrics metrics{"serve_prefix_affinity"};

  bench::banner("prefix-affinity serving",
                smoke ? "prefix-locality vs load-only dispatch (smoke)"
                      : "prefix-locality vs load-only dispatch, multi-tenant trace");

  const core::SystemConfig sys = core::SystemConfig::dac24();
  moe::MoeModelConfig model = moe::MoeModelConfig::switch_variant(512, 16);
  model.encoder_blocks = 4;
  model.decoder_blocks = 4;
  model.moe_every = 2;
  const moe::SkewProfile prof = moe::SkewProfile::switch_like();

  const std::size_t replicas = smoke ? 8 : 16;
  const int requests = smoke ? 800 : 6'000;
  const double rate_per_s = 150.0 * static_cast<double>(replicas);

  // Multi-tenant shape: most of every prompt IS its tenant's shared system
  // prefix, tenant popularity is Zipf-skewed, and there are several times
  // more tenants than any single replica's cache can retain -- so WHERE a
  // request lands decides whether its prefill is served from residency.
  serve::RequestShape shape;
  shape.prompt_min = 96;
  shape.prompt_max = 160;
  shape.new_tokens_min = 4;
  shape.new_tokens_max = 12;
  shape.prefix_groups = static_cast<int>(replicas) * 3;
  shape.shared_fraction = 0.9;
  shape.shared_prefix_len = 64;
  shape.prefix_zipf_s = 0.8;

  serve::SchedulerConfig sched;
  sched.token_budget = 128;

  serve::PrefixCacheConfig cache;
  cache.enabled = true;
  // Room for the pinned in-flight state plus only a handful of retained
  // 64-token prefixes: residency is scarce, so scattering a tenant across
  // the fleet evicts faster than it reuses.
  cache.capacity_tokens = 1024;

  // The same materialized trace drives every policy; its total prompt
  // tokens turn the report's cached_prefill_tokens into a rate.
  const std::vector<serve::Request> trace = [&] {
    const auto stream = serve::poisson_stream(requests, rate_per_s, shape, /*seed=*/7);
    return serve::materialize(*stream);
  }();
  std::int64_t total_prompt_tokens = 0;
  for (const serve::Request& rq : trace) total_prompt_tokens += rq.prompt_len;

  struct Policy {
    serve::DispatchPolicy policy;
    const char* key;
  };
  const Policy kPolicies[] = {
      {serve::DispatchPolicy::kLeastOutstandingTokens, "baseline."},
      {serve::DispatchPolicy::kPrefixAffinity, "affinity."},
  };

  // --- 1. Dispatch policies on the multi-tenant trace ----------------------
  PolicyRun baseline, affinity;
  {
    std::printf(
        "--- dispatch: %zu replicas, %d requests, %d tenants, %lld-token caches ---\n",
        replicas, requests, shape.prefix_groups,
        static_cast<long long>(cache.capacity_tokens));
    Table table{{"policy", "tok/s", "cached rate", "TTFT p95 (ms)", "E2E p50 (ms)",
                 "E2E p99 (ms)", "imbalance"}};
    for (const Policy p : kPolicies) {
      serve::ClusterConfig ccfg;
      ccfg.cache = cache;
      ccfg.event_log_enabled = false;
      ccfg.threads = args.threads;
      serve::ClusterSim cluster{
          sys, model, prof,
          serve::uniform_fleet(replicas, core::StrategyKind::kMondeLoadBalanced, sched),
          ccfg};
      const auto dispatcher = serve::make_dispatcher(p.policy, /*seed=*/17);
      serve::TraceArrivalStream stream{trace};
      const serve::ClusterReport rep = cluster.run(stream, *dispatcher);
      const double cached_rate = static_cast<double>(rep.cached_prefill_tokens) /
                                 static_cast<double>(total_prompt_tokens);
      table.add_row({dispatcher->name(), Table::num(rep.tokens_per_s, 1),
                     Table::num(100.0 * cached_rate, 1) + "%",
                     Table::num(rep.ttft_ms.p95, 2), Table::num(rep.e2e_ms.p50, 2),
                     Table::num(rep.e2e_ms.p99, 2), Table::num(rep.imbalance, 3)});
      const std::string key{p.key};
      metrics.add(key + "tokens_per_s", rep.tokens_per_s);
      metrics.add(key + "cached_rate", cached_rate);
      metrics.add(key + "e2e_p99_ms", rep.e2e_ms.p99);
      metrics.add(key + "ttft_p95_ms", rep.ttft_ms.p95);
      metrics.add(key + "imbalance", rep.imbalance);
      if (p.policy == serve::DispatchPolicy::kLeastOutstandingTokens) {
        baseline = {cached_rate, rep.e2e_ms.p99};
      } else if (p.policy == serve::DispatchPolicy::kPrefixAffinity) {
        affinity = {cached_rate, rep.e2e_ms.p99};
      }
    }
    std::printf("%s\n", table.str().c_str());
  }

  // --- 2. Fleet churn: residency under autoscale spawns/retirements ---------
  {
    std::printf("--- churn: bursty load, autoscaled fleet (spawns + retirements) ---\n");
    serve::RequestShape churn_shape = shape;
    const int churn_requests = smoke ? 400 : 3'000;
    const auto churn_trace = [&] {
      const auto stream = serve::bursty_stream(
          churn_requests, /*burst_size=*/smoke ? 40 : 150,
          Duration::millis(60.0), churn_shape, /*seed=*/7);
      return serve::materialize(*stream);
    }();
    std::int64_t churn_prompt_tokens = 0;
    for (const serve::Request& rq : churn_trace) churn_prompt_tokens += rq.prompt_len;
    Table table{{"policy", "cached rate", "E2E p99 (ms)", "peak replicas",
                 "replica-s"}};
    for (const Policy p : kPolicies) {
      serve::ClusterConfig ccfg;
      ccfg.cache = cache;
      ccfg.cache.migrate_on_retire = true;  // retirements hand work (and KV) over
      ccfg.event_log_enabled = false;
      ccfg.threads = args.threads;
      ccfg.warmup = Duration::millis(5.0);
      ccfg.autoscale_period = Duration::millis(10.0);
      serve::AutoscaleConfig acfg;
      acfg.min_replicas = replicas / 2;
      acfg.max_replicas = replicas * 2;
      acfg.high_tokens_per_replica = 256;
      acfg.low_tokens_per_replica = 32;
      const auto autoscaler = serve::make_queue_pressure_autoscaler(acfg);
      serve::ClusterSim cluster{
          sys, model, prof,
          serve::uniform_fleet(replicas / 2, core::StrategyKind::kMondeLoadBalanced,
                               sched),
          ccfg};
      const auto dispatcher = serve::make_dispatcher(p.policy, /*seed=*/17);
      serve::TraceArrivalStream stream{churn_trace};
      const serve::ClusterReport rep = cluster.run(stream, *dispatcher, autoscaler.get());
      const double cached_rate = static_cast<double>(rep.cached_prefill_tokens) /
                                 static_cast<double>(churn_prompt_tokens);
      table.add_row({dispatcher->name(), Table::num(100.0 * cached_rate, 1) + "%",
                     Table::num(rep.e2e_ms.p99, 2), std::to_string(rep.peak_replicas),
                     Table::num(rep.replica_seconds, 2)});
      const std::string key = std::string{"churn."} + p.key;
      metrics.add(key + "cached_rate", cached_rate);
      metrics.add(key + "e2e_p99_ms", rep.e2e_ms.p99);
      metrics.add(key + "peak_replicas", static_cast<double>(rep.peak_replicas));
    }
    std::printf("%s\n", table.str().c_str());
  }

  std::printf("Routing a tenant's requests to the replica already holding its shared\n"
              "prefix turns most prefills into cache hits; the saved prefill work\n"
              "shortens queues fleet-wide, so the E2E tail drops with it.\n");

  metrics.write(args.json_path);

  // The acceptance gate this bench exists for: prefix-locality dispatch must
  // beat the load-only baseline on residency reuse AND on the E2E tail.
  bool failed = false;
  if (affinity.cached_rate <= baseline.cached_rate) {
    std::printf("FAIL: affinity cached-token rate (%.1f%%) did not beat baseline (%.1f%%)\n",
                100.0 * affinity.cached_rate, 100.0 * baseline.cached_rate);
    failed = true;
  }
  if (affinity.e2e_p99 >= baseline.e2e_p99) {
    std::printf("FAIL: affinity E2E p99 (%.2f ms) did not beat baseline (%.2f ms)\n",
                affinity.e2e_p99, baseline.e2e_p99);
    failed = true;
  }
  if (failed) return 1;
  std::printf("affinity cached rate %.1f%% > baseline %.1f%%; E2E p99 %.2f ms < %.2f ms\n",
              100.0 * affinity.cached_rate, 100.0 * baseline.cached_rate,
              affinity.e2e_p99, baseline.e2e_p99);
  return 0;
}
