// Elastic, failure-aware cluster walk-through: autoscaling against a bursty
// trace while a replica fail-stops mid-run.
//
// Starts a two-replica MD+LB fleet with a queue-pressure autoscaler (min 1,
// max 5, modelled cold start) behind least-outstanding-tokens dispatch, and
// injects a fail-stop into replica 1 partway through the trace. The run
// demonstrates the full failure path: the dispatcher keeps feeding the dead
// replica until its heartbeat goes stale, the stranded requests are
// harvested and retried on healthy replicas, and the autoscaler replaces
// the lost capacity. Prints the scaling/failure event timeline, per-replica
// lifecycles, and fleet metrics. See docs/ARCHITECTURE.md for the model.
//
//   ./examples/elastic_cluster
#include <cstdio>

#include "serve/arrivals.hpp"
#include "serve/cluster.hpp"

int main() {
  using namespace monde;

  const core::SystemConfig sys = core::SystemConfig::dac24();
  moe::MoeModelConfig model = moe::MoeModelConfig::switch_variant(768, 64);
  model.encoder_blocks = 8;
  model.decoder_blocks = 8;
  model.moe_every = 2;

  serve::SchedulerConfig sched;
  sched.token_budget = 256;

  // Two boot replicas; replica 1 will fail-stop 60 ms in.
  std::vector<serve::ReplicaSpec> specs;
  specs.push_back({core::StrategyKind::kMondeLoadBalanced, sched, /*seed=*/1, {}});
  serve::FaultSpec fault;
  fault.fail_at = Duration::millis(60);
  specs.push_back({core::StrategyKind::kMondeLoadBalanced, sched, /*seed=*/2, fault});

  serve::ClusterConfig cfg;
  cfg.warmup = Duration::millis(15);  // expert placement on the new node
  cfg.autoscale_period = Duration::millis(5);
  serve::ClusterSim cluster{sys, model, moe::SkewProfile::nllb_like(), specs, cfg};

  serve::RequestShape shape;
  shape.prompt_min = 64;
  shape.prompt_max = 192;
  shape.new_tokens_min = 8;
  shape.new_tokens_max = 24;
  const auto trace = serve::bursty_trace(48, /*burst_size=*/12, Duration::millis(35), shape,
                                         /*seed=*/5);

  serve::AutoscaleConfig as;
  as.min_replicas = 1;
  as.max_replicas = 5;
  as.high_tokens_per_replica = 384;
  as.low_tokens_per_replica = 48;
  as.high_queue_delay_ms = 20.0;
  const auto autoscaler = serve::make_queue_pressure_autoscaler(as);
  const auto dispatcher =
      serve::make_dispatcher(serve::DispatchPolicy::kLeastOutstandingTokens);

  const serve::ClusterReport rep = cluster.run(trace, *dispatcher, autoscaler.get());

  std::printf("served %zu requests under %s dispatch + %s autoscaling\n\n",
              rep.requests.size(), rep.policy.c_str(), rep.autoscaler.c_str());

  std::printf("event timeline:\n");
  for (const serve::ClusterEvent& ev : rep.events) {
    std::printf("  %10s  %-16s %s\n", ev.time.str().c_str(),
                serve::to_string(ev.kind).c_str(), ev.detail.c_str());
  }

  std::printf("\n  %-26s %9s %10s %10s %12s  %s\n", "replica", "requests", "spawned",
              "alive", "utilization", "fate");
  for (const serve::ReplicaReport& rr : rep.replicas) {
    const char* fate = rr.failed ? "failed" : rr.retired ? "retired" : "healthy";
    std::printf("  %-26s %9zu %10s %10s %11.1f%%  %s\n", rr.name.c_str(), rr.dispatched,
                rr.spawned_at.str().c_str(), (rr.alive_until - rr.spawned_at).str().c_str(),
                100.0 * rr.utilization, fate);
  }

  std::printf("\nfleet: %llu tokens in %s -> %.1f tok/s\n",
              static_cast<unsigned long long>(rep.generated_tokens),
              rep.makespan.str().c_str(), rep.tokens_per_s);
  std::printf("peak replicas %zu, %.3f replica-seconds provisioned, fleet util %.1f%%, "
              "%zu retries\n",
              rep.peak_replicas, rep.replica_seconds, 100.0 * rep.fleet_utilization,
              rep.retries);
  std::printf("TTFT ms p50/p95/p99: %.2f / %.2f / %.2f\n", rep.ttft_ms.p50, rep.ttft_ms.p95,
              rep.ttft_ms.p99);
  std::printf("E2E  ms p50/p95/p99: %.2f / %.2f / %.2f\n", rep.e2e_ms.p50, rep.e2e_ms.p95,
              rep.e2e_ms.p99);
  std::printf("\nEvery request completed even though a replica died mid-run: requests\n"
              "stranded on the dead node were detected via stale heartbeats, re-\n"
              "dispatched after the retry timeout, and served by the survivors while\n"
              "the autoscaler grew the fleet against the burst backlog -- the retry\n"
              "and cold-start costs land in the tail percentiles above.\n");
  return 0;
}
