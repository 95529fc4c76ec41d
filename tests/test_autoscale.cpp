// Unit tests for the elastic cluster layer: the queue-pressure autoscaling
// policy, warm-up (cold-start) modelling, scale-down, alive-time-weighted
// utilization, and determinism of autoscaled runs.
#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "serve/arrivals.hpp"
#include "serve/cluster.hpp"

namespace monde::serve {
namespace {

/// A small MoE model that keeps cycle-level simulations fast.
moe::MoeModelConfig tiny_model() {
  moe::MoeModelConfig m = moe::MoeModelConfig::switch_variant(512, 16);
  m.encoder_blocks = 4;
  m.decoder_blocks = 4;
  m.moe_every = 2;
  m.vocab_size = 8192;
  m.top_k = 2;
  m.name = "tiny-test-model";
  return m;
}

RequestShape small_shape() {
  RequestShape s;
  s.prompt_min = 16;
  s.prompt_max = 48;
  s.new_tokens_min = 2;
  s.new_tokens_max = 8;
  return s;
}

AutoscaleConfig test_policy() {
  AutoscaleConfig as;
  as.min_replicas = 1;
  as.max_replicas = 4;
  as.high_tokens_per_replica = 64;
  as.low_tokens_per_replica = 8;
  return as;
}

AutoscaleSignals signals(std::size_t ready, std::size_t warming, std::int64_t tokens,
                         double p95_delay_ms = 0.0) {
  AutoscaleSignals s;
  s.ready_replicas = ready;
  s.warming_replicas = warming;
  s.outstanding_tokens = tokens;
  s.p95_queue_delay_ms = p95_delay_ms;
  return s;
}

// --- Queue-pressure policy (no engine involved) -------------------------------

TEST(QueuePressurePolicy, ScalesUpAboveHighWatermarkAndClampsAtMax) {
  auto as = make_queue_pressure_autoscaler(test_policy());
  EXPECT_EQ(as->target_size(signals(2, 0, 300)), 3u);   // 150/replica > 64
  EXPECT_EQ(as->target_size(signals(4, 0, 9000)), 4u);  // already at max
}

TEST(QueuePressurePolicy, HoldsInsideTheHysteresisBand) {
  auto as = make_queue_pressure_autoscaler(test_policy());
  EXPECT_EQ(as->target_size(signals(2, 0, 64)), 2u);  // 32/replica: between 8 and 64
}

TEST(QueuePressurePolicy, ScalesDownBelowLowWatermarkButNeverBelowMin) {
  auto as = make_queue_pressure_autoscaler(test_policy());
  EXPECT_EQ(as->target_size(signals(3, 0, 6)), 2u);  // 2/replica < 8
  EXPECT_EQ(as->target_size(signals(1, 0, 0)), 1u);  // idle, already at min
}

TEST(QueuePressurePolicy, NeverShrinksWhileAReplicaIsWarming) {
  auto as = make_queue_pressure_autoscaler(test_policy());
  EXPECT_EQ(as->target_size(signals(2, 1, 0)), 3u);  // idle but warm-up pending
}

TEST(QueuePressurePolicy, QueueDelayTriggerFiresIndependently) {
  AutoscaleConfig cfg = test_policy();
  cfg.high_queue_delay_ms = 15.0;
  auto as = make_queue_pressure_autoscaler(cfg);
  // Tokens per replica sit inside the band, but the queue tail is old.
  EXPECT_EQ(as->target_size(signals(2, 0, 64, /*p95_delay_ms=*/20.0)), 3u);
  EXPECT_EQ(as->target_size(signals(2, 0, 64, /*p95_delay_ms=*/10.0)), 2u);
}

TEST(QueuePressurePolicy, RejectsBadConfig) {
  AutoscaleConfig cfg = test_policy();
  cfg.max_replicas = 0;
  EXPECT_THROW((void)make_queue_pressure_autoscaler(cfg), Error);
  cfg = test_policy();
  cfg.high_tokens_per_replica = cfg.low_tokens_per_replica;
  EXPECT_THROW((void)make_queue_pressure_autoscaler(cfg), Error);
}

// --- Autoscaled ClusterSim runs -----------------------------------------------

ClusterReport run_elastic(const std::vector<Request>& trace, ClusterConfig cfg,
                          AutoscaleConfig as, std::size_t boot_replicas = 1,
                          std::uint64_t dispatch_seed = 17) {
  ClusterSim cluster{core::SystemConfig::dac24(), tiny_model(),
                     moe::SkewProfile::switch_like(),
                     uniform_fleet(boot_replicas, core::StrategyKind::kMondeLoadBalanced,
                                   SchedulerConfig{}),
                     cfg};
  const auto dispatcher = make_dispatcher(DispatchPolicy::kJoinShortestQueue, dispatch_seed);
  const auto autoscaler = make_queue_pressure_autoscaler(as);
  return cluster.run(trace, *dispatcher, autoscaler.get());
}

std::vector<Request> burst_trace() {
  return bursty_trace(32, /*burst_size=*/8, Duration::millis(30), small_shape(), /*seed=*/13);
}

TEST(Autoscale, TracksBurstyTraceWithBoundedQueueDelay) {
  // One boot replica cannot absorb the bursts; the autoscaler must grow the
  // fleet and keep the TTFT tail well under the static single-replica run.
  ClusterConfig cfg;
  cfg.warmup = Duration::millis(2);
  cfg.autoscale_period = Duration::millis(4);
  AutoscaleConfig as;
  as.min_replicas = 1;
  as.max_replicas = 4;
  as.high_tokens_per_replica = 48;
  as.low_tokens_per_replica = 8;
  as.high_queue_delay_ms = 10.0;
  const auto trace = burst_trace();
  const ClusterReport elastic = run_elastic(trace, cfg, as);

  ClusterSim fixed{core::SystemConfig::dac24(), tiny_model(), moe::SkewProfile::switch_like(),
                   uniform_fleet(1, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{}),
                   cfg};
  const auto dispatcher = make_dispatcher(DispatchPolicy::kJoinShortestQueue, 17);
  const ClusterReport baseline = fixed.run(trace, *dispatcher);

  EXPECT_GT(elastic.peak_replicas, 1u);
  EXPECT_LT(elastic.ttft_ms.p95, baseline.ttft_ms.p95);
  EXPECT_LT(elastic.e2e_ms.p95, baseline.e2e_ms.p95);
  // Every request served exactly once, scale-ups recorded.
  EXPECT_EQ(elastic.requests.size(), trace.size());
  bool scaled_up = false;
  for (const ClusterEvent& ev : elastic.events) {
    scaled_up = scaled_up || ev.kind == ClusterEvent::Kind::kScaleUp;
  }
  EXPECT_TRUE(scaled_up);
  EXPECT_EQ(elastic.autoscaler, "queue-pressure");
}

TEST(Autoscale, WarmupDelaysASpawnedReplicasFirstStep) {
  ClusterConfig cfg;
  cfg.warmup = Duration::millis(8);
  cfg.autoscale_period = Duration::millis(4);
  const ClusterReport rep = run_elastic(burst_trace(), cfg, test_policy());
  std::size_t spawned_with_steps = 0;
  for (const ReplicaReport& rr : rep.replicas) {
    if (rr.spawned_at == Duration::zero() || rr.serve.steps.empty()) continue;
    ++spawned_with_steps;
    // The cold start is real: no step starts inside [spawn, spawn + warmup).
    EXPECT_GE(rr.serve.steps.front().start, rr.spawned_at + cfg.warmup) << rr.name;
  }
  EXPECT_GT(spawned_with_steps, 0u);  // the trace forced a scale-up that served work
}

TEST(Autoscale, ScaleDownRetiresReplicasThatStillDrain) {
  // A front-loaded burst followed by a long sparse tail: pressure collapses
  // after the burst and the autoscaler must give capacity back.
  std::vector<Request> trace = bursty_trace(16, 16, Duration::millis(1), small_shape(), 3);
  const auto tail = poisson_trace(10, 15.0, small_shape(), 4);
  for (Request rq : tail) {
    rq.id += 100;
    rq.arrival += Duration::millis(60);
    trace.push_back(rq);
  }
  ClusterConfig cfg;
  cfg.warmup = Duration::millis(2);
  cfg.autoscale_period = Duration::millis(4);
  AutoscaleConfig as = test_policy();
  as.high_tokens_per_replica = 48;
  as.low_tokens_per_replica = 24;
  const ClusterReport rep = run_elastic(trace, cfg, as);

  bool retired = false;
  for (const ReplicaReport& rr : rep.replicas) {
    if (!rr.retired) continue;
    retired = true;
    // A retirement releases the capacity once the drain completes: the
    // alive window must not be billed through to the fleet makespan.
    EXPECT_LT(rr.alive_until, rep.makespan) << rr.name;
    if (!rr.serve.steps.empty()) {
      EXPECT_GE(rr.alive_until, rr.serve.makespan) << rr.name;
    }
  }
  EXPECT_TRUE(retired);
  // Retirement never loses work: the union still covers the whole trace.
  EXPECT_EQ(rep.requests.size(), trace.size());
  std::set<std::uint64_t> ids;
  for (const auto& m : rep.requests) ids.insert(m.id);
  EXPECT_EQ(ids.size(), trace.size());
}

TEST(Autoscale, UtilizationIsWeightedByAliveWindow) {
  // Regression for the fleet-aggregation fix: a replica spawned mid-run must
  // be normalized by its own alive window, not the whole fleet makespan --
  // else elastic fleets would report absurdly low utilization for capacity
  // that was only provisioned briefly.
  ClusterConfig cfg;
  cfg.warmup = Duration::millis(2);
  cfg.autoscale_period = Duration::millis(4);
  const ClusterReport rep = run_elastic(burst_trace(), cfg, test_policy());
  double busy_ns = 0.0, alive_ns = 0.0;
  bool saw_late_spawn = false;
  for (const ReplicaReport& rr : rep.replicas) {
    const Duration window = rr.alive_until - rr.spawned_at;
    ASSERT_GE(window, Duration::zero()) << rr.name;
    EXPECT_LE(rr.spawned_at, rr.alive_until) << rr.name;
    EXPECT_LE(rr.utilization, 1.0 + 1e-9) << rr.name;
    if (window > Duration::zero()) {
      EXPECT_NEAR(rr.utilization, rr.serve.busy / window, 1e-12) << rr.name;
    }
    if (rr.spawned_at > Duration::zero() && rr.serve.busy > Duration::zero()) {
      saw_late_spawn = true;
      // The old (whole-makespan) normalization strictly under-reports a
      // late-spawned replica's occupancy.
      EXPECT_GT(rr.utilization, rr.serve.busy / rep.makespan) << rr.name;
    }
    busy_ns += rr.serve.busy.ns();
    alive_ns += window.ns();
  }
  ASSERT_TRUE(saw_late_spawn);
  EXPECT_NEAR(rep.fleet_utilization, busy_ns / alive_ns, 1e-12);
  EXPECT_NEAR(rep.replica_seconds, alive_ns * 1e-9, 1e-12);
}

TEST(Autoscale, DeterministicGivenSeeds) {
  ClusterConfig cfg;
  cfg.warmup = Duration::millis(3);
  cfg.autoscale_period = Duration::millis(4);
  const auto trace = burst_trace();
  const ClusterReport a = run_elastic(trace, cfg, test_policy());
  const ClusterReport b = run_elastic(trace, cfg, test_policy());
  ASSERT_EQ(a.replicas.size(), b.replicas.size());
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].id, b.requests[i].id);
    EXPECT_DOUBLE_EQ(a.requests[i].ttft().ns(), b.requests[i].ttft().ns());
    EXPECT_DOUBLE_EQ(a.requests[i].e2e().ns(), b.requests[i].e2e().ns());
  }
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_DOUBLE_EQ(a.events[i].time.ns(), b.events[i].time.ns());
    EXPECT_EQ(a.events[i].replica, b.events[i].replica);
  }
  EXPECT_DOUBLE_EQ(a.makespan.ns(), b.makespan.ns());
  EXPECT_DOUBLE_EQ(a.replica_seconds, b.replica_seconds);
}

TEST(Autoscale, DrainPhaseTicksFireLateScaleDowns) {
  // Every arrival lands at t = 0, so every autoscale tick is a drain-phase
  // tick. Before the drain-tick fix no tick ever fired here and all three
  // replicas were billed through to the fleet makespan; now the autoscaler
  // keeps evaluating while work remains and releases idle capacity early.
  const auto trace = closed_loop_trace(12, small_shape(), 7);
  ClusterConfig cfg;
  cfg.autoscale_period = Duration::millis(2);
  AutoscaleConfig down = test_policy();
  down.max_replicas = 3;
  down.high_tokens_per_replica = 1 << 20;  // never up...
  down.low_tokens_per_replica = 1 << 19;   // ...always down
  const ClusterReport rep = run_elastic(trace, cfg, down, /*boot_replicas=*/3);

  ASSERT_EQ(rep.requests.size(), trace.size());
  std::size_t scale_downs = 0;
  for (const ClusterEvent& ev : rep.events) {
    EXPECT_NE(ev.kind, ClusterEvent::Kind::kScaleUp);
    if (ev.kind == ClusterEvent::Kind::kScaleDown) {
      ++scale_downs;
      EXPECT_GT(ev.time, Duration::zero());  // strictly after the last arrival
    }
  }
  EXPECT_GT(scale_downs, 0u);
  // Replica-seconds accounting (regression): the sum of alive windows must
  // match, and at least one retiree released capacity before the makespan.
  double alive_ns = 0.0;
  bool early_release = false;
  for (const ReplicaReport& rr : rep.replicas) {
    alive_ns += (rr.alive_until - rr.spawned_at).ns();
    early_release = early_release || (rr.retired && rr.alive_until < rep.makespan);
  }
  EXPECT_NEAR(rep.replica_seconds, alive_ns * 1e-9, 1e-12);
  EXPECT_TRUE(early_release);
  EXPECT_LT(rep.replica_seconds, 3.0 * rep.makespan.sec());

  // The dual guard: a scale-up-hungry policy gets clamped during drain --
  // spawning capacity no arrival will ever reach is pure waste.
  AutoscaleConfig up = test_policy();
  up.max_replicas = 4;
  up.high_tokens_per_replica = 1;  // always wants another replica
  up.low_tokens_per_replica = 0;
  const ClusterReport held = run_elastic(trace, cfg, up, /*boot_replicas=*/2);
  ASSERT_EQ(held.requests.size(), trace.size());
  for (const ClusterEvent& ev : held.events) {
    EXPECT_NE(ev.kind, ClusterEvent::Kind::kScaleUp);
  }
  EXPECT_EQ(held.peak_replicas, 2u);
}

TEST(Autoscale, DrainTicksTerminateWithStuckFixedBatch) {
  // Regression for a drain-tick livelock: a fixed-batching replica holding
  // an under-full batch cannot serve it until drain() seals the scheduler,
  // so its in_flight work must NOT keep the autoscaler ticking forever --
  // the loop has to fall through to drain() and let the partial batch run.
  SchedulerConfig fixed;
  fixed.mode = BatchingMode::kFixed;
  ClusterConfig cfg;
  cfg.autoscale_period = Duration::millis(2);
  ClusterSim cluster{core::SystemConfig::dac24(), tiny_model(), moe::SkewProfile::switch_like(),
                     uniform_fleet(1, core::StrategyKind::kMondeLoadBalanced, fixed), cfg};
  const auto dispatcher = make_dispatcher(DispatchPolicy::kRoundRobin);
  const auto autoscaler = make_queue_pressure_autoscaler(test_policy());
  // 3 < kFixedBatch requests: without the liveness cut this never returns.
  const ClusterReport rep =
      cluster.run(closed_loop_trace(3, small_shape(), 5), *dispatcher, autoscaler.get());
  ASSERT_EQ(rep.requests.size(), 3u);
  for (const RequestMetrics& m : rep.requests) EXPECT_GT(m.generated, 0);
}

TEST(Autoscale, ConfigValidation) {
  ClusterConfig cfg;
  cfg.autoscale_period = Duration::zero();
  EXPECT_THROW(cfg.validate(), Error);
  cfg = ClusterConfig{};
  cfg.health.slow_ewma_factor = 1.0;
  EXPECT_THROW(cfg.validate(), Error);
}

}  // namespace
}  // namespace monde::serve
