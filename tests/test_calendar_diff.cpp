// Refactor-seam pinning for the indexed event calendar (PR 6) and its
// parallel advancement phase (PR 7): the calendar-driven ClusterSim::run
// loop must be bit-identical to the classic scan-everything loop
// (ClusterConfig::reference_loop) on the same seeds, across every behavior
// the cluster models -- plain dispatch, failure injection + retry,
// autoscaling, and KV-cache recovery/migration -- and at every thread count
// (the Parallel* tests diff 1/2/4/8 worker threads against the sequential
// reference; the commit-order rule in serve/cluster.cpp is what makes that
// hold). Also covers the event-log gating satellite (metrics identical with
// the log off), the slow-EWMA filter applied on the maintained index, and the
// ServerSim next-event time the calendar's due times read.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "serve/arrivals.hpp"
#include "serve/cluster.hpp"
#include "serve_fixtures.hpp"

namespace monde::serve {
namespace {

// Scenario builders and the bit-identity comparator live in
// tests/serve_fixtures.hpp, shared with the disagg and random-diff suites.
using namespace fixtures;

TEST(CalendarDiff, PlainFleetAllPolicies) {
  for (const DispatchPolicy policy : all_dispatch_policies()) {
    Scenario sc;
    sc.trace = poisson_trace(24, 90.0, small_shape(), 21);
    sc.specs = uniform_fleet(4, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
    sc.policy = policy;
    expect_loops_agree(sc);
  }
}

TEST(CalendarDiff, FaultInjectionWithRetries) {
  Scenario sc;
  sc.trace = bursty_trace(24, 6, Duration::millis(25), small_shape(), 13);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[1].fault.fail_at = Duration::millis(30);  // dies mid-trace, strands work
  sc.specs[2].fault.slow_from = Duration::millis(10);  // and a degraded peer
  sc.specs[2].fault.slow_until = Duration::millis(60);
  sc.specs[2].fault.slow_factor = 3.0;
  expect_loops_agree(sc);
}

TEST(CalendarDiff, AuditCatchesSeededDroppedCompletion) {
  // The conservation audit every diff scenario runs must notice a request
  // that never reports. Seed the fault the way a lost record would surface:
  // gone from its replica's records and from the fleet union alike, with
  // the token total recomputed to match, so only conservation can tell.
  Scenario sc;
  sc.trace = bursty_trace(24, 6, Duration::millis(25), small_shape(), 13);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[1].fault.fail_at = Duration::millis(30);
  ClusterReport rep = run_scenario(sc, /*reference_loop=*/false);
  ASSERT_TRUE(audit_report(rep, sc.trace).empty());
  ASSERT_GT(rep.retries, 0u);

  // Drop a retried request's completion: the path with the most hand-overs.
  const auto victim = std::find_if(rep.requests.begin(), rep.requests.end(),
                                   [](const RequestMetrics& m) { return m.attempt > 0; });
  ASSERT_NE(victim, rep.requests.end());
  const std::uint64_t id = victim->id;
  rep.generated_tokens -= static_cast<std::uint64_t>(victim->generated);
  rep.requests.erase(victim);
  std::size_t dropped = 0;
  for (ReplicaReport& r : rep.replicas) {
    dropped += std::erase_if(r.serve.requests,
                             [id](const RequestMetrics& m) { return m.id == id; });
  }
  ASSERT_EQ(dropped, 1u);
  const std::vector<std::string> findings = audit_report(rep, sc.trace);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0], "request " + std::to_string(id) + ": completed 0 times");
}

TEST(CalendarDiff, TwoFailStopsCascade) {
  // Both replicas die; retries land on autoscaled replacement capacity --
  // exercises the fail cursor, detection cursor, and spawn path together.
  Scenario sc;
  sc.trace = poisson_trace(16, 120.0, small_shape(), 5);
  sc.specs = uniform_fleet(2, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[0].fault.fail_at = Duration::millis(2);
  sc.specs[1].fault.fail_at = Duration::millis(8);
  sc.cfg.warmup = Duration::millis(1);
  sc.autoscaled = true;
  sc.autoscale.min_replicas = 1;
  sc.autoscale.max_replicas = 4;
  sc.autoscale.high_tokens_per_replica = 1;  // spawn eagerly: capacity must
  sc.autoscale.low_tokens_per_replica = 0;   // always exist for the retries
  expect_loops_agree(sc);
}

TEST(CalendarDiff, AutoscaleUpAndDown) {
  Scenario sc;
  sc.trace = bursty_trace(36, 12, Duration::millis(40), small_shape(), 29);
  sc.specs = uniform_fleet(2, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.cfg.warmup = Duration::millis(3);
  sc.cfg.autoscale_period = Duration::millis(2);
  sc.policy = DispatchPolicy::kPowerOfTwoChoices;
  sc.dispatch_seed = 11;
  sc.autoscaled = true;
  sc.autoscale.min_replicas = 1;
  sc.autoscale.max_replicas = 6;
  sc.autoscale.high_tokens_per_replica = 96;  // bursts force spawns...
  sc.autoscale.low_tokens_per_replica = 8;    // ...idle gaps force retirements
  expect_loops_agree(sc);
}

TEST(CalendarDiff, PrefixCacheSurvivalAndMigration) {
  RequestShape shape = small_shape();
  shape.prefix_groups = 2;  // shared prefixes feed the caches
  shape.shared_fraction = 0.75;
  shape.shared_prefix_len = 12;
  Scenario sc;
  sc.trace = poisson_trace(28, 100.0, shape, 17);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[0].fault.fail_at = Duration::millis(25);  // retries resume from checkpoints
  sc.cfg.cache.enabled = true;
  sc.cfg.cache.capacity_tokens = 4096;
  sc.cfg.cache.survive_failstop = true;
  sc.cfg.cache.migrate_on_retire = true;  // retirements live-migrate
  sc.cfg.warmup = Duration::millis(2);
  sc.cfg.autoscale_period = Duration::millis(4);
  sc.autoscaled = true;
  sc.autoscale.min_replicas = 1;
  sc.autoscale.max_replicas = 4;
  sc.autoscale.high_tokens_per_replica = 1 << 20;
  sc.autoscale.low_tokens_per_replica = 1 << 19;  // always prefer shrinking
  expect_loops_agree(sc);
}

TEST(CalendarDiff, SlowEwmaFilterAgreesWithReference) {
  // A finite slow_ewma_factor filters the maintained eligible index per
  // dispatch with eligible_snapshots() -- bit-identical to the reference
  // loop, which applies the same filter to snapshots rebuilt from scratch.
  Scenario sc;
  sc.trace = poisson_trace(20, 80.0, small_shape(), 33);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[2].fault.slow_from = Duration::zero();
  sc.specs[2].fault.slow_until = Duration::seconds(1);
  sc.specs[2].fault.slow_factor = 8.0;
  sc.cfg.health.slow_ewma_factor = 2.0;
  expect_loops_agree(sc);
}

TEST(CalendarDiff, SlowEwmaFilterWithFailuresAndAutoscale) {
  // The filtered view must also track membership churn: replicas leaving on
  // detection and retirement, joining on spawn, and a degraded peer whose
  // EWMA keeps crossing the moving fleet-median cutoff.
  Scenario sc;
  sc.trace = bursty_trace(28, 7, Duration::millis(25), small_shape(), 19);
  sc.specs = uniform_fleet(4, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[1].fault.fail_at = Duration::millis(35);
  sc.specs[3].fault.slow_from = Duration::millis(5);
  sc.specs[3].fault.slow_until = Duration::millis(80);
  sc.specs[3].fault.slow_factor = 6.0;
  sc.cfg.health.slow_ewma_factor = 2.0;
  sc.cfg.warmup = Duration::millis(2);
  sc.cfg.autoscale_period = Duration::millis(3);
  sc.autoscaled = true;
  sc.autoscale.min_replicas = 2;
  sc.autoscale.max_replicas = 6;
  sc.autoscale.high_tokens_per_replica = 96;
  sc.autoscale.low_tokens_per_replica = 8;
  expect_loops_agree(sc);
}

TEST(CalendarDiff, SlowEwmaFilterEmptiesPrefillPoolFallsBackToAccepting) {
  // Disaggregated pools under the soft filter: the only prefill replica is
  // slowed 8x, so once two decode replicas have step EWMAs (the arrivals
  // outlast the first handoffs; round-robin spreads them) its EWMA sits far
  // above twice the fleet median and the filter drops the whole prefill
  // pool. The role filter must then fall back to the accepting set instead
  // of declaring the pool gone, in both loops and at 1 and 4 threads.
  Scenario sc;
  sc.trace = poisson_trace(40, 60.0, small_shape(), 41);
  sc.specs = uniform_fleet(4, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[0].fault.slow_from = Duration::zero();
  sc.specs[0].fault.slow_until = Duration::seconds(1);
  sc.specs[0].fault.slow_factor = 8.0;
  sc.cfg.disagg.enabled = true;
  sc.cfg.disagg.prefill_replicas = 1;
  sc.cfg.health.slow_ewma_factor = 2.0;
  sc.policy = DispatchPolicy::kRoundRobin;
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    sc.threads = threads;
    expect_loops_agree(sc);
  }
  const ClusterReport ref = run_scenario(sc, /*reference_loop=*/true);
  // Precondition: the slowed prefill steps dwarf the decode steps.
  EXPECT_GT(ref.prefill_pool.mean_step_ms, 2.0 * ref.decode_pool.mean_step_ms);
  // Every arrival is a prefill dispatch, and all of them land on replica 0.
  EXPECT_EQ(ref.replicas[0].dispatched, sc.trace.size());
  EXPECT_EQ(ref.prefill_pool.dispatched, sc.trace.size());
  EXPECT_EQ(ref.requests.size(), sc.trace.size());
}

// --- Expert-aware serving (profiles, residency, rebalance, pruning) ---------

/// The expert configuration exercised by the diff scenarios: every moving
/// part on at once -- small caches, a rebalance tick, and the pruned
/// degraded mode -- so the calendar loop must reproduce all of it.
ExpertServingConfig diff_expert_config() {
  ExpertServingConfig e;
  e.enabled = true;
  e.cache_capacity = 6;
  e.rebalance_period = Duration::millis(10);
  e.prune_outstanding_tokens = 64;
  return e;
}

TEST(CalendarDiff, ExpertAffinityServingAgrees) {
  Scenario sc;
  sc.trace = poisson_trace(32, 300.0, small_shape(), 21);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.cfg.expert = diff_expert_config();
  sc.policy = DispatchPolicy::kExpertAffinity;
  expect_loops_agree(sc);
}

TEST(CalendarDiff, ExpertServingWithFailuresAndAutoscale) {
  // Residency + rebalance under membership churn: a fail-stop mid-trace and
  // an autoscaler spawning/retiring around it. Rebalance preloads must skip
  // dead/retired replicas identically in both loops.
  Scenario sc;
  sc.trace = bursty_trace(28, 7, Duration::millis(25), small_shape(), 19);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[1].fault.fail_at = Duration::millis(35);
  sc.cfg.expert = diff_expert_config();
  sc.cfg.warmup = Duration::millis(2);
  sc.cfg.autoscale_period = Duration::millis(3);
  sc.policy = DispatchPolicy::kExpertAffinity;
  sc.autoscaled = true;
  sc.autoscale.min_replicas = 2;
  sc.autoscale.max_replicas = 5;
  sc.autoscale.high_tokens_per_replica = 96;
  sc.autoscale.low_tokens_per_replica = 8;
  expect_loops_agree(sc);
}

// A multi-tenant shared-prefix shape: most requests join one of a few
// Zipf-skewed groups, so the prefix caches fill and the prefix_sig
// snapshot field actually carries bits through the write-through paths.
RequestShape prefix_shape() {
  RequestShape shape = small_shape();
  shape.prefix_groups = 4;
  shape.shared_fraction = 0.8;
  shape.shared_prefix_len = 12;
  shape.prefix_zipf_s = 1.0;
  return shape;
}

TEST(CalendarDiff, PrefixAffinityRoutingAgrees) {
  Scenario sc;
  sc.trace = poisson_trace(32, 300.0, prefix_shape(), 21);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.cfg.cache.enabled = true;
  sc.cfg.cache.capacity_tokens = 4096;
  sc.policy = DispatchPolicy::kPrefixAffinity;
  expect_loops_agree(sc);
}

TEST(CalendarDiff, PrefixRoutingWithFaultsAndAutoscale) {
  // Prefix residency under churn: a fail-stop mid-trace plus autoscale
  // spawns/retirements -- holder lookups (and the prefix_sig write-through
  // on migration) must re-home identically in both loops.
  Scenario sc;
  sc.trace = bursty_trace(28, 7, Duration::millis(25), prefix_shape(), 19);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[1].fault.fail_at = Duration::millis(35);
  sc.cfg.cache.enabled = true;
  sc.cfg.cache.capacity_tokens = 2048;
  sc.cfg.cache.survive_failstop = true;
  sc.cfg.cache.migrate_on_retire = true;
  sc.cfg.warmup = Duration::millis(2);
  sc.cfg.autoscale_period = Duration::millis(3);
  sc.policy = DispatchPolicy::kPrefixAffinity;
  sc.autoscaled = true;
  sc.autoscale.min_replicas = 2;
  sc.autoscale.max_replicas = 5;
  sc.autoscale.high_tokens_per_replica = 96;
  sc.autoscale.low_tokens_per_replica = 8;
  expect_loops_agree(sc);
}

TEST(CalendarDiff, PrefixAffinityWithDisaggPools) {
  // Affinity composes with disaggregation: the prefill pool is where the
  // prefix routing applies; handoffs land decode-phase work via the
  // least-outstanding fallback.
  Scenario sc;
  sc.trace = poisson_trace(28, 250.0, prefix_shape(), 23);
  sc.specs = uniform_fleet(4, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.cfg.disagg.enabled = true;
  sc.cfg.disagg.prefill_replicas = 2;
  sc.cfg.cache.enabled = true;
  sc.cfg.cache.capacity_tokens = 4096;
  sc.policy = DispatchPolicy::kPrefixAffinity;
  expect_loops_agree(sc);
}

TEST(CalendarDiff, ExpertDisabledConfigIsInert) {
  // A disabled expert config -- even with every other knob tuned -- must
  // leave the run bit-identical to a default-constructed one: the off
  // switch pins the expert-oblivious behavior.
  Scenario plain;
  plain.trace = poisson_trace(24, 90.0, small_shape(), 21);
  plain.specs = uniform_fleet(4, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  plain.policy = DispatchPolicy::kLeastOutstandingTokens;
  Scenario tuned = plain;
  tuned.cfg.expert = diff_expert_config();
  tuned.cfg.expert.enabled = false;
  expect_reports_identical(run_scenario(plain, /*reference_loop=*/false),
                           run_scenario(tuned, /*reference_loop=*/false));
}

// --- Parallel advancement (PR 7): 1/2/4/8 threads vs the reference ----------

TEST(ParallelDiff, PlainFleetAllPolicies) {
  for (const DispatchPolicy policy : all_dispatch_policies()) {
    Scenario sc;
    sc.trace = poisson_trace(24, 90.0, small_shape(), 21);
    sc.specs = uniform_fleet(4, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
    sc.policy = policy;
    expect_threads_agree(sc);
  }
}

TEST(ParallelDiff, FaultInjectionWithRetries) {
  Scenario sc;
  sc.trace = bursty_trace(24, 6, Duration::millis(25), small_shape(), 13);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[1].fault.fail_at = Duration::millis(30);
  sc.specs[2].fault.slow_from = Duration::millis(10);
  sc.specs[2].fault.slow_until = Duration::millis(60);
  sc.specs[2].fault.slow_factor = 3.0;
  expect_threads_agree(sc);
}

TEST(ParallelDiff, AutoscaleUpAndDown) {
  Scenario sc;
  sc.trace = bursty_trace(36, 12, Duration::millis(40), small_shape(), 29);
  sc.specs = uniform_fleet(2, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.cfg.warmup = Duration::millis(3);
  sc.cfg.autoscale_period = Duration::millis(2);
  sc.policy = DispatchPolicy::kPowerOfTwoChoices;
  sc.dispatch_seed = 11;
  sc.autoscaled = true;
  sc.autoscale.min_replicas = 1;
  sc.autoscale.max_replicas = 6;
  sc.autoscale.high_tokens_per_replica = 96;
  sc.autoscale.low_tokens_per_replica = 8;
  expect_threads_agree(sc);
}

TEST(ParallelDiff, PrefixCacheSurvivalAndMigration) {
  RequestShape shape = small_shape();
  shape.prefix_groups = 2;
  shape.shared_fraction = 0.75;
  shape.shared_prefix_len = 12;
  Scenario sc;
  sc.trace = poisson_trace(28, 100.0, shape, 17);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[0].fault.fail_at = Duration::millis(25);
  sc.cfg.cache.enabled = true;
  sc.cfg.cache.capacity_tokens = 4096;
  sc.cfg.cache.survive_failstop = true;
  sc.cfg.cache.migrate_on_retire = true;
  sc.cfg.warmup = Duration::millis(2);
  sc.cfg.autoscale_period = Duration::millis(4);
  sc.autoscaled = true;
  sc.autoscale.min_replicas = 1;
  sc.autoscale.max_replicas = 4;
  sc.autoscale.high_tokens_per_replica = 1 << 20;
  sc.autoscale.low_tokens_per_replica = 1 << 19;
  expect_threads_agree(sc);
}

TEST(ParallelDiff, ExpertServingAcrossThreads) {
  Scenario sc;
  sc.trace = poisson_trace(32, 300.0, small_shape(), 21);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.cfg.expert = diff_expert_config();
  sc.policy = DispatchPolicy::kExpertAffinity;
  expect_threads_agree(sc);
}

TEST(ParallelDiff, PrefixRoutingAcrossThreads) {
  Scenario sc;
  sc.trace = poisson_trace(32, 300.0, prefix_shape(), 21);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.cfg.cache.enabled = true;
  sc.cfg.cache.capacity_tokens = 4096;
  sc.policy = DispatchPolicy::kPrefixAffinity;
  expect_threads_agree(sc);
}

TEST(ParallelDiff, SlowEwmaFilterAcrossThreads) {
  Scenario sc;
  sc.trace = poisson_trace(20, 80.0, small_shape(), 33);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[2].fault.slow_from = Duration::zero();
  sc.specs[2].fault.slow_until = Duration::seconds(1);
  sc.specs[2].fault.slow_factor = 8.0;
  sc.cfg.health.slow_ewma_factor = 2.0;
  expect_threads_agree(sc);
}

// --- What a custom dispatcher sees -----------------------------------------

/// Least-outstanding-tokens that records every snapshot vector pick() gets.
class RecordingDispatcher final : public Dispatcher {
 public:
  [[nodiscard]] std::string name() const override { return "recording"; }
  std::size_t pick(const std::vector<ReplicaSnapshot>& snapshots, const Request& rq) override {
    seen.push_back(snapshots);
    at.push_back(rq.arrival);
    return inner_->pick(snapshots, rq);
  }
  std::vector<std::vector<ReplicaSnapshot>> seen;
  std::vector<Duration> at;  ///< dispatch instant of each recorded view

 private:
  std::unique_ptr<Dispatcher> inner_ = make_dispatcher(DispatchPolicy::kLeastOutstandingTokens);
};

struct RecordedRun {
  ClusterReport report;
  std::vector<std::vector<ReplicaSnapshot>> views;
  std::vector<Duration> at;
};

RecordedRun record_views(const Scenario& sc, bool reference_loop, std::size_t threads) {
  ClusterConfig cfg = sc.cfg;
  cfg.reference_loop = reference_loop;
  cfg.threads = threads;
  ClusterSim cluster{core::SystemConfig::dac24(), sc.model, moe::SkewProfile::switch_like(),
                     sc.specs, cfg};
  RecordingDispatcher dispatcher;
  const auto autoscaler = make_queue_pressure_autoscaler(sc.autoscale);
  RecordedRun out;
  out.report = cluster.run(sc.trace, dispatcher, autoscaler.get());
  out.views = std::move(dispatcher.seen);
  out.at = std::move(dispatcher.at);
  return out;
}

TEST(CalendarDiff, CustomDispatcherSeesIdenticalSnapshots) {
  // Not just the same outcome: a custom policy must be handed the very same
  // snapshot vectors by both loops, field by field, at every thread count --
  // through cold starts, two fail-stops (one inside the other's detection
  // lag) and a finite slow-EWMA filter.
  Scenario sc;
  sc.trace = poisson_trace(40, 150.0, small_shape(), 23);
  sc.specs = uniform_fleet(4, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[1].fault.fail_at = Duration::millis(30);
  sc.specs[2].fault.fail_at = Duration::millis(34);
  sc.specs[3].fault.slow_from = Duration::millis(5);
  sc.specs[3].fault.slow_until = Duration::millis(60);
  sc.specs[3].fault.slow_factor = 6.0;
  sc.cfg.health.slow_ewma_factor = 2.0;
  sc.cfg.warmup = Duration::millis(4);
  sc.cfg.autoscale_period = Duration::millis(3);
  sc.autoscale.min_replicas = 4;  // the deaths are replaced by cold starts
  sc.autoscale.max_replicas = 6;
  sc.autoscale.high_tokens_per_replica = 64;
  sc.autoscale.low_tokens_per_replica = 1;

  const RecordedRun ref = record_views(sc, /*reference_loop=*/true, 1);
  // Preconditions: both replicas died and were retried, and replicas
  // spawned mid-run took dispatches while still warming up.
  EXPECT_TRUE(ref.report.replicas[1].failed);
  EXPECT_TRUE(ref.report.replicas[2].failed);
  EXPECT_GT(ref.report.retries, 0u);
  bool saw_warming = false;
  for (std::size_t d = 0; d < ref.views.size(); ++d) {
    for (const ReplicaSnapshot& s : ref.views[d]) {
      const Duration spawned = ref.report.replicas[s.replica].spawned_at;
      saw_warming |= spawned > Duration::zero() && ref.at[d] < spawned + sc.cfg.warmup;
    }
  }
  EXPECT_TRUE(saw_warming);
  ASSERT_EQ(ref.views.size(), sc.trace.size() + ref.report.retries + ref.report.migrations);

  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const RecordedRun cal = record_views(sc, /*reference_loop=*/false, threads);
    expect_reports_identical(cal.report, ref.report);
    ASSERT_EQ(cal.views.size(), ref.views.size());
    for (std::size_t d = 0; d < ref.views.size(); ++d) {
      ASSERT_EQ(cal.views[d].size(), ref.views[d].size()) << "dispatch " << d;
      for (std::size_t k = 0; k < ref.views[d].size(); ++k) {
        const ReplicaSnapshot& x = cal.views[d][k];
        const ReplicaSnapshot& y = ref.views[d][k];
        SCOPED_TRACE("dispatch " + std::to_string(d) + " entry " + std::to_string(k));
        EXPECT_EQ(x.replica, y.replica);
        EXPECT_EQ(x.in_flight, y.in_flight);
        EXPECT_EQ(x.outstanding_tokens, y.outstanding_tokens);
        EXPECT_EQ(x.step_ewma_ms, y.step_ewma_ms);
        EXPECT_EQ(x.expert_sig, y.expert_sig);
        EXPECT_EQ(x.prefix_sig, y.prefix_sig);
        EXPECT_EQ(x.prefill_pool, y.prefill_pool);
      }
    }
  }
}

// --- Event-log gating (the perf-bugfix satellite) ---------------------------

TEST(CalendarDiff, EventLogOffLeavesMetricsIdentical) {
  Scenario sc;
  sc.trace = bursty_trace(24, 6, Duration::millis(25), small_shape(), 13);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[1].fault.fail_at = Duration::millis(30);
  sc.cfg.warmup = Duration::millis(2);
  sc.autoscaled = true;
  sc.autoscale.min_replicas = 1;
  sc.autoscale.max_replicas = 4;
  sc.autoscale.high_tokens_per_replica = 96;
  sc.autoscale.low_tokens_per_replica = 8;

  const ClusterReport logged = run_scenario(sc, /*reference_loop=*/false);
  Scenario muted = sc;
  muted.cfg.event_log_enabled = false;
  const ClusterReport quiet = run_scenario(muted, /*reference_loop=*/false);

  EXPECT_GT(logged.events.size(), 0u);  // the scenario actually logs things
  EXPECT_TRUE(quiet.events.empty());
  EXPECT_EQ(logged.retries, quiet.retries);        // counters survive the gate
  EXPECT_EQ(logged.migrations, quiet.migrations);
  EXPECT_EQ(logged.peak_replicas, quiet.peak_replicas);
  // Everything except the log itself is identical.
  ClusterReport a = logged;
  ClusterReport b = quiet;
  a.events.clear();
  b.events.clear();
  expect_reports_identical(a, b);
}

// --- ServerSim next event (what the calendar's due times read) -------------

TEST(ServerNextEvent, FollowsMutationsAndIsPure) {
  auto engine = core::InferenceEngine{core::SystemConfig::dac24(), tiny_model(),
                                      moe::SkewProfile::switch_like(),
                                      core::StrategyKind::kMondeLoadBalanced, 42};
  ServerSim server{engine, SchedulerConfig{}};
  EXPECT_EQ(server.next_event_time(), Duration::infinite());
  EXPECT_EQ(server.next_event_time(), Duration::infinite());  // polling changes nothing

  Request rq;
  rq.id = 0;
  rq.arrival = Duration::millis(1);
  rq.prompt_len = 16;
  rq.max_new_tokens = 4;
  server.enqueue(rq);
  EXPECT_EQ(server.next_event_time(), Duration::millis(1));

  server.advance_to(Duration::millis(1));  // strict-before: a no-op
  EXPECT_EQ(server.next_event_time(), Duration::millis(1));

  server.advance_to(Duration::millis(2));  // runs at least the first step
  // An advanced server's next event lands at or after the advance target --
  // the calendar's one-batch-per-event guarantee -- and survives polling.
  const Duration next = server.next_event_time();
  EXPECT_GE(next, Duration::millis(2));
  EXPECT_EQ(server.next_event_time(), next);

  server.drain();
  EXPECT_EQ(server.next_event_time(), Duration::infinite());
}

TEST(ServerNextEvent, FailStopPinsInfiniteNextEvent) {
  auto engine = core::InferenceEngine{core::SystemConfig::dac24(), tiny_model(),
                                      moe::SkewProfile::switch_like(),
                                      core::StrategyKind::kMondeLoadBalanced, 42};
  FaultSpec fault;
  fault.fail_at = Duration::millis(5);
  ServerSim server{engine, SchedulerConfig{}, Duration::zero(), fault};
  Request rq;
  rq.id = 0;
  rq.arrival = Duration::zero();
  rq.prompt_len = 16;
  rq.max_new_tokens = 64;  // long enough to still be running at the death
  server.enqueue(rq);
  EXPECT_EQ(server.next_event_time(), Duration::zero());
  server.advance_to(Duration::millis(10));  // crosses fail_at: the server dies
  EXPECT_TRUE(server.failed());
  EXPECT_EQ(server.next_event_time(), Duration::infinite());
  EXPECT_EQ(server.evacuate().size(), 1u);
  EXPECT_EQ(server.next_event_time(), Duration::infinite());  // evacuation keeps it dead
}

}  // namespace
}  // namespace monde::serve
