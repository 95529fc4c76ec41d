// Disaggregated prefill/decode serving (serve/disagg.hpp): pool role
// assignment, the priced KV handoff from prefill to decode replicas, pool
// routing of retries (surviving-cache retries stay in the decode pool, a
// lost cache sends the request back to prefill), pool-aware autoscaling,
// and -- the acceptance pins -- bit-identity of the disabled path and
// calendar/reference/thread agreement of the enabled one.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>

#include "common/error.hpp"
#include "serve/arrivals.hpp"
#include "serve/cluster.hpp"
#include "serve_fixtures.hpp"

namespace monde::serve {
namespace {

using namespace fixtures;

/// Near-instant state transfers (as in the prefix-cache suites) so pool
/// timing stays dominated by compute, not the modelled links.
PrefixCacheConfig enabled_cache() {
  PrefixCacheConfig cache;
  cache.enabled = true;
  cache.kv_bytes_per_token = Bytes{16};
  cache.migration_bw = Bandwidth::gbps(100.0);
  return cache;
}

ClusterConfig disagg_config(std::size_t prefill_replicas = 1) {
  ClusterConfig cfg;
  cfg.disagg.enabled = true;
  cfg.disagg.prefill_replicas = prefill_replicas;
  return cfg;
}

// --- Configuration guards ---------------------------------------------------

TEST(Disagg, ValidationCatchesBadConfigs) {
  DisaggConfig bad;
  bad.enabled = true;
  bad.prefill_replicas = 0;
  EXPECT_THROW(bad.validate(), Error);
  // Disabled configs are never validated-failed, however malformed.
  bad.enabled = false;
  EXPECT_NO_THROW(bad.validate());
}

TEST(Disagg, ValidationRejectsAHandoffLinkThatCannotCarryState) {
  // A link with no bandwidth would price every handoff at +infinity and
  // strand the handed-off requests; it must fail at construction, not as
  // an unserved-request error deep inside run().
  ClusterConfig cfg = disagg_config();
  cfg.disagg.handoff_link = interconnect::LinkSpec{};
  EXPECT_THROW(cfg.validate(), Error);
  EXPECT_THROW((ClusterSim{core::SystemConfig::dac24(), tiny_model(),
                           moe::SkewProfile::switch_like(),
                           uniform_fleet(2, core::StrategyKind::kMondeLoadBalanced,
                                         SchedulerConfig{}),
                           cfg}),
               Error);
  DisaggConfig bad = cfg.disagg;
  bad.handoff_link = interconnect::LinkSpec::pcie_gen4_x16();
  bad.handoff_link.protocol_efficiency = 0.0;
  EXPECT_THROW(bad.validate(), Error);
  bad.handoff_link = interconnect::LinkSpec::pcie_gen4_x16();
  bad.handoff_link.raw_bandwidth = Bandwidth::gbps(std::numeric_limits<double>::infinity());
  EXPECT_THROW(bad.validate(), Error);
  bad.handoff_link = interconnect::LinkSpec::pcie_gen4_x16();
  bad.handoff_link.raw_bandwidth = Bandwidth::gbps(std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW(bad.validate(), Error);
  bad.handoff_link = interconnect::LinkSpec::pcie_gen4_x16();
  bad.handoff_link.propagation = Duration::micros(-1.0);
  EXPECT_THROW(bad.validate(), Error);
  bad.handoff_link = interconnect::LinkSpec::pcie_gen4_x16();
  bad.handoff_link.dma_setup = Duration::micros(-1.0);
  EXPECT_THROW(bad.validate(), Error);
  // The shipped presets pass.
  bad.handoff_link = interconnect::LinkSpec::pcie_gen3_x16();
  EXPECT_NO_THROW(bad.validate());
}

TEST(Disagg, ClusterNeedsBothPoolsAndContinuousBatching) {
  // One replica cannot host both roles...
  EXPECT_THROW(
      (ClusterSim{core::SystemConfig::dac24(), tiny_model(),
                  moe::SkewProfile::switch_like(),
                  uniform_fleet(1, core::StrategyKind::kMondeLoadBalanced,
                                SchedulerConfig{}),
                  disagg_config()}),
      Error);
  // ...and fixed-batch replicas cannot release mid-trace, so the handoff
  // model requires continuous batching fleet-wide.
  SchedulerConfig fixed;
  fixed.mode = BatchingMode::kFixed;
  EXPECT_THROW(
      (ClusterSim{core::SystemConfig::dac24(), tiny_model(),
                  moe::SkewProfile::switch_like(),
                  uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, fixed),
                  disagg_config()}),
      Error);
}

TEST(Disagg, ServerRejectsInvalidHandoffLink) {
  // A prefill specialist built straight from a link, bypassing
  // DisaggConfig::validate(), still refuses one that prices a handoff at
  // +inf or before it was sent.
  auto engine = core::InferenceEngine{core::SystemConfig::dac24(), tiny_model(),
                                      moe::SkewProfile::switch_like(),
                                      core::StrategyKind::kMondeLoadBalanced, 42};
  const auto prefill_server = [&](interconnect::LinkSpec link) {
    return ServerSim{engine, SchedulerConfig{}, Duration::zero(), FaultSpec{},
                     PrefixCacheConfig{}, ExpertServingConfig{}, link};
  };
  EXPECT_NO_THROW((void)prefill_server(interconnect::LinkSpec::pcie_gen4_x16()));
  interconnect::LinkSpec dead = interconnect::LinkSpec::pcie_gen4_x16();
  dead.raw_bandwidth = Bandwidth::gbps(0.0);
  EXPECT_THROW((void)prefill_server(dead), Error);
  interconnect::LinkSpec acausal = interconnect::LinkSpec::pcie_gen4_x16();
  acausal.propagation = Duration::micros(-1.0);
  EXPECT_THROW((void)prefill_server(acausal), Error);
}

// --- The off switch (acceptance pin) ----------------------------------------

TEST(Disagg, DisabledConfigIsBitIdenticalToDefault) {
  // A disabled disagg config -- every other knob tuned -- must leave the
  // cluster bit-identical to a default-constructed one, in both loops.
  Scenario plain;
  plain.trace = poisson_trace(24, 90.0, small_shape(), 21);
  plain.specs = uniform_fleet(4, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  plain.policy = DispatchPolicy::kLeastOutstandingTokens;
  Scenario tuned = plain;
  tuned.cfg.disagg = disagg_config(2).disagg;
  tuned.cfg.disagg.enabled = false;
  // Junk knobs must never be read.
  tuned.cfg.disagg.handoff_link = interconnect::LinkSpec::pcie_gen3_x16();
  for (const bool reference_loop : {false, true}) {
    SCOPED_TRACE(reference_loop ? "reference" : "calendar");
    expect_reports_identical(run_scenario(plain, reference_loop),
                             run_scenario(tuned, reference_loop));
  }
}

// --- The enabled path -------------------------------------------------------

TEST(Disagg, FleetServesEverythingThroughPricedHandoffs) {
  const auto trace = poisson_trace(24, 90.0, small_shape(), 21);
  ClusterSim cluster{core::SystemConfig::dac24(), tiny_model(),
                     moe::SkewProfile::switch_like(),
                     uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced,
                                   SchedulerConfig{}),
                     disagg_config()};
  const auto dispatcher = make_dispatcher(DispatchPolicy::kJoinShortestQueue, 7);
  const ClusterReport rep = cluster.run(trace, *dispatcher);

  // Nothing lost or double-counted across the pool boundary.
  ASSERT_EQ(rep.requests.size(), trace.size());
  std::set<std::uint64_t> ids;
  for (const RequestMetrics& m : rep.requests) ids.insert(m.id);
  EXPECT_EQ(ids.size(), trace.size());
  EXPECT_EQ(rep.retries, 0u);      // handoffs are not failures...
  EXPECT_EQ(rep.migrations, 0u);   // ...nor scale-down migrations

  // Handoffs happened and were priced: tokens crossed the link and the link
  // time is visible in the report.
  EXPECT_GT(rep.handoffs, 0u);
  EXPECT_LE(rep.handoffs, trace.size());
  EXPECT_GT(rep.handoff_tokens, 0);
  EXPECT_GT(rep.handoff_transfer_s, 0.0);
  // A handed-off request was re-dispatched once: its attempt counter says so.
  std::size_t handed = 0;
  for (const RequestMetrics& m : rep.requests) {
    if (m.attempt > 0) ++handed;
  }
  EXPECT_EQ(handed, rep.handoffs);

  // Roles: replica 0 is the prefill specialist (named as such), the rest
  // decode; only the prefill replica releases handoffs.
  ASSERT_EQ(rep.replicas.size(), 3u);
  EXPECT_NE(rep.replicas[0].name.find("[prefill]"), std::string::npos);
  EXPECT_EQ(rep.replicas[0].serve.handoffs, rep.handoffs);
  EXPECT_EQ(rep.replicas[1].serve.handoffs, 0u);
  EXPECT_EQ(rep.replicas[2].serve.handoffs, 0u);

  // Pool breakdowns: every arrival hit the prefill pool, every handoff the
  // decode pool, and both pools actually worked.
  EXPECT_EQ(rep.prefill_pool.replicas, 1u);
  EXPECT_EQ(rep.decode_pool.replicas, 2u);
  EXPECT_EQ(rep.prefill_pool.dispatched, trace.size());
  EXPECT_EQ(rep.decode_pool.dispatched, rep.handoffs);
  EXPECT_GT(rep.prefill_pool.steps, 0u);
  EXPECT_GT(rep.decode_pool.steps, 0u);
  for (const ClusterReport::PoolReport* pool : {&rep.prefill_pool, &rep.decode_pool}) {
    EXPECT_GT(pool->busy_s, 0.0);
    EXPECT_GT(pool->replica_seconds, 0.0);
    EXPECT_GE(pool->utilization, 0.0);
    EXPECT_LE(pool->utilization, 1.0);
    EXPECT_GT(pool->mean_step_ms, 0.0);
  }

  // The timeline records each handoff.
  std::size_t handoff_events = 0;
  for (const ClusterEvent& ev : rep.events) {
    if (ev.kind == ClusterEvent::Kind::kHandoff) ++handoff_events;
  }
  EXPECT_EQ(handoff_events, rep.handoffs);
  EXPECT_EQ(to_string(ClusterEvent::Kind::kHandoff), "handoff");

  // The handoff-ship DMA time is charged to the prefill replica's NEXT
  // step: ships delay the work that follows them. A release with no
  // successor step (the replica's final batch) ships without stretching
  // anything, so the step-charged total is a lower bound on the link time.
  Duration shipped = Duration::zero();
  for (const StepRecord& s : rep.replicas[0].serve.steps) shipped += s.handoff_ship;
  EXPECT_LE(shipped, rep.replicas[0].serve.handoff_transfer);
  EXPECT_GT(shipped, Duration::zero());
}

TEST(Disagg, SlowerHandoffLinkDelaysDecodeArrival) {
  // Same fleet, same trace; only the handoff link changes. A much slower
  // link ships the same KV tokens but later, so fleet completion degrades.
  const auto trace = poisson_trace(24, 120.0, small_shape(), 11);
  const auto run_with = [&](interconnect::LinkSpec link) {
    ClusterConfig cfg = disagg_config();
    cfg.disagg.handoff_link = link;
    ClusterSim cluster{core::SystemConfig::dac24(), tiny_model(),
                       moe::SkewProfile::switch_like(),
                       uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced,
                                     SchedulerConfig{}),
                       cfg};
    const auto dispatcher = make_dispatcher(DispatchPolicy::kJoinShortestQueue, 7);
    return cluster.run(trace, *dispatcher);
  };
  interconnect::LinkSpec slow = interconnect::LinkSpec::pcie_gen4_x16();
  slow.raw_bandwidth = slow.raw_bandwidth * 1e-4;
  const ClusterReport fast_rep = run_with(interconnect::LinkSpec::pcie_gen4_x16());
  const ClusterReport slow_rep = run_with(slow);
  ASSERT_EQ(fast_rep.requests.size(), slow_rep.requests.size());
  EXPECT_EQ(fast_rep.handoff_tokens, slow_rep.handoff_tokens);
  EXPECT_GT(slow_rep.handoff_transfer_s, fast_rep.handoff_transfer_s);
  EXPECT_GT(slow_rep.makespan, fast_rep.makespan);
}

// --- Fault retry across the pool boundary -----------------------------------

/// Deep decodes: the decode pool holds work long enough for a mid-trace
/// fail-stop to strand requests there (small_shape() decodes finish in a
/// few steps and would leave the dying replica already empty).
RequestShape deep_decode_shape() {
  RequestShape s = small_shape();
  s.new_tokens_min = 32;
  s.new_tokens_max = 96;
  return s;
}

TEST(Disagg, DeadDecodeReplicaReHomesHandoffsWithinDecodePool) {
  // Decode replica 1 dies mid-trace with a surviving cache: everything
  // stranded there is already past its prefill, so every retry must stay in
  // the decode pool -- which, with no autoscaler, means replica 2 exactly.
  const auto trace = bursty_trace(24, 6, Duration::millis(25), deep_decode_shape(), 13);
  ClusterConfig cfg = disagg_config();
  cfg.cache = enabled_cache();
  cfg.cache.survive_failstop = true;
  auto specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  specs[1].fault.fail_at = Duration::millis(30);
  ClusterSim cluster{core::SystemConfig::dac24(), tiny_model(),
                     moe::SkewProfile::switch_like(), specs, cfg};
  const auto dispatcher = make_dispatcher(DispatchPolicy::kJoinShortestQueue, 7);
  const ClusterReport rep = cluster.run(trace, *dispatcher);

  ASSERT_EQ(rep.requests.size(), trace.size());
  EXPECT_GT(rep.retries, 0u);
  std::size_t retry_events = 0;
  for (const ClusterEvent& ev : rep.events) {
    if (ev.kind != ClusterEvent::Kind::kRetry) continue;
    ++retry_events;
    EXPECT_EQ(ev.replica, 2u) << "decode-phase retry left the decode pool";
  }
  EXPECT_EQ(retry_events, rep.retries);
}

TEST(Disagg, LostCacheRetryReturnsToThePrefillPool) {
  // Without a surviving cache the stranded requests lose their KV state:
  // they are prefill-phase again and must re-enter through the prefill pool
  // (replica 0), then hand off a second time.
  const auto trace = bursty_trace(24, 6, Duration::millis(25), deep_decode_shape(), 13);
  ClusterConfig cfg = disagg_config();
  auto specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  specs[1].fault.fail_at = Duration::millis(30);
  ClusterSim cluster{core::SystemConfig::dac24(), tiny_model(),
                     moe::SkewProfile::switch_like(), specs, cfg};
  const auto dispatcher = make_dispatcher(DispatchPolicy::kJoinShortestQueue, 7);
  const ClusterReport rep = cluster.run(trace, *dispatcher);

  ASSERT_EQ(rep.requests.size(), trace.size());
  EXPECT_GT(rep.retries, 0u);
  for (const ClusterEvent& ev : rep.events) {
    if (ev.kind != ClusterEvent::Kind::kRetry) continue;
    EXPECT_EQ(ev.replica, 0u) << "prefill-phase retry skipped the prefill pool";
  }
  // Re-prefilled requests crossed the link once per attempt that completed
  // a prefill, so the fleet saw more handoffs than a fault-free run would.
  std::size_t rehanded = 0;
  for (const RequestMetrics& m : rep.requests) {
    if (m.attempt > 1) ++rehanded;
  }
  EXPECT_GT(rehanded, 0u);
}

// --- Pool-aware autoscaling -------------------------------------------------

TEST(Disagg, AutoscalerGrowsAndShrinksWithoutEmptyingEitherPool) {
  const auto trace = bursty_trace(36, 12, Duration::millis(40), small_shape(), 29);
  ClusterConfig cfg = disagg_config();
  cfg.warmup = Duration::millis(3);
  cfg.autoscale_period = Duration::millis(2);
  ClusterSim cluster{core::SystemConfig::dac24(), tiny_model(),
                     moe::SkewProfile::switch_like(),
                     uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced,
                                   SchedulerConfig{}),
                     cfg};
  const auto dispatcher = make_dispatcher(DispatchPolicy::kJoinShortestQueue, 11);
  AutoscaleConfig as;
  as.min_replicas = 2;
  as.max_replicas = 6;
  as.high_tokens_per_replica = 96;  // bursts force spawns...
  as.low_tokens_per_replica = 8;    // ...idle gaps force retirements
  const auto autoscaler = make_queue_pressure_autoscaler(as);
  const ClusterReport rep = cluster.run(trace, *dispatcher, autoscaler.get());

  ASSERT_EQ(rep.requests.size(), trace.size());
  EXPECT_GT(rep.handoffs, 0u);
  // Both boot pools kept at least their boot member and may have grown.
  EXPECT_GE(rep.prefill_pool.replicas, 1u);
  EXPECT_GE(rep.decode_pool.replicas, 2u);
  EXPECT_EQ(rep.prefill_pool.replicas + rep.decode_pool.replicas,
            rep.replicas.size());
  // Spawned replicas carry a pool role too: each replica's name declares it.
  for (const ReplicaReport& rr : rep.replicas) {
    const bool prefill = rr.name.find("[prefill]") != std::string::npos;
    if (!prefill) continue;
    EXPECT_GT(rep.prefill_pool.replicas, 0u);
  }
}

// --- Loop/thread agreement with disagg on (acceptance pin) -------------------

TEST(DisaggDiff, PlainDisaggFleetAgreesAcrossLoopsAndThreads) {
  Scenario sc;
  sc.trace = poisson_trace(24, 90.0, small_shape(), 21);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.cfg = disagg_config();
  expect_threads_agree(sc);
}

TEST(DisaggDiff, TwoPrefillReplicasAgree) {
  Scenario sc;
  sc.trace = poisson_trace(28, 120.0, small_shape(), 17);
  sc.specs = uniform_fleet(4, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.cfg = disagg_config(2);
  sc.policy = DispatchPolicy::kLeastOutstandingTokens;
  expect_threads_agree(sc);
}

TEST(DisaggDiff, FaultsCacheAndAutoscaleAgree) {
  // The kitchen sink: a dying decode replica, surviving checkpoints, and a
  // pool-aware autoscaler -- every disagg moving part at once, pinned across
  // both loops and 1/2/4/8 threads.
  Scenario sc;
  sc.trace = bursty_trace(28, 7, Duration::millis(25), small_shape(), 19);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[1].fault.fail_at = Duration::millis(35);
  sc.cfg = disagg_config();
  sc.cfg.warmup = Duration::millis(2);
  sc.cfg.autoscale_period = Duration::millis(3);
  sc.cfg.cache = enabled_cache();
  sc.cfg.cache.survive_failstop = true;
  sc.autoscaled = true;
  sc.autoscale.min_replicas = 2;
  sc.autoscale.max_replicas = 6;
  sc.autoscale.high_tokens_per_replica = 96;
  sc.autoscale.low_tokens_per_replica = 8;
  expect_threads_agree(sc);
}

}  // namespace
}  // namespace monde::serve
