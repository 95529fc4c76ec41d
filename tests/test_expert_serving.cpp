// Unit tests for expert-aware serving: per-request ExpertProfile derivation
// (deterministic, layer-major, signature-consistent), expert-miss pricing
// and preloads in ServerSim, the gating-aware dispatcher, and the
// cluster-level rebalance / pruned-degraded-mode machinery.
#include <gtest/gtest.h>

#include <bit>

#include "moe/expert_profile.hpp"
#include "moe/workload.hpp"
#include "serve/arrivals.hpp"
#include "serve/cluster.hpp"
#include "serve_fixtures.hpp"

namespace monde::serve {
namespace {

// The shared fixtures' expert-model variant (2 decoder MoE layers x 16
// experts, switch_variant defaults for vocab/top_k).
using fixtures::small_shape;

moe::MoeModelConfig tiny_model() { return fixtures::tiny_expert_model(); }

TEST(ExpertProfile, DerivationIsDeterministicAndLayerMajor) {
  moe::WorkloadGenerator a{tiny_model(), moe::SkewProfile::switch_like(), 42};
  moe::WorkloadGenerator b{tiny_model(), moe::SkewProfile::switch_like(), 42};
  const moe::ExpertProfile p1 = a.expert_profile_for(7, /*width=*/2);
  const moe::ExpertProfile p2 = b.expert_profile_for(7, /*width=*/2);
  ASSERT_EQ(p1.experts.size(), p2.experts.size());
  for (std::size_t i = 0; i < p1.experts.size(); ++i) {
    EXPECT_EQ(p1.experts[i].layer, p2.experts[i].layer);
    EXPECT_EQ(p1.experts[i].expert, p2.experts[i].expert);
  }
  EXPECT_EQ(p1.signature, p2.signature);
  EXPECT_FALSE(p1.empty());

  // Layer-major: decoder MoE layer ids, ascending, at most `width` each.
  const int first_layer = tiny_model().encoder_moe_layers();
  int prev_layer = first_layer - 1;
  int run = 0;
  for (const auto& e : p1.experts) {
    EXPECT_GE(e.layer, first_layer);
    EXPECT_GE(e.layer, prev_layer);
    run = e.layer == prev_layer ? run + 1 : 1;
    EXPECT_LE(run, 2);
    prev_layer = e.layer;
    EXPECT_GE(e.expert, 0);
    EXPECT_LT(e.expert, 16);
  }

  // Different requests draw different profiles: across a batch of ids at
  // least one signature must differ from p1's (individual pairs may
  // collide when two requests happen to sample the same top experts).
  bool any_differs = false;
  for (std::uint64_t rid = 1; rid <= 16; ++rid) {
    if (a.expert_profile_for(rid, /*width=*/2).signature != p1.signature) {
      any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs);
  // The profiling stream never perturbs the served workload's stream.
  const auto before = a.decoder_step_for(7, 0);
  (void)a.expert_profile_for(7, /*width=*/2);
  const auto after = a.decoder_step_for(7, 0);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].tokens_per_expert, after[i].tokens_per_expert);
  }
}

TEST(ExpertProfile, SignatureMatchesEntries) {
  moe::ExpertProfile p;
  p.experts = {{2, 3}, {3, 7}};
  p.rebuild_signature();
  const std::uint64_t expected = (std::uint64_t{1} << moe::expert_signature_bit(2, 3)) |
                                 (std::uint64_t{1} << moe::expert_signature_bit(3, 7));
  EXPECT_EQ(p.signature, expected);
  p.experts.clear();
  p.rebuild_signature();
  EXPECT_EQ(p.signature, 0u);
  EXPECT_TRUE(p.empty());
}

TEST(ExpertServing, MissesArePricedIntoStepsAndReport) {
  const auto mk_engine = [] {
    return core::InferenceEngine{core::SystemConfig::dac24(), tiny_model(),
                                 moe::SkewProfile::switch_like(),
                                 core::StrategyKind::kMondeLoadBalanced, 42};
  };
  moe::WorkloadGenerator profiler{tiny_model(), moe::SkewProfile::switch_like(), 42};
  const auto run_one = [&](const ExpertServingConfig& expert) {
    auto engine = mk_engine();
    ServerSim server{engine, SchedulerConfig{}, Duration::zero(), FaultSpec{},
                     PrefixCacheConfig{}, expert};
    for (std::uint64_t id = 0; id < 4; ++id) {
      Request rq;
      rq.id = id;
      rq.arrival = Duration::zero();
      rq.prompt_len = 16;
      rq.max_new_tokens = 4;
      rq.expert_profile = profiler.expert_profile_for(id, /*width=*/2);
      server.enqueue(rq);
    }
    server.drain();
    return server.report();
  };
  ExpertServingConfig off;
  ExpertServingConfig on;
  on.enabled = true;
  on.cache_capacity = 4;  // far fewer slots than 2 layers x 16 experts
  const ServeReport r_off = run_one(off);
  const ServeReport r_on = run_one(on);

  EXPECT_EQ(r_off.expert_hits + r_off.expert_misses, 0u);
  EXPECT_GT(r_on.expert_misses, 0u);  // cold cache must fetch
  EXPECT_GT(r_on.expert_hits, 0u);    // resident experts re-hit across steps
  EXPECT_GT(r_on.expert_hit_rate, 0.0);
  EXPECT_LE(r_on.expert_hit_rate, 1.0);
  EXPECT_GT(r_on.resident_experts, 0u);
  EXPECT_LE(r_on.resident_experts, on.cache_capacity);
  // Fetches cost simulated time: same requests, strictly later completion.
  EXPECT_GT(r_on.makespan, r_off.makespan);
  Duration fetch_total = Duration::zero();
  for (const StepRecord& s : r_on.steps) fetch_total += s.expert_fetch;
  EXPECT_GT(fetch_total, Duration::zero());
  EXPECT_NEAR((r_on.makespan - r_off.makespan).ms(), fetch_total.ms(), 1e-9);
}

TEST(ExpertServing, PreloadInstallsResidencyWithoutDemandMisses) {
  auto engine = core::InferenceEngine{core::SystemConfig::dac24(), tiny_model(),
                                      moe::SkewProfile::switch_like(),
                                      core::StrategyKind::kMondeLoadBalanced, 42};
  ExpertServingConfig expert;
  expert.enabled = true;
  expert.cache_capacity = 8;
  ServerSim server{engine, SchedulerConfig{}, Duration::zero(), FaultSpec{},
                   PrefixCacheConfig{}, expert};
  const std::vector<core::ExpertId> hot{{2, 0}, {2, 1}, {3, 5}};
  EXPECT_EQ(server.preload_experts(hot), 3u);
  EXPECT_EQ(server.preload_experts(hot), 0u);  // already resident
  for (const core::ExpertId& id : hot) EXPECT_TRUE(server.expert_cache().contains(id));
  // Preloads are transfers, not demand misses.
  EXPECT_EQ(server.expert_cache().misses(), 0u);
  EXPECT_NE(server.expert_signature(), 0u);

  // A disabled server's preload is an inert no-op.
  auto engine2 = core::InferenceEngine{core::SystemConfig::dac24(), tiny_model(),
                                       moe::SkewProfile::switch_like(),
                                       core::StrategyKind::kMondeLoadBalanced, 42};
  ServerSim plain{engine2, SchedulerConfig{}};
  EXPECT_EQ(plain.preload_experts(hot), 0u);
  EXPECT_EQ(plain.expert_signature(), 0u);
}

ReplicaSnapshot snap(std::size_t replica, std::int64_t outstanding, std::uint64_t sig) {
  ReplicaSnapshot s;
  s.replica = replica;
  s.outstanding_tokens = outstanding;
  s.expert_sig = sig;
  return s;
}

Request profiled_request(std::vector<moe::ExpertProfile::Entry> entries) {
  Request rq;
  rq.expert_profile.experts = std::move(entries);
  rq.expert_profile.rebuild_signature();
  return rq;
}

TEST(ExpertDispatch, AffinityPrefersOverlapAndBreaksTiesByLoad) {
  const auto dispatcher = make_dispatcher(DispatchPolicy::kExpertAffinity, 17);
  EXPECT_EQ(dispatcher->name(), "expert-affinity");
  const Request rq = profiled_request({{2, 3}, {3, 7}});
  const std::uint64_t full = rq.expert_profile.signature;
  const std::uint64_t half = std::uint64_t{1} << moe::expert_signature_bit(2, 3);

  // Full overlap wins over partial and none (loads equal: no spill-over).
  std::vector<ReplicaSnapshot> v{snap(0, 10, 0), snap(1, 10, full), snap(2, 10, half)};
  EXPECT_EQ(dispatcher->pick(v, rq), 1u);
  // Equal overlap: the less-loaded replica wins.
  std::vector<ReplicaSnapshot> tie{snap(0, 20, full), snap(1, 10, full)};
  EXPECT_EQ(dispatcher->pick(tie, rq), 1u);
  // No profile: reduces to least-outstanding-tokens.
  Request empty;
  std::vector<ReplicaSnapshot> plain{snap(0, 20, full), snap(1, 10, 0)};
  EXPECT_EQ(dispatcher->pick(plain, empty), 1u);
}

TEST(ExpertDispatch, AffinitySpillsOverWhenChoiceIsOverloaded) {
  const auto dispatcher = make_dispatcher(DispatchPolicy::kExpertAffinity, 17);
  const Request rq = profiled_request({{2, 3}});
  // With 2 replicas the spill-over probes are exactly both of them, so the
  // outcome is RNG-independent: the overlap choice (0) carries more than
  // twice the load of the alternative and must be abandoned.
  std::vector<ReplicaSnapshot> v{snap(0, 1000, rq.expert_profile.signature),
                                 snap(1, 10, 0)};
  EXPECT_EQ(dispatcher->pick(v, rq), 1u);
  // Below the 2x threshold the affinity choice sticks.
  std::vector<ReplicaSnapshot> ok{snap(0, 15, rq.expert_profile.signature),
                                  snap(1, 10, 0)};
  EXPECT_EQ(dispatcher->pick(ok, rq), 0u);
}

TEST(ExpertCluster, ReportsResidencyRebalanceAndPruning) {
  ClusterConfig cfg;
  cfg.expert.enabled = true;
  // Fewer cache slots than hot experts: every rebalance tick finds at
  // least one hot expert absent from each replica, so preloads must fetch.
  cfg.expert.cache_capacity = 2;
  cfg.expert.rebalance_period = Duration::millis(10.0);
  cfg.expert.prune_outstanding_tokens = 64;
  ClusterSim cluster{core::SystemConfig::dac24(), tiny_model(),
                     moe::SkewProfile::switch_like(),
                     uniform_fleet(2, core::StrategyKind::kMondeLoadBalanced,
                                   SchedulerConfig{}),
                     cfg};
  const auto dispatcher = make_dispatcher(DispatchPolicy::kExpertAffinity, 17);
  const auto trace = poisson_trace(48, 400.0, small_shape(), 21);
  const ClusterReport rep = cluster.run(trace, *dispatcher);

  EXPECT_GT(rep.expert_hits + rep.expert_misses, 0u);
  EXPECT_GT(rep.expert_hit_rate, 0.0);
  EXPECT_LE(rep.expert_hit_rate, 1.0);
  EXPECT_GT(rep.expert_migrations, 0u);  // the tick preloaded hot experts
  EXPECT_GT(rep.pruned_requests, 0u);    // the overload threshold tripped
  bool saw_rebalance = false;
  for (const ClusterEvent& ev : rep.events) {
    if (ev.kind == ClusterEvent::Kind::kExpertRebalance) saw_rebalance = true;
  }
  EXPECT_TRUE(saw_rebalance);
  EXPECT_EQ(to_string(ClusterEvent::Kind::kExpertRebalance), "expert-rebalance");
}

TEST(ExpertCluster, DisabledConfigReportsAllZeros) {
  ClusterSim cluster{core::SystemConfig::dac24(), tiny_model(),
                     moe::SkewProfile::switch_like(),
                     uniform_fleet(2, core::StrategyKind::kMondeLoadBalanced,
                                   SchedulerConfig{}),
                     ClusterConfig{}};
  const auto dispatcher = make_dispatcher(DispatchPolicy::kLeastOutstandingTokens, 17);
  const ClusterReport rep = cluster.run(poisson_trace(12, 200.0, small_shape(), 21),
                                        *dispatcher);
  EXPECT_EQ(rep.expert_hits, 0u);
  EXPECT_EQ(rep.expert_misses, 0u);
  EXPECT_DOUBLE_EQ(rep.expert_hit_rate, 0.0);
  EXPECT_EQ(rep.expert_migrations, 0u);
  EXPECT_EQ(rep.pruned_requests, 0u);
}

// --- Departing requests release expert residency (evacuate/harvest) ---------

TEST(ExpertServing, EvacuationReleasesDepartingResidencyKeepsWarmSets) {
  // Request 0 (short) and request 1 (long) share expert (2,0); (3,0) is
  // request 0's alone and (3,5) request 1's alone. Once 0 has finished and 1
  // is evacuated, the experts pinned only by in-flight work must leave the
  // cache with it -- (2,0) because 0's pin was already released at its
  // finish, (3,5) trivially -- while 0's private (3,0) stays warm: finished
  // requests leave their experts resident for future overlap.
  auto engine = core::InferenceEngine{core::SystemConfig::dac24(), tiny_model(),
                                      moe::SkewProfile::switch_like(),
                                      core::StrategyKind::kMondeLoadBalanced, 42};
  ExpertServingConfig expert;
  expert.enabled = true;
  expert.cache_capacity = 32;  // roomy: no LRU pressure muddies the test
  ServerSim server{engine, SchedulerConfig{}, Duration::zero(), FaultSpec{},
                   PrefixCacheConfig{}, expert};
  Request a = profiled_request({{2, 0}, {3, 0}});
  a.id = 0;
  a.arrival = Duration::zero();
  a.prompt_len = 16;
  a.max_new_tokens = 2;
  Request b = profiled_request({{2, 0}, {3, 5}});
  b.id = 1;
  b.arrival = Duration::zero();
  b.prompt_len = 16;
  b.max_new_tokens = 512;
  server.enqueue(a);
  server.enqueue(b);
  Duration t = Duration::millis(1);
  while (server.in_flight() > 1 && t < Duration::seconds(2)) {
    server.advance_to(t);
    t += Duration::millis(1);
  }
  ASSERT_EQ(server.in_flight(), 1u);  // 0 finished, 1 still decoding
  ASSERT_TRUE(server.expert_cache().contains({2, 0}));
  ASSERT_TRUE(server.expert_cache().contains({3, 0}));
  ASSERT_TRUE(server.expert_cache().contains({3, 5}));

  const std::vector<Request> moved = server.evacuate();
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0].id, 1u);
  EXPECT_GT(moved[0].resume.resident_tokens(), 0);  // progress annotations intact
  EXPECT_FALSE(server.expert_cache().contains({2, 0}));
  EXPECT_FALSE(server.expert_cache().contains({3, 5}));
  EXPECT_TRUE(server.expert_cache().contains({3, 0}));
}

TEST(ExpertServing, HarvestAfterFailStopReleasesResidency) {
  // Same invariant on the failure path: requests stranded by a fail-stop
  // take their expert demand with them, so a re-homed request re-fetches on
  // the retry replica instead of phantom-hitting the dead one's cache.
  auto engine = core::InferenceEngine{core::SystemConfig::dac24(), tiny_model(),
                                      moe::SkewProfile::switch_like(),
                                      core::StrategyKind::kMondeLoadBalanced, 42};
  ExpertServingConfig expert;
  expert.enabled = true;
  expert.cache_capacity = 32;
  FaultSpec fault;
  fault.fail_at = Duration::millis(5);
  ServerSim server{engine, SchedulerConfig{}, Duration::zero(), fault,
                   PrefixCacheConfig{}, expert};
  Request rq = profiled_request({{2, 1}, {3, 2}});
  rq.id = 0;
  rq.arrival = Duration::zero();
  rq.prompt_len = 16;
  rq.max_new_tokens = 4096;  // still decoding at the death
  server.enqueue(rq);
  server.advance_to(Duration::millis(10));
  ASSERT_TRUE(server.failed());
  ASSERT_TRUE(server.expert_cache().contains({2, 1}));  // fetched pre-death
  const std::vector<Request> stranded = server.evacuate();
  ASSERT_EQ(stranded.size(), 1u);
  EXPECT_FALSE(server.expert_cache().contains({2, 1}));
  EXPECT_FALSE(server.expert_cache().contains({3, 2}));
}

TEST(ExpertCluster, ScaleDownMigrationCompletesWithExpertServing) {
  // End-to-end regression for evacuate() x expert residency: a shrinking
  // fleet live-migrates in-flight profiled requests and every request still
  // completes exactly once, with expert accounting intact.
  ClusterConfig cfg;
  cfg.expert.enabled = true;
  cfg.expert.cache_capacity = 4;
  cfg.autoscale_period = Duration::millis(2);
  cfg.cache.enabled = true;
  cfg.cache.kv_bytes_per_token = Bytes{16};
  cfg.cache.migration_bw = Bandwidth::gbps(100.0);
  cfg.cache.migrate_on_retire = true;
  ClusterSim cluster{core::SystemConfig::dac24(), tiny_model(),
                     moe::SkewProfile::switch_like(),
                     uniform_fleet(2, core::StrategyKind::kMondeLoadBalanced,
                                   SchedulerConfig{}),
                     cfg};
  const auto dispatcher = make_dispatcher(DispatchPolicy::kExpertAffinity, 17);
  const auto trace = bursty_trace(16, 16, Duration::millis(1), small_shape(), 3);
  AutoscaleConfig as;
  as.min_replicas = 1;
  as.max_replicas = 2;
  as.high_tokens_per_replica = 1 << 20;  // never grow...
  as.low_tokens_per_replica = 1 << 19;   // ...always want to shrink
  const auto autoscaler = make_queue_pressure_autoscaler(as);
  const ClusterReport rep = cluster.run(trace, *dispatcher, autoscaler.get());
  ASSERT_EQ(rep.requests.size(), trace.size());
  EXPECT_GT(rep.migrations, 0u);
  EXPECT_GT(rep.expert_hits + rep.expert_misses, 0u);
}

TEST(ExpertCluster, ValidationCatchesBadConfigs) {
  ExpertServingConfig bad;
  bad.enabled = true;
  bad.cache_capacity = 0;
  EXPECT_THROW(bad.validate(), Error);
  bad.cache_capacity = 1;  // the smallest residency is accepted
  EXPECT_NO_THROW(bad.validate());
  bad = {};
  bad.enabled = true;
  bad.rebalance_period = Duration::millis(-1.0);
  EXPECT_THROW(bad.validate(), Error);
  bad = {};
  bad.enabled = true;
  bad.prune_outstanding_tokens = -1;
  EXPECT_THROW(bad.validate(), Error);
  // Disabled configs are never validated-failed, however malformed.
  bad.enabled = false;
  EXPECT_NO_THROW(bad.validate());
}

}  // namespace
}  // namespace monde::serve
