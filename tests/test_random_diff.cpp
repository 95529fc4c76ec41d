// Randomized differential harness over the cluster feature lattice.
//
// Each seed deterministically draws one fleet + trace + ClusterConfig from
// the full feature lattice -- fail-stop and slow-down faults, autoscaling,
// prefix caching (lost / surviving, retirement migration), expert-aware
// serving (residency, rebalancing, pruning), disaggregated prefill/decode
// with priced handoffs, both batching modes, the EWMA health filter, and
// every stock dispatch policy -- then demands
// that the indexed calendar loop reproduce the classic reference loop
// bit-identically at 1, 2, 4, and 8 worker threads. The hand-written diff
// suites (test_calendar_diff.cpp, test_disagg.cpp) pin the combinations we
// thought of; this harness walks the ones we did not.
//
// The seed list is fixed, so CI runs are reproducible. Set
// MONDE_EXHAUSTIVE_TICK (the repo-wide "spend more cycles" switch) to sweep
// the wider nightly range. On a failure the offending seed is printed via
// SCOPED_TRACE; to reproduce, run with
// --gtest_filter=RandomDiff.* after adding the seed to kFastSeeds.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <random>
#include <string_view>
#include <vector>

#include "serve_fixtures.hpp"

namespace monde::serve {
namespace {

using namespace fixtures;

// Fast-CI sweep: a couple dozen seeds keeps the suite under ~15 s while
// still crossing every feature pair (see LatticeCoverage below).
constexpr std::uint64_t kFastSeeds[] = {1,  2,  3,  5,  8,  13, 21, 34,
                                        55, 89, 144, 233, 377, 32};
constexpr std::uint64_t kExhaustiveExtra = 48;  ///< extra seeds when opted in

bool exhaustive_enabled() {
  const char* v = std::getenv("MONDE_EXHAUSTIVE_TICK");
  return v != nullptr && std::string_view{v} != "0";
}

std::vector<std::uint64_t> sweep_seeds() {
  std::vector<std::uint64_t> seeds(std::begin(kFastSeeds), std::end(kFastSeeds));
  if (exhaustive_enabled()) {
    for (std::uint64_t s = 1000; s < 1000 + kExhaustiveExtra; ++s) {
      seeds.push_back(s);
    }
  }
  return seeds;
}

/// One deterministic draw from the feature lattice. Every branch below is a
/// function of `rng` alone, so a seed names a scenario forever; constraints
/// that would make a run degenerate (killing a pool's only member without an
/// autoscaler to respawn capacity) are excluded structurally, not by
/// rejection, so the draw count per dimension is seed-independent.
Scenario random_scenario(std::uint64_t seed) {
  std::mt19937_64 rng{seed * 0x9e3779b97f4a7c15ULL + 0xdeadbeef};
  const auto draw = [&](std::uint64_t lo, std::uint64_t hi) {
    return lo + rng() % (hi - lo + 1);  // inclusive; tiny modulo bias is fine
  };
  const auto chance = [&](std::uint64_t percent) { return rng() % 100 < percent; };

  Scenario sc;

  // --- Fleet shape and batching ------------------------------------------
  const std::size_t n_replicas = draw(2, 4);
  sc.cfg.disagg.enabled = chance(50);
  SchedulerConfig sched;
  sched.token_budget = std::int64_t{128} << draw(0, 2);  // 128 / 256 / 512
  sched.size_aware_admission = chance(30);
  if (!sc.cfg.disagg.enabled && chance(20)) {
    // Fixed batching (disaggregation requires continuous batching).
    sched.mode = BatchingMode::kFixed;
    (void)draw(2, 4);  // a deleted knob's draw: seeds keep their scenarios
  }
  sc.specs = uniform_fleet(n_replicas, core::StrategyKind::kMondeLoadBalanced,
                           sched, /*seed0=*/seed + 1);

  // --- Disaggregated prefill/decode --------------------------------------
  if (sc.cfg.disagg.enabled) {
    sc.cfg.disagg.prefill_replicas = (n_replicas >= 3 && chance(30)) ? 2 : 1;
    if (chance(30)) {
      sc.cfg.disagg.handoff_link = interconnect::LinkSpec::pcie_gen3_x16();
    }
  }

  // --- Prefix cache / recovery modes -------------------------------------
  if (chance(60)) {
    sc.cfg.cache.enabled = true;
    sc.cfg.cache.capacity_tokens = std::int64_t{1} << draw(8, 12);
    sc.cfg.cache.survive_failstop = chance(50);
    sc.cfg.cache.migrate_on_retire = chance(50);
    if (chance(40)) (void)draw(2, 8);  // unused draws: a seed names its scenario forever
  }

  // --- Expert-aware serving ----------------------------------------------
  if (chance(40)) {
    sc.cfg.expert.enabled = true;
    sc.cfg.expert.cache_capacity = draw(4, 24);
    if (chance(40)) {
      sc.cfg.expert.rebalance_period = Duration::millis(static_cast<double>(draw(5, 20)));
    }
    if (chance(30)) {
      sc.cfg.expert.prune_outstanding_tokens = static_cast<std::int64_t>(draw(64, 256));
    }
  }

  // --- Faults -------------------------------------------------------------
  // One fail-stop at most, and only on a replica whose death leaves every
  // pool non-empty (a dead last member would rightly abort the run).
  if (chance(50)) {
    std::vector<std::size_t> victims;
    const std::size_t prefill =
        sc.cfg.disagg.enabled ? sc.cfg.disagg.prefill_replicas : 0;
    for (std::size_t i = 0; i < n_replicas; ++i) {
      if (!sc.cfg.disagg.enabled) {
        victims.push_back(i);  // n_replicas >= 2: someone always survives
      } else if (i < prefill ? prefill >= 2 : n_replicas - prefill >= 2) {
        victims.push_back(i);
      }
    }
    if (!victims.empty()) {
      const std::size_t v = victims[draw(0, victims.size() - 1)];
      sc.specs[v].fault.fail_at = Duration::millis(static_cast<double>(draw(8, 60)));
    }
  }
  if (chance(30)) {
    // A slow-down window on some (possibly also failing) replica.
    const std::size_t v = draw(0, n_replicas - 1);
    sc.specs[v].fault.slow_from = Duration::millis(static_cast<double>(draw(0, 10)));
    sc.specs[v].fault.slow_until =
        sc.specs[v].fault.slow_from + Duration::millis(static_cast<double>(draw(10, 40)));
    sc.specs[v].fault.slow_factor = 1.0 + static_cast<double>(draw(1, 6)) * 0.5;
    if (chance(50)) sc.cfg.health.slow_ewma_factor = 1.5;  // engage the EWMA filter
  }

  // --- Autoscaling ---------------------------------------------------------
  if (chance(40)) {
    sc.autoscaled = true;
    sc.autoscale.min_replicas = draw(1, 2);
    sc.autoscale.max_replicas = n_replicas + draw(1, 3);
    sc.autoscale.high_tokens_per_replica = static_cast<std::int64_t>(draw(48, 192));
    sc.autoscale.low_tokens_per_replica = static_cast<std::int64_t>(draw(8, 32));
    if (chance(30)) (void)draw(5, 15);  // a deleted knob's draw: seeds keep their scenarios
    sc.cfg.autoscale_period = Duration::millis(static_cast<double>(draw(3, 8)));
  }

  // --- Dispatch policy -----------------------------------------------------
  // Eight slots, the residency-aware policies twice each: the draw range is
  // part of what a seed names, so it stays fixed.
  constexpr DispatchPolicy kPolicies[] = {
      DispatchPolicy::kRoundRobin,          DispatchPolicy::kJoinShortestQueue,
      DispatchPolicy::kLeastOutstandingTokens, DispatchPolicy::kPowerOfTwoChoices,
      DispatchPolicy::kExpertAffinity,      DispatchPolicy::kExpertAffinity,
      DispatchPolicy::kPrefixAffinity,      DispatchPolicy::kPrefixAffinity,
  };
  sc.policy = kPolicies[draw(0, std::size(kPolicies) - 1)];
  sc.dispatch_seed = draw(1, 1 << 20);

  // --- Trace ---------------------------------------------------------------
  RequestShape shape = small_shape();
  if (chance(40)) {  // decode-heavy mix: deeper decodes outlive the faults
    shape.new_tokens_min = 16;
    shape.new_tokens_max = 48;
  }
  if (chance(30)) shape.prompt_max = 96;
  if (chance(45)) {  // shared prefixes feed the KV caches + prefix policies
    shape.prefix_groups = static_cast<int>(draw(2, 5));
    shape.shared_fraction = 0.5 + 0.1 * static_cast<double>(draw(0, 4));
    shape.shared_prefix_len = static_cast<std::int64_t>(draw(4, 12));
    if (chance(50)) {  // skewed tenant popularity (the multi-tenant shape)
      shape.prefix_zipf_s = 0.5 * static_cast<double>(draw(1, 3));
    }
  }
  const int n_req = static_cast<int>(draw(24, 48));
  const std::uint64_t trace_seed = seed ^ 0xc0ffee;
  if (chance(50)) {
    sc.trace = poisson_trace(n_req, static_cast<double>(draw(150, 600)), shape, trace_seed);
  } else {
    sc.trace = bursty_trace(n_req, static_cast<int>(draw(4, 8)),
                            Duration::millis(static_cast<double>(draw(4, 12))), shape,
                            trace_seed);
  }
  sc.shape = shape;
  return sc;
}

// The whole point of the harness is breadth: if a refactor of the generator
// (or an over-eager constraint) silently stopped exercising a dimension,
// every seed would still pass and the suite would rot into a no-op. Pin that
// the fast sweep alone crosses each feature at least once.
TEST(RandomDiff, LatticeCoverageSpansEveryDimension) {
  int disagg = 0, cache = 0, survive = 0, expert = 0, rebalance = 0,
      autoscaled = 0, failstop = 0, slowdown = 0, fixed = 0, size_aware = 0,
      two_prefill = 0, prefix_trace = 0, zipf_trace = 0, prefix_policy = 0;
  for (const std::uint64_t seed : kFastSeeds) {
    const Scenario sc = random_scenario(seed);
    prefix_trace += sc.shape.prefix_groups > 0;
    zipf_trace += sc.shape.prefix_zipf_s > 0.0;
    prefix_policy += sc.policy == DispatchPolicy::kPrefixAffinity;
    disagg += sc.cfg.disagg.enabled;
    two_prefill += sc.cfg.disagg.enabled && sc.cfg.disagg.prefill_replicas == 2;
    cache += sc.cfg.cache.enabled;
    survive += sc.cfg.cache.enabled && sc.cfg.cache.survive_failstop;
    expert += sc.cfg.expert.enabled;
    rebalance += sc.cfg.expert.enabled &&
                 sc.cfg.expert.rebalance_period > Duration::zero();
    autoscaled += sc.autoscaled;
    fixed += sc.specs[0].sched.mode == BatchingMode::kFixed;
    size_aware += sc.specs[0].sched.size_aware_admission;
    for (const ReplicaSpec& spec : sc.specs) {
      if (spec.fault.fail_stop()) ++failstop;
      if (spec.fault.slow_factor != 1.0) ++slowdown;
    }
  }
  EXPECT_GT(disagg, 0);
  EXPECT_GT(two_prefill, 0);
  EXPECT_GT(cache, 0);
  EXPECT_GT(survive, 0);
  EXPECT_GT(expert, 0);
  EXPECT_GT(rebalance, 0);
  EXPECT_GT(autoscaled, 0);
  EXPECT_GT(failstop, 0);
  EXPECT_GT(slowdown, 0);
  EXPECT_GT(fixed, 0);
  EXPECT_GT(size_aware, 0);
  EXPECT_GT(prefix_trace, 0);
  EXPECT_GT(zipf_trace, 0);
  EXPECT_GT(prefix_policy, 0);
}

TEST(RandomDiff, SeededLatticeAgreesAcrossLoopsAndThreadCounts) {
  for (const std::uint64_t seed : sweep_seeds()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_threads_agree(random_scenario(seed));
    if (HasFatalFailure()) return;  // one seed's report dump is enough
  }
}

}  // namespace
}  // namespace monde::serve
