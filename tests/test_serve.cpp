// Unit tests for the serving layer: request model, arrival traces, the
// continuous-batch scheduler, and the end-to-end server simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <string>

#include "common/error.hpp"
#include "moe/workload.hpp"
#include "ndp/ndp_core.hpp"
#include "serve/arrivals.hpp"
#include "serve/server.hpp"

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

/// The NDP simulator every engine of this suite shares: sharing is
/// timing-neutral, and each cold expert shape is simulated once per run.
const std::shared_ptr<ndp::NdpCoreSim>& suite_ndp() {
  static const core::SystemConfig sys = core::SystemConfig::dac24();
  static const auto ndp = std::make_shared<ndp::NdpCoreSim>(sys.ndp, sys.monde_mem);
  return ndp;
}

core::InferenceEngine make_engine(core::StrategyKind kind, std::uint64_t seed = 42) {
  return core::InferenceEngine{core::SystemConfig::dac24(), tiny_model(),
                               moe::SkewProfile::switch_like(), kind, seed, suite_ndp()};
}

RequestShape small_shape() {
  RequestShape s;
  s.prompt_min = 16;
  s.prompt_max = 48;
  s.new_tokens_min = 2;
  s.new_tokens_max = 8;
  return s;
}

std::vector<Request> test_trace() {
  return poisson_trace(12, /*rate_per_s=*/40.0, small_shape(), /*seed=*/5);
}

// --- Request / arrivals -------------------------------------------------------

TEST(Request, ValidationCatchesBadRequests) {
  Request rq{0, Duration::zero(), 8, 4};
  EXPECT_NO_THROW(rq.validate());
  rq.prompt_len = 0;
  EXPECT_THROW(rq.validate(), Error);
  rq = {1, Duration::zero(), 8, 0};
  EXPECT_THROW(rq.validate(), Error);
  rq = {2, Duration::zero() - Duration::nanos(1), 8, 4};
  EXPECT_THROW(rq.validate(), Error);
}

TEST(Arrivals, ClosedLoopAllAtTimeZero) {
  const auto trace = closed_loop_trace(10, small_shape(), 1);
  ASSERT_EQ(trace.size(), 10u);
  for (const auto& rq : trace) {
    EXPECT_EQ(rq.arrival, Duration::zero());
    EXPECT_GE(rq.prompt_len, 16);
    EXPECT_LE(rq.prompt_len, 48);
    EXPECT_GE(rq.max_new_tokens, 2);
    EXPECT_LE(rq.max_new_tokens, 8);
  }
}

TEST(Arrivals, IdsAreSequentialAndUnique) {
  const auto trace = poisson_trace(20, 10.0, small_shape(), 2);
  std::set<std::uint64_t> ids;
  for (const auto& rq : trace) ids.insert(rq.id);
  EXPECT_EQ(ids.size(), 20u);
  EXPECT_EQ(*ids.begin(), 0u);
  EXPECT_EQ(*ids.rbegin(), 19u);
}

TEST(Arrivals, PoissonMeanInterArrivalMatchesRate) {
  const auto trace = poisson_trace(4000, 25.0, small_shape(), 3);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].arrival, trace[i - 1].arrival);  // sorted, non-negative gaps
  }
  const double mean_gap_s = trace.back().arrival.sec() / static_cast<double>(trace.size());
  EXPECT_NEAR(mean_gap_s, 1.0 / 25.0, 0.004);
}

TEST(Arrivals, BurstyGroupsArrivals) {
  const auto trace = bursty_trace(9, 3, Duration::millis(10), small_shape(), 4);
  ASSERT_EQ(trace.size(), 9u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(trace[i].arrival.ms(), 10.0 * static_cast<double>(i / 3));
  }
}

TEST(Arrivals, DeterministicGivenSeed) {
  const auto a = poisson_trace(16, 10.0, small_shape(), 9);
  const auto b = poisson_trace(16, 10.0, small_shape(), 9);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].prompt_len, b[i].prompt_len);
    EXPECT_EQ(a[i].max_new_tokens, b[i].max_new_tokens);
  }
}

TEST(Arrivals, RejectsBadParameters) {
  EXPECT_THROW((void)closed_loop_trace(0, small_shape(), 1), Error);
  EXPECT_THROW((void)poisson_trace(4, 0.0, small_shape(), 1), Error);
  EXPECT_THROW((void)bursty_trace(4, 0, Duration::millis(1), small_shape(), 1), Error);
  EXPECT_THROW((void)bursty_trace(4, 2, Duration::zero(), small_shape(), 1), Error);
  RequestShape bad = small_shape();
  bad.prompt_max = bad.prompt_min - 1;
  EXPECT_THROW((void)closed_loop_trace(4, bad, 1), Error);
}

// --- Scheduler ----------------------------------------------------------------

// Pushes a trace already in (arrival, id) order, then seals the scheduler.
void push_all(ContinuousBatchScheduler& sched, const std::vector<Request>& trace) {
  for (const Request& rq : trace) sched.push(rq);
  sched.seal();
}

TEST(Scheduler, ConfigValidation) {
  SchedulerConfig cfg;
  cfg.token_budget = 0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg.token_budget = -1;
  EXPECT_THROW(cfg.validate(), Error);
  // Fixed mode's batch of kFixedBatch must fit the token budget.
  cfg = SchedulerConfig{};
  cfg.mode = BatchingMode::kFixed;
  cfg.token_budget = kFixedBatch - 1;
  EXPECT_THROW(cfg.validate(), Error);
  cfg.token_budget = kFixedBatch;
  EXPECT_NO_THROW(cfg.validate());
  // kFixedBatch binds only in fixed mode: continuous mode accepts a budget
  // below it.
  cfg = SchedulerConfig{};
  cfg.token_budget = 4;
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_NO_THROW(ContinuousBatchScheduler{cfg});
}

TEST(Scheduler, ContinuousAdmitsWithinBudget) {
  SchedulerConfig cfg;
  cfg.token_budget = 100;
  ContinuousBatchScheduler sched{cfg};
  // Three requests with 40-token prompts: only two fit (40+40+2 <= 100).
  push_all(sched, {{0, Duration::zero(), 40, 4},
                  {1, Duration::zero(), 40, 4},
                  {2, Duration::zero(), 40, 4}});
  sched.release_arrivals(Duration::zero());
  EXPECT_EQ(sched.admit().size(), 2u);
  EXPECT_EQ(sched.active().size(), 2u);
  // The third waits until slots free up; with two active decode slots,
  // 40 + 2 + 1 <= 100 fits on the next boundary.
  EXPECT_EQ(sched.admit().size(), 1u);
}

TEST(Scheduler, OversizedPromptAdmittedAloneOnEmptyServer) {
  SchedulerConfig cfg;
  cfg.token_budget = 32;
  ContinuousBatchScheduler sched{cfg};
  push_all(sched, {{0, Duration::zero(), 100, 2}, {1, Duration::zero(), 8, 2}});
  sched.release_arrivals(Duration::zero());
  const auto first = sched.admit();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0]->request.prompt_len, 100);
  EXPECT_EQ(sched.active().size(), 1u);
}

TEST(Scheduler, FixedWaitsForFullBatch) {
  SchedulerConfig cfg;
  cfg.mode = BatchingMode::kFixed;
  ContinuousBatchScheduler sched{cfg};
  // One short of a full batch at t = 0; the last member arrives at 5 ms.
  std::vector<Request> trace;
  for (std::int64_t i = 0; i < kFixedBatch; ++i) {
    const Duration at = i + 1 < kFixedBatch ? Duration::zero() : Duration::millis(5);
    trace.push_back({static_cast<std::uint64_t>(i), at, 8, 2});
  }
  push_all(sched, trace);
  sched.release_arrivals(Duration::zero());
  EXPECT_TRUE(sched.admit().empty());  // waits: the batch's last arrival is still due
  EXPECT_DOUBLE_EQ(sched.next_arrival().ms(), 5.0);
  sched.release_arrivals(Duration::millis(5));
  EXPECT_EQ(sched.admit().size(), static_cast<std::size_t>(kFixedBatch));
}

TEST(Scheduler, MergedStepWorksConserveRoutedTokens) {
  auto engine = make_engine(core::StrategyKind::kMondeAmove);
  SchedulerConfig cfg;
  ContinuousBatchScheduler sched{cfg};
  push_all(sched, {{0, Duration::zero(), 8, 4}, {1, Duration::zero(), 8, 4}});
  sched.release_arrivals(Duration::zero());
  ASSERT_EQ(sched.admit().size(), 2u);
  const auto works = sched.step_works(engine.workload());
  ASSERT_EQ(works.size(), 2u);  // tiny model: 2 decoder MoE layers
  for (const auto& w : works) {
    EXPECT_EQ(w.total_tokens, 2);
    EXPECT_EQ(w.routed_tokens(), 2u * 2u);  // 2 requests x top-2
  }
}

TEST(Scheduler, StepWorksEqualMergedDrawsEveryStep) {
  // The scheduler routes each step in place into storage it reuses; every
  // step's works must equal merge_layer_works() of the active requests'
  // decoder_step_for() draws, as the batch grows, mixes depths and drains.
  auto engine = make_engine(core::StrategyKind::kMondeLoadBalanced);
  SchedulerConfig cfg;
  ContinuousBatchScheduler sched{cfg};
  push_all(sched, {{0, Duration::zero(), 8, 3},
                   {1, Duration::zero(), 8, 6},
                   {2, Duration::millis(2), 8, 2},
                   {3, Duration::millis(3), 8, 5}});
  sched.seal();
  Duration t = Duration::zero();
  int steps = 0;
  while (!sched.drained()) {
    sched.release_arrivals(t);
    (void)sched.admit();
    t += Duration::millis(1);
    if (sched.active().empty()) continue;
    std::vector<std::vector<moe::MoeLayerWork>> draws;
    for (const core::DecodeSlot& slot : sched.slots()) {
      draws.push_back(engine.workload().decoder_step_for(slot.request_id, slot.step));
    }
    const auto want = moe::WorkloadGenerator::merge_layer_works(draws);
    const auto& got = sched.step_works(engine.workload());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].layer_id, want[i].layer_id);
      EXPECT_EQ(got[i].total_tokens, want[i].total_tokens);
      EXPECT_EQ(got[i].top_k, want[i].top_k);
      EXPECT_EQ(got[i].tokens_per_expert, want[i].tokens_per_expert);
    }
    sched.complete_step(t);
    ++steps;
  }
  EXPECT_GE(steps, 6);
}

TEST(Scheduler, BurstAdmissionDrainsFifoWithinBudget) {
  // Regression for the O(n^2) vector-head erase in admit(): an arrival flood
  // must admit strictly in FIFO order and within the token budget every step.
  SchedulerConfig cfg;
  cfg.token_budget = 64;
  ContinuousBatchScheduler sched{cfg};
  std::vector<Request> trace;
  const int n = 2000;
  trace.reserve(n);
  for (int i = 0; i < n; ++i) {
    trace.push_back({static_cast<std::uint64_t>(i), Duration::zero(), 4, 2});
  }
  push_all(sched, trace);
  sched.release_arrivals(Duration::zero());
  std::uint64_t next_expected = 0;
  Duration t = Duration::zero();
  while (!sched.drained()) {
    const auto newly = sched.admit();
    std::int64_t prefill = 0;
    for (const RequestState* rs : newly) {
      EXPECT_EQ(rs->request.id, next_expected++);
      prefill += rs->request.prompt_len;
    }
    EXPECT_LE(prefill + static_cast<std::int64_t>(sched.active().size()), cfg.token_budget);
    ASSERT_FALSE(sched.active().empty());
    t += Duration::millis(1);
    sched.complete_step(t);
  }
  EXPECT_EQ(next_expected, static_cast<std::uint64_t>(n));
}

TEST(Scheduler, FixedModePadsDoneSlotsAtFrozenDepth) {
  // Regression: complete_step() used to advance the decode depth of already
  // -done padded slots, so slots() reported depths for tokens that never
  // surfaced (inflating the attention price of fixed-mode padding).
  SchedulerConfig cfg;
  cfg.mode = BatchingMode::kFixed;
  ContinuousBatchScheduler sched{cfg};
  // One full batch: req 0 wants one token, every other request three.
  std::vector<Request> trace;
  for (std::int64_t i = 0; i < kFixedBatch; ++i) {
    trace.push_back({static_cast<std::uint64_t>(i), Duration::zero(), 8, i == 0 ? 1 : 3});
  }
  push_all(sched, trace);
  sched.release_arrivals(Duration::zero());
  const auto batch = static_cast<std::size_t>(kFixedBatch);
  ASSERT_EQ(sched.admit().size(), batch);

  sched.complete_step(Duration::millis(1));  // all surface a token; req 0 done
  auto slots = sched.slots();
  ASSERT_EQ(slots.size(), batch);  // the padded slot still occupies the batch
  for (const auto& slot : slots) EXPECT_EQ(slot.step, 1);

  sched.complete_step(Duration::millis(2));  // only the live requests advance
  slots = sched.slots();
  ASSERT_EQ(slots.size(), batch);
  EXPECT_EQ(slots[0].step, 1);  // frozen at its final depth (KV stops growing)
  for (std::size_t i = 1; i < batch; ++i) EXPECT_EQ(slots[i].step, 2);
  EXPECT_EQ(sched.states()[0].generated, 1);  // padding surfaces no tokens

  sched.complete_step(Duration::millis(3));  // the rest finish -> batch drains
  EXPECT_TRUE(sched.drained());
  EXPECT_EQ(sched.records()[0].generated, 1);
  EXPECT_DOUBLE_EQ(sched.records()[0].completion.ms(), 1.0);
  for (std::size_t i = 1; i < batch; ++i) {
    EXPECT_EQ(sched.records()[i].generated, 3);
    EXPECT_DOUBLE_EQ(sched.records()[i].completion.ms(), 3.0);
  }
}

// --- ServerSim ----------------------------------------------------------------

TEST(ServerSim, NextEventTimeWaitsOnUnfilledFixedBatch) {
  // An under-full fixed batch on an unsealed server cannot step until more
  // arrivals come or drain() seals it; next_event_time() must say so
  // (infinite) rather than advertise the current boundary forever.
  SchedulerConfig cfg;
  cfg.mode = BatchingMode::kFixed;
  auto engine = make_engine(core::StrategyKind::kMondeAmove);
  ServerSim sim{engine, cfg};
  sim.enqueue({0, Duration::zero(), 8, 2});
  sim.advance_to(Duration::millis(1));  // releases the arrival; batch stays under-full
  EXPECT_EQ(sim.in_flight(), 1u);
  EXPECT_EQ(sim.next_event_time(), Duration::infinite());
  sim.drain();  // seal -> the partial batch finally admits
  EXPECT_TRUE(sim.drained());
  EXPECT_EQ(sim.report().requests.size(), 1u);
}

TEST(ServerSim, IncrementalEventApiMatchesOneShotRun) {
  // Feeding the trace through enqueue()/advance_to()/drain() -- the path a
  // cluster dispatcher drives -- must reproduce run() exactly.
  const auto trace = test_trace();
  SchedulerConfig cfg;
  auto ref_engine = make_engine(core::StrategyKind::kMondeLoadBalanced, 7);
  const ServeReport once = ServerSim{ref_engine, cfg}.run(trace);

  auto inc_engine = make_engine(core::StrategyKind::kMondeLoadBalanced, 7);
  ServerSim inc{inc_engine, cfg};
  auto sorted = trace;
  std::sort(sorted.begin(), sorted.end(), arrival_order<Request>);
  for (const Request& rq : sorted) {
    inc.advance_to(rq.arrival);
    inc.enqueue(rq);
  }
  inc.drain();
  const ServeReport rep = inc.report();

  ASSERT_EQ(rep.requests.size(), once.requests.size());
  for (std::size_t i = 0; i < rep.requests.size(); ++i) {
    EXPECT_EQ(rep.requests[i].id, once.requests[i].id);
    EXPECT_DOUBLE_EQ(rep.requests[i].ttft().ns(), once.requests[i].ttft().ns());
    EXPECT_DOUBLE_EQ(rep.requests[i].e2e().ns(), once.requests[i].e2e().ns());
  }
  ASSERT_EQ(rep.steps.size(), once.steps.size());
  EXPECT_DOUBLE_EQ(rep.makespan.ns(), once.makespan.ns());
  EXPECT_DOUBLE_EQ(rep.busy.ns(), once.busy.ns());

  // Path independence: also advancing through random instants -- inside
  // steps and across idle gaps -- between the same enqueues reproduces the
  // one-shot run bit for bit, with the prefix cache, expert residency, a
  // slow-down window and fixed batching each on and off.
  RequestShape shape = small_shape();
  shape.prefix_groups = 3;
  shape.shared_fraction = 0.8;
  shape.shared_prefix_len = 12;
  const moe::WorkloadGenerator profiler{tiny_model(), moe::SkewProfile::switch_like(), 11};
  for (const std::uint64_t seed : {3u, 4u}) {
    std::vector<Request> wtrace = poisson_trace(24, /*rate_per_s=*/80.0, shape, seed);
    std::sort(wtrace.begin(), wtrace.end(), arrival_order<Request>);
    for (Request& rq : wtrace) rq.expert_profile = profiler.expert_profile_for(rq.id, 2);
    for (unsigned features = 0; features < 16; ++features) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " features " + std::to_string(features));
      SchedulerConfig sched;
      if ((features & 1u) != 0) sched.mode = BatchingMode::kFixed;
      PrefixCacheConfig cache;
      cache.enabled = (features & 2u) != 0;
      ExpertServingConfig expert;
      expert.enabled = (features & 4u) != 0;
      expert.cache_capacity = 6;
      FaultSpec fault;
      if ((features & 8u) != 0) {
        fault.slow_from = Duration::millis(40);
        fault.slow_until = Duration::millis(180);
        fault.slow_factor = 2.5;
      }
      auto once_engine = make_engine(core::StrategyKind::kMondeLoadBalanced, 7);
      const ServeReport ref =
          ServerSim{once_engine, sched, Duration::zero(), fault, cache, expert}.run(wtrace);

      // Every feature switched on shows in the run.
      EXPECT_EQ(ref.cache.saved_tokens > 0, cache.enabled);
      EXPECT_EQ(ref.expert_misses > 0, expert.enabled);
      EXPECT_EQ(std::any_of(ref.steps.begin(), ref.steps.end(),
                            [&](const StepRecord& st) { return fault.factor_at(st.start) != 1.0; }),
                fault.slow_factor != 1.0);

      auto engine = make_engine(core::StrategyKind::kMondeLoadBalanced, 7);
      ServerSim sim{engine, sched, Duration::zero(), fault, cache, expert};
      std::mt19937_64 rng{seed * 16 + features};
      std::uniform_real_distribution<double> unit{0.0, 1.0};
      // Sorted random instants in [from, from + span), then `to`.
      const auto wander = [&](Duration from, Duration span, Duration to) {
        std::vector<double> u(4);
        for (double& x : u) x = unit(rng);
        std::sort(u.begin(), u.end());
        for (const double x : u) sim.advance_to(from + span * x);
        sim.advance_to(to);
      };
      Duration prev = Duration::zero();
      for (const Request& rq : wtrace) {
        wander(prev, rq.arrival - prev, rq.arrival);
        sim.enqueue(rq);
        prev = rq.arrival;
      }
      wander(prev, ref.makespan - prev, ref.makespan);
      sim.drain();
      const ServeReport got = sim.report();

      ASSERT_EQ(got.requests.size(), ref.requests.size());
      for (std::size_t i = 0; i < got.requests.size(); ++i) {
        const RequestMetrics& a = got.requests[i];
        const RequestMetrics& b = ref.requests[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.attempt, b.attempt);
        EXPECT_EQ(a.prompt_len, b.prompt_len);
        EXPECT_EQ(a.generated, b.generated);
        EXPECT_EQ(a.saved_tokens, b.saved_tokens);
        EXPECT_EQ(a.resumed_tokens, b.resumed_tokens);
        EXPECT_EQ(a.arrival, b.arrival);
        EXPECT_EQ(a.trace_arrival, b.trace_arrival);
        EXPECT_EQ(a.admitted, b.admitted);
        EXPECT_EQ(a.first_token, b.first_token);
        EXPECT_EQ(a.completion, b.completion);
      }
      EXPECT_EQ(got.steps.size(), ref.steps.size());
      EXPECT_EQ(got.makespan, ref.makespan);
      EXPECT_EQ(got.busy, ref.busy);
      EXPECT_EQ(got.cache.saved_tokens, ref.cache.saved_tokens);
      EXPECT_EQ(got.expert_hits, ref.expert_hits);
      EXPECT_EQ(got.expert_misses, ref.expert_misses);
    }
  }
}

TEST(ServerSim, LiveStateFollowsInFlightNotTraceLength) {
  // A long trace at bounded concurrency: the scheduler's state pool stays
  // as small as the most requests ever in flight, while the report keeps
  // every request, in order, exactly as a one-shot run of the whole trace
  // (which holds it all pending at once) reports it.
  const auto trace = poisson_trace(10'000, /*rate_per_s=*/100.0, small_shape(), /*seed=*/9);
  SchedulerConfig cfg;
  auto ref_engine = make_engine(core::StrategyKind::kGpuPmove, 7);
  const ServeReport ref = ServerSim{ref_engine, cfg}.run(trace);

  auto engine = make_engine(core::StrategyKind::kGpuPmove, 7);
  ServerSim sim{engine, cfg};
  std::size_t peak_in_flight = 0;
  for (const Request& rq : trace) {
    sim.advance_to(rq.arrival);
    sim.enqueue(rq);
    peak_in_flight = std::max(peak_in_flight, sim.in_flight());
  }
  sim.drain();
  EXPECT_LT(peak_in_flight, 64u);  // the bounded-concurrency regime under test
  EXPECT_LE(sim.scheduler().states().size(), peak_in_flight);
  const ServeReport rep = sim.report();
  ASSERT_EQ(rep.requests.size(), ref.requests.size());
  for (std::size_t i = 0; i < rep.requests.size(); ++i) {
    EXPECT_EQ(rep.requests[i].id, ref.requests[i].id);
    EXPECT_EQ(rep.requests[i].arrival, ref.requests[i].arrival);
    EXPECT_EQ(rep.requests[i].admitted, ref.requests[i].admitted);
    EXPECT_EQ(rep.requests[i].first_token, ref.requests[i].first_token);
    EXPECT_EQ(rep.requests[i].completion, ref.requests[i].completion);
  }
  EXPECT_EQ(rep.generated_tokens, ref.generated_tokens);
  EXPECT_TRUE(sim.steps().empty());  // report() moved the history out...
  EXPECT_TRUE(sim.scheduler().states().empty());  // ...and released the pool
  EXPECT_THROW((void)sim.report(), Error);
}

TEST(ServerSim, NextEventTimeAndLoadAccessorsTrackQueueState) {
  SchedulerConfig cfg;
  auto engine = make_engine(core::StrategyKind::kMondeAmove);
  ServerSim sim{engine, cfg};
  EXPECT_EQ(sim.next_event_time(), Duration::infinite());  // waits on enqueue()
  EXPECT_EQ(sim.in_flight(), 0u);

  sim.enqueue({0, Duration::millis(5), 8, 2});
  EXPECT_DOUBLE_EQ(sim.next_event_time().ms(), 5.0);  // idle until the arrival
  EXPECT_EQ(sim.in_flight(), 1u);
  EXPECT_EQ(sim.outstanding_tokens(), 10);  // 8 prompt + 2 decode tokens owed

  // advance_to is strictly-before: the step starting at t=5 is deferred so
  // the caller may still enqueue same-instant arrivals.
  sim.advance_to(Duration::millis(5));
  EXPECT_EQ(sim.in_flight(), 1u);
  EXPECT_FALSE(sim.drained());

  sim.drain();
  EXPECT_TRUE(sim.drained());
  EXPECT_GT(sim.now(), Duration::millis(5));
  EXPECT_EQ(sim.in_flight(), 0u);
  EXPECT_EQ(sim.outstanding_tokens(), 0);
  const ServeReport rep = sim.report();
  ASSERT_EQ(rep.requests.size(), 1u);
  EXPECT_EQ(rep.requests[0].generated, 2);
}

TEST(ServerSim, ContinuousBeatsFixedOnPoissonTrace) {
  // Two full fixed-mode batches.
  const auto trace = poisson_trace(static_cast<int>(2 * kFixedBatch), /*rate_per_s=*/40.0,
                                   small_shape(), /*seed=*/5);
  SchedulerConfig cfg;
  cfg.token_budget = 128;

  cfg.mode = BatchingMode::kFixed;
  auto fixed_engine = make_engine(core::StrategyKind::kMondeLoadBalanced);
  const ServeReport fixed = ServerSim{fixed_engine, cfg}.run(trace);

  cfg.mode = BatchingMode::kContinuous;
  auto cont_engine = make_engine(core::StrategyKind::kMondeLoadBalanced);
  const ServeReport cont = ServerSim{cont_engine, cfg}.run(trace);

  EXPECT_EQ(fixed.generated_tokens, cont.generated_tokens);  // same useful work
  EXPECT_GT(cont.tokens_per_s, fixed.tokens_per_s);          // strictly faster
  EXPECT_LT(cont.ttft_ms.p99, fixed.ttft_ms.p99);            // no batch-fill wait
}

TEST(ServerSim, PerRequestLatenciesDeterministicGivenSeed) {
  const auto trace = test_trace();
  SchedulerConfig cfg;
  const auto run_once = [&] {
    auto engine = make_engine(core::StrategyKind::kMondeLoadBalanced, 7);
    return ServerSim{engine, cfg}.run(trace);
  };
  const ServeReport a = run_once();
  const ServeReport b = run_once();
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].id, b.requests[i].id);
    EXPECT_DOUBLE_EQ(a.requests[i].ttft().ns(), b.requests[i].ttft().ns());
    EXPECT_DOUBLE_EQ(a.requests[i].tpot().ns(), b.requests[i].tpot().ns());
    EXPECT_DOUBLE_EQ(a.requests[i].e2e().ns(), b.requests[i].e2e().ns());
  }
  EXPECT_DOUBLE_EQ(a.makespan.ns(), b.makespan.ns());
}

TEST(ServerSim, RespectsTokenBudgetEveryStep) {
  SchedulerConfig cfg;
  cfg.token_budget = 96;  // tight: forces queueing on this trace
  auto engine = make_engine(core::StrategyKind::kMondeAmove);
  const ServeReport rep = ServerSim{engine, cfg}.run(test_trace());
  ASSERT_FALSE(rep.steps.empty());
  for (const auto& step : rep.steps) {
    EXPECT_LE(step.prefill_tokens + step.decode_tokens, cfg.token_budget)
        << "step " << step.index;
    EXPECT_GE(step.end, step.start);
  }
}

TEST(ServerSim, EveryRequestCompletesWithConsistentMetrics) {
  SchedulerConfig cfg;
  auto engine = make_engine(core::StrategyKind::kMondeLoadBalanced);
  const auto trace = test_trace();
  const ServeReport rep = ServerSim{engine, cfg}.run(trace);
  ASSERT_EQ(rep.requests.size(), trace.size());
  std::uint64_t expected_tokens = 0;
  for (const auto& rq : trace) expected_tokens += static_cast<std::uint64_t>(rq.max_new_tokens);
  EXPECT_EQ(rep.generated_tokens, expected_tokens);
  for (const auto& m : rep.requests) {
    EXPECT_GE(m.admitted, m.arrival);
    EXPECT_GT(m.first_token, m.admitted);
    EXPECT_GE(m.completion, m.first_token);
    EXPECT_LE(m.completion, rep.makespan);
    EXPECT_GT(m.ttft(), Duration::zero());
    EXPECT_LE(m.ttft(), m.e2e());
  }
  EXPECT_GT(rep.tokens_per_s, 0.0);
  EXPECT_LE(rep.ttft_ms.p50, rep.ttft_ms.p95);
  EXPECT_LE(rep.ttft_ms.p95, rep.ttft_ms.p99);
}

TEST(ServerSim, ClosedLoopSaturatesBudget) {
  // With everything queued at t=0 and single-token decode slots, the
  // scheduler should keep the decode batch near the token budget.
  SchedulerConfig cfg;
  cfg.token_budget = 64;
  auto engine = make_engine(core::StrategyKind::kMondeAmove);
  RequestShape shape = small_shape();
  shape.prompt_min = shape.prompt_max = 16;
  shape.new_tokens_min = shape.new_tokens_max = 6;
  const ServeReport rep = ServerSim{engine, cfg}.run(closed_loop_trace(8, shape, 11));
  std::int64_t peak = 0;
  for (const auto& step : rep.steps) peak = std::max(peak, step.decode_tokens);
  EXPECT_GE(peak, 3);  // multiple requests genuinely share steps
  EXPECT_EQ(rep.requests.size(), 8u);
}

TEST(ServerSim, DrainOnEmptyQueueIsAHarmlessNoOp) {
  // The incremental event API allows sealing a server that never received a
  // request (e.g. a cluster replica no dispatcher ever picked): drain()
  // must succeed vacuously and report() must produce an empty, all-zero
  // report rather than tripping an assertion.
  SchedulerConfig cfg;
  auto engine = make_engine(core::StrategyKind::kMondeAmove);
  ServerSim sim{engine, cfg};
  EXPECT_TRUE(sim.drained());  // vacuously drained before any enqueue
  sim.drain();
  EXPECT_TRUE(sim.drained());
  EXPECT_EQ(sim.next_event_time(), Duration::infinite());
  const ServeReport rep = sim.report();
  EXPECT_TRUE(rep.requests.empty());
  EXPECT_TRUE(rep.steps.empty());
  EXPECT_EQ(rep.generated_tokens, 0u);
  EXPECT_DOUBLE_EQ(rep.makespan.ns(), 0.0);
  EXPECT_DOUBLE_EQ(rep.tokens_per_s, 0.0);
  EXPECT_DOUBLE_EQ(rep.ttft_ms.p99, 0.0);
}

TEST(ServerSim, AdvanceToPastTimestampIsANoOp) {
  // advance_to() must be monotone: a cluster driver that already advanced a
  // replica to t2 may later ask for t1 < t2 (e.g. interleaving many
  // replicas); the call must change nothing -- not even run an extra step.
  SchedulerConfig cfg;
  auto engine = make_engine(core::StrategyKind::kMondeAmove);
  ServerSim sim{engine, cfg};
  sim.enqueue({0, Duration::millis(2), 8, 4});
  sim.enqueue({1, Duration::millis(30), 8, 2});
  sim.advance_to(Duration::millis(20));  // runs request 0's steps
  const Duration now = sim.now();
  const std::size_t in_flight = sim.in_flight();
  const std::int64_t owed = sim.outstanding_tokens();
  EXPECT_GT(now, Duration::millis(2));

  sim.advance_to(Duration::millis(1));  // in the past: nothing may move
  sim.advance_to(Duration::zero());
  sim.advance_to(now);  // the boundary itself is also strictly-before
  EXPECT_DOUBLE_EQ(sim.now().ns(), now.ns());
  EXPECT_EQ(sim.in_flight(), in_flight);
  EXPECT_EQ(sim.outstanding_tokens(), owed);

  sim.drain();  // the remaining request still completes normally
  const ServeReport rep = sim.report();
  ASSERT_EQ(rep.requests.size(), 2u);
  EXPECT_EQ(rep.requests[0].generated, 4);
  EXPECT_EQ(rep.requests[1].generated, 2);
}

TEST(ServerSim, RunRejectsEmptyTraceAndUsedServer) {
  SchedulerConfig cfg;
  auto engine = make_engine(core::StrategyKind::kMondeAmove);
  ServerSim sim{engine, cfg};
  EXPECT_THROW((void)sim.run({}), Error);
  // A server that already ran, holds an enqueued request, or was drained
  // is used.
  (void)sim.run(test_trace());
  EXPECT_THROW((void)sim.run(test_trace()), Error);
  ServerSim holding{engine, cfg};
  holding.enqueue(test_trace().front());
  EXPECT_THROW((void)holding.run(test_trace()), Error);
  ServerSim drained{engine, cfg};
  drained.drain();
  EXPECT_THROW((void)drained.run(test_trace()), Error);
}

// --- Resume / prefix-cache / size-aware admission -----------------------------

TEST(Scheduler, ResumedRequestContinuesFromCheckpoint) {
  SchedulerConfig cfg;
  ContinuousBatchScheduler sched{cfg};
  Request rq;
  rq.id = 7;
  rq.prompt_len = 40;
  rq.max_new_tokens = 6;
  rq.attempt = 1;
  rq.resume.prefilled = 40;
  rq.resume.decoded = 2;
  rq.resume.first_token = Duration::millis(3);
  sched.push(rq);
  sched.seal();
  EXPECT_EQ(sched.outstanding_tokens(), 4);  // only the remaining decode is owed
  sched.release_arrivals(Duration::zero());
  const auto newly = sched.admit();
  ASSERT_EQ(newly.size(), 1u);
  EXPECT_EQ(newly[0]->saved_tokens, 40);  // default discount = the resumed prefix
  EXPECT_EQ(newly[0]->generated, 2);
  EXPECT_EQ(sched.slots()[0].step, 2);  // decode depth carries over

  StepOutcome out = sched.complete_step(Duration::millis(10));
  ASSERT_EQ(out.advanced.size(), 1u);
  EXPECT_EQ(out.advanced[0], 7u);
  EXPECT_TRUE(out.finished.empty());
  EXPECT_EQ(sched.states()[0].generated, 3);
  // The original attempt's first token keeps its instant across resumes.
  EXPECT_DOUBLE_EQ(sched.states()[0].first_token.ms(), 3.0);

  sched.complete_step(Duration::millis(11));
  sched.complete_step(Duration::millis(12));
  out = sched.complete_step(Duration::millis(13));  // 6th token overall
  ASSERT_EQ(out.finished.size(), 1u);
  EXPECT_EQ(out.finished[0], 7u);
  EXPECT_TRUE(sched.drained());
  EXPECT_EQ(sched.outstanding_tokens(), 0);
  EXPECT_EQ(sched.records()[0].generated, 6);
  EXPECT_EQ(sched.records()[0].resumed_tokens, 2);
  EXPECT_DOUBLE_EQ(sched.records()[0].first_token.ms(), 3.0);
  EXPECT_DOUBLE_EQ(sched.records()[0].completion.ms(), 13.0);
}

TEST(Scheduler, PrefillDiscountShrinksAdmissionCharge) {
  SchedulerConfig cfg;
  cfg.token_budget = 50;
  ContinuousBatchScheduler sched{cfg};
  // Two 40-token prompts: undiscounted, only one fits (40+40+2 > 50); with
  // half the prompt cached, both do (20+20+2 <= 50).
  sched.set_prefill_discount([](const Request& rq) { return rq.prompt_len / 2; });
  push_all(sched, {{0, Duration::zero(), 40, 4}, {1, Duration::zero(), 40, 4}});
  sched.release_arrivals(Duration::zero());
  const auto newly = sched.admit();
  ASSERT_EQ(newly.size(), 2u);
  EXPECT_EQ(newly[0]->saved_tokens, 20);  // frozen for the server's pricing
  EXPECT_EQ(newly[1]->saved_tokens, 20);
}

TEST(Scheduler, SizeAwareAdmissionPrefersFewestRemainingTokens) {
  SchedulerConfig cfg;
  cfg.token_budget = 45;
  const auto admitted_first = [&](bool size_aware) {
    cfg.size_aware_admission = size_aware;
    ContinuousBatchScheduler sched{cfg};
    // A 40-token giant arrives ahead of an 8-token short request.
    push_all(sched, {{0, Duration::zero(), 40, 4}, {1, Duration::zero(), 8, 2}});
    sched.release_arrivals(Duration::zero());
    const auto newly = sched.admit();
    EXPECT_EQ(newly.size(), 1u);  // either way only one fits the 45-token budget
    return newly.empty() ? std::uint64_t{99} : newly[0]->request.id;
  };
  EXPECT_EQ(admitted_first(false), 0u);  // FIFO: the giant, short waits behind it
  EXPECT_EQ(admitted_first(true), 1u);   // size-aware: the short slips past
}

TEST(Scheduler, SizeAwareBypassLimitGuardsStarvation) {
  SchedulerConfig cfg;
  cfg.token_budget = 32;
  cfg.size_aware_admission = true;
  ContinuousBatchScheduler sched{cfg};
  sched.push({0, Duration::zero(), 30, 2});  // the giant
  std::uint64_t next_id = 1;
  const auto push_shorts = [&](int n, Duration at) {
    for (int i = 0; i < n; ++i) sched.push({next_id++, at, 8, 2});
    sched.release_arrivals(at);
  };

  // Rounds 1..kAdmissionBypassLimit: three fresh shorts leapfrog the giant
  // each round (8*3 prefill + up to 6 slots <= 32), beside the previous
  // round's three, which finish at the next step. The giant never fits
  // beside them, so each round bypasses it once.
  for (std::int64_t round = 1; round <= kAdmissionBypassLimit; ++round) {
    const Duration at = Duration::millis(static_cast<double>(round));
    push_shorts(3, at);
    const auto newly = sched.admit();
    ASSERT_EQ(newly.size(), 3u) << "round " << round;
    for (const RequestState* rs : newly) EXPECT_NE(rs->request.id, 0u);
    sched.complete_step(at + Duration::micros(500.0));
  }

  // The giant is now past its bypass limit. It cannot fit beside the three
  // active shorts, and nothing may leapfrog it any more -- not even a fresh
  // short arrival.
  const Duration late = Duration::millis(static_cast<double>(kAdmissionBypassLimit + 1));
  push_shorts(1, late);
  EXPECT_TRUE(sched.admit().empty());
  sched.complete_step(late + Duration::micros(500.0));  // last shorts finish; server empties

  // Seniority wins -- the giant admits before the waiting short.
  const auto newly = sched.admit();
  ASSERT_EQ(newly.size(), 1u);
  EXPECT_EQ(newly[0]->request.id, 0u);
}

TEST(Arrivals, SharedPrefixGroupsAreOptInAndDeterministic) {
  const RequestShape plain = small_shape();
  const auto base = poisson_trace(20, 50.0, plain, 9);
  RequestShape pref = plain;
  pref.prefix_groups = 3;
  pref.shared_fraction = 1.0;
  pref.shared_prefix_len = 8;
  const auto with = poisson_trace(20, 50.0, pref, 9);
  ASSERT_EQ(with.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    // Arrival and shape streams are untouched by the (later) prefix draws.
    EXPECT_DOUBLE_EQ(with[i].arrival.ns(), base[i].arrival.ns());
    EXPECT_EQ(with[i].prompt_len, base[i].prompt_len);
    EXPECT_EQ(with[i].max_new_tokens, base[i].max_new_tokens);
    EXPECT_EQ(base[i].prefix_id, 0u);
    EXPECT_GE(with[i].prefix_id, 1u);
    EXPECT_LE(with[i].prefix_id, 3u);
    EXPECT_EQ(with[i].shared_prefix_len, 8);
  }
  // Deterministic given the seed, including the prefix assignment.
  const auto again = poisson_trace(20, 50.0, pref, 9);
  for (std::size_t i = 0; i < with.size(); ++i) {
    EXPECT_EQ(again[i].prefix_id, with[i].prefix_id);
  }
  RequestShape bad = pref;
  bad.shared_prefix_len = plain.prompt_min + 1;  // not every member carries it
  EXPECT_THROW(bad.validate(), Error);
}

TEST(Arrivals, ZipfPrefixSkewIsOptInAndFavorsGroupOne) {
  RequestShape uniform = small_shape();
  uniform.prefix_groups = 4;
  uniform.shared_fraction = 1.0;
  uniform.shared_prefix_len = 8;
  // prefix_zipf_s = 0 (the default) draws from the historical uniform
  // stream: bit-identical group assignments.
  RequestShape zero_skew = uniform;
  zero_skew.prefix_zipf_s = 0.0;
  const auto base = poisson_trace(64, 50.0, uniform, 9);
  const auto same = poisson_trace(64, 50.0, zero_skew, 9);
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(same[i].prefix_id, base[i].prefix_id);
  }
  // Skewed popularity: group 1 dominates, arrivals/shapes untouched.
  RequestShape skewed = uniform;
  skewed.prefix_zipf_s = 1.5;
  const auto hot = poisson_trace(64, 50.0, skewed, 9);
  std::size_t g1 = 0, g4 = 0;
  for (std::size_t i = 0; i < hot.size(); ++i) {
    EXPECT_DOUBLE_EQ(hot[i].arrival.ns(), base[i].arrival.ns());
    EXPECT_EQ(hot[i].prompt_len, base[i].prompt_len);
    ASSERT_GE(hot[i].prefix_id, 1u);
    ASSERT_LE(hot[i].prefix_id, 4u);
    g1 += hot[i].prefix_id == 1;
    g4 += hot[i].prefix_id == 4;
  }
  EXPECT_GT(g1, g4);  // 1/1^1.5 vs 1/4^1.5: an 8x popularity gap
  RequestShape bad = uniform;
  bad.prefix_zipf_s = -0.5;
  EXPECT_THROW(bad.validate(), Error);
}

TEST(ServerSim, DisabledCacheConfigIsBitIdenticalToDefault) {
  // The acceptance pin: constructing a server with an explicit (disabled)
  // PrefixCacheConfig -- on a trace that even carries shared-prefix ids --
  // must reproduce the default server bit for bit.
  RequestShape shape = small_shape();
  shape.prefix_groups = 2;
  shape.shared_fraction = 0.75;
  shape.shared_prefix_len = 8;
  const auto trace = poisson_trace(10, 60.0, shape, 11);
  SchedulerConfig cfg;
  auto ref_engine = make_engine(core::StrategyKind::kMondeLoadBalanced, 21);
  const ServeReport ref = ServerSim{ref_engine, cfg}.run(trace);
  PrefixCacheConfig off;  // disabled; knob values must not matter
  off.capacity_tokens = 1;
  auto engine = make_engine(core::StrategyKind::kMondeLoadBalanced, 21);
  const ServeReport rep =
      ServerSim{engine, cfg, Duration::zero(), {}, off}.run(trace);
  ASSERT_EQ(rep.requests.size(), ref.requests.size());
  for (std::size_t i = 0; i < rep.requests.size(); ++i) {
    EXPECT_DOUBLE_EQ(rep.requests[i].first_token.ns(), ref.requests[i].first_token.ns());
    EXPECT_DOUBLE_EQ(rep.requests[i].completion.ns(), ref.requests[i].completion.ns());
    EXPECT_EQ(rep.requests[i].saved_tokens, 0);
  }
  ASSERT_EQ(rep.steps.size(), ref.steps.size());
  for (std::size_t i = 0; i < rep.steps.size(); ++i) {
    EXPECT_DOUBLE_EQ(rep.steps[i].end.ns(), ref.steps[i].end.ns());
    EXPECT_EQ(rep.steps[i].cached_tokens, 0);
  }
  EXPECT_DOUBLE_EQ(rep.makespan.ns(), ref.makespan.ns());
  EXPECT_EQ(rep.cache.lookups, 0u);
}

TEST(ServerSim, SharedPrefixCacheSkipsPrefillAndShrinksMakespan) {
  RequestShape shape = small_shape();
  shape.prefix_groups = 2;
  shape.shared_fraction = 1.0;
  shape.shared_prefix_len = 12;
  // Closed-loop: the server is never idle, so the makespan IS the busy time
  // and skipped prefill work shows up in it directly (an open-loop trace
  // would let arrival-gap idling blur the comparison).
  const auto trace = closed_loop_trace(10, shape, 11);
  SchedulerConfig cfg;
  auto ref_engine = make_engine(core::StrategyKind::kMondeLoadBalanced, 21);
  const ServeReport off = ServerSim{ref_engine, cfg}.run(trace);
  PrefixCacheConfig cache;
  cache.enabled = true;
  auto engine = make_engine(core::StrategyKind::kMondeLoadBalanced, 21);
  const ServeReport on =
      ServerSim{engine, cfg, Duration::zero(), {}, cache}.run(trace);
  EXPECT_GT(on.cache.hits, 0u);
  EXPECT_GT(on.cache.saved_tokens, 0);
  EXPECT_GT(on.cache.resident_peak, 0);
  std::int64_t cached = 0, prefilled = 0;
  for (const StepRecord& s : on.steps) {
    cached += s.cached_tokens;
    prefilled += s.prefill_tokens;
  }
  EXPECT_EQ(cached, on.cache.saved_tokens);
  std::int64_t prompt_total = 0;
  for (const Request& rq : trace) prompt_total += rq.prompt_len;
  EXPECT_EQ(prefilled + cached, prompt_total);  // every prompt token accounted
  // Skipped prefill work is real simulated time saved.
  EXPECT_LT(on.makespan, off.makespan);
  ASSERT_EQ(on.requests.size(), trace.size());
  for (const RequestMetrics& m : on.requests) EXPECT_GT(m.generated, 0);
}

TEST(ServerSim, EvacuateHandsBackUnfinishedWithCheckpoints) {
  SchedulerConfig cfg;
  cfg.token_budget = 64;
  RequestShape shape = small_shape();
  shape.prompt_min = shape.prompt_max = 16;
  shape.new_tokens_min = shape.new_tokens_max = 6;
  // Three 16-token prompts co-admit in step 1 (48 + 3 slots <= 64).
  const auto trace = closed_loop_trace(3, shape, 11);
  // A fault-free twin maps the step boundaries.
  auto twin_engine = make_engine(core::StrategyKind::kMondeAmove);
  const ServeReport twin = ServerSim{twin_engine, cfg}.run(trace);
  ASSERT_GE(twin.steps.size(), 3u);

  PrefixCacheConfig cache;
  cache.enabled = true;
  auto engine = make_engine(core::StrategyKind::kMondeAmove);
  ServerSim sim{engine, cfg, Duration::zero(), {}, cache};
  for (const Request& rq : trace) sim.enqueue(rq);
  // Advance into step 2: step 1's completion is applied, step 2 is priced
  // and pending. Evacuation stops at the step-2 boundary, so the migrated
  // checkpoint carries two applied decode steps.
  sim.advance_to(twin.steps[1].start + (twin.steps[1].end - twin.steps[1].start) * 0.5);
  const std::vector<Request> moved = sim.evacuate();
  ASSERT_EQ(moved.size(), trace.size());  // 6-token budgets: nothing finished yet
  for (const Request& rq : moved) {
    EXPECT_EQ(rq.resume.prefilled, rq.prompt_len);
    EXPECT_EQ(rq.resume.decoded, 2);
    EXPECT_DOUBLE_EQ(rq.resume.first_token.ns(), twin.steps[0].end.ns());
    EXPECT_NO_THROW(rq.validate());
  }
  EXPECT_THROW(sim.enqueue({99, sim.now(), 8, 2}), Error);
  EXPECT_THROW((void)sim.evacuate(), Error);  // at most once
  sim.drain();  // report covers (zero) completed requests
  EXPECT_TRUE(sim.report().requests.empty());
}

TEST(ServerSim, EvacuateDiscardsStepThatOutlivesScheduledFailStop) {
  // Retire-then-die race: the autoscaler evacuates a replica whose
  // in-flight step crosses its scheduled fail-stop. The node never lives
  // to finish that step, so migration must not rescue its effects -- the
  // checkpoint stops at the last step completed BEFORE the death.
  SchedulerConfig cfg;
  cfg.token_budget = 64;
  RequestShape shape = small_shape();
  shape.prompt_min = shape.prompt_max = 16;
  shape.new_tokens_min = shape.new_tokens_max = 6;
  const auto trace = closed_loop_trace(3, shape, 11);
  auto twin_engine = make_engine(core::StrategyKind::kMondeAmove);
  const ServeReport twin = ServerSim{twin_engine, cfg}.run(trace);
  ASSERT_GE(twin.steps.size(), 3u);

  FaultSpec fault;
  const Duration span = twin.steps[1].end - twin.steps[1].start;
  fault.fail_at = twin.steps[1].start + span * 0.5;  // death inside step 2
  auto engine = make_engine(core::StrategyKind::kMondeAmove);
  ServerSim sim{engine, cfg, Duration::zero(), fault};
  for (const Request& rq : trace) sim.enqueue(rq);
  // Advance to a point inside step 2 but BEFORE the death: step 2 is
  // priced and pending, the server is still alive, and the retirement
  // tick fires here.
  sim.advance_to(twin.steps[1].start + span * 0.25);
  ASSERT_FALSE(sim.failed());
  const std::vector<Request> moved = sim.evacuate();
  ASSERT_EQ(moved.size(), trace.size());
  for (const Request& rq : moved) {
    EXPECT_EQ(rq.resume.decoded, 1);  // step 1 committed; step 2 died with the node
    EXPECT_EQ(rq.resume.prefilled, rq.prompt_len);
  }
}

TEST(ServerSim, HarvestMidPrefillVsMidDecodeCheckpoints) {
  // The checkpoint is the last COMPLETED step: dying inside the admission
  // step loses the prefill (mid-prefill: resume stays zero), dying after n
  // applied steps checkpoints the prompt + n tokens (mid-decode).
  SchedulerConfig cfg;
  cfg.token_budget = 64;
  RequestShape shape = small_shape();
  shape.prompt_min = shape.prompt_max = 24;
  shape.new_tokens_min = shape.new_tokens_max = 6;
  const auto trace = closed_loop_trace(2, shape, 3);
  auto twin_engine = make_engine(core::StrategyKind::kMondeAmove);
  const ServeReport twin = ServerSim{twin_engine, cfg}.run(trace);
  ASSERT_GE(twin.steps.size(), 3u);

  const auto strand_at = [&](Duration fail_at) {
    FaultSpec fault;
    fault.fail_at = fail_at;
    auto engine = make_engine(core::StrategyKind::kMondeAmove);
    ServerSim sim{engine, cfg, Duration::zero(), fault};
    for (const Request& rq : trace) sim.enqueue(rq);
    sim.advance_to(Duration::infinite());
    EXPECT_TRUE(sim.failed());
    return sim.evacuate();
  };

  // Mid-prefill: death inside step 1, before its completion lands.
  const auto lost = strand_at(twin.steps[0].start + (twin.steps[0].end - twin.steps[0].start) * 0.5);
  ASSERT_EQ(lost.size(), trace.size());
  for (const Request& rq : lost) {
    EXPECT_EQ(rq.resume.prefilled, 0);
    EXPECT_EQ(rq.resume.decoded, 0);
  }

  // Mid-decode: death inside step 3; steps 1-2 committed two tokens each.
  const auto kept = strand_at(twin.steps[2].start + (twin.steps[2].end - twin.steps[2].start) * 0.5);
  ASSERT_EQ(kept.size(), trace.size());
  for (const Request& rq : kept) {
    EXPECT_EQ(rq.resume.prefilled, rq.prompt_len);
    EXPECT_EQ(rq.resume.decoded, 2);
    EXPECT_DOUBLE_EQ(rq.resume.first_token.ns(), twin.steps[0].end.ns());
  }
}

}  // namespace
}  // namespace monde::serve
