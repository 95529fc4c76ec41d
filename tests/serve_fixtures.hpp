// Shared cluster-scenario fixtures for the serving test suites.
//
// test_cluster.cpp, test_calendar_diff.cpp, test_expert_serving.cpp,
// test_disagg.cpp, and test_random_diff.cpp all build the same small fleets
// over the same tiny models; this header is the single definition of those
// builders plus the bit-identity comparator the differential suites pin
// against, and the conservation/causality audit every differential scenario
// must pass. Every helper is inline -- each test source is its own binary.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/arrivals.hpp"
#include "serve/cluster.hpp"

namespace monde::serve::fixtures {

/// A small MoE model that keeps cycle-level simulations fast.
inline moe::MoeModelConfig tiny_model() {
  moe::MoeModelConfig m = moe::MoeModelConfig::switch_variant(512, 16);
  m.encoder_blocks = 4;
  m.decoder_blocks = 4;
  m.moe_every = 2;
  m.vocab_size = 8192;
  m.top_k = 2;
  m.name = "tiny-test-model";
  return m;
}

/// The expert-serving suites' historical variant: same topology (2 decoder
/// MoE layers x 16 experts) but the switch_variant defaults for vocab/top_k.
/// Kept distinct so the expert tests' pinned numbers do not move.
inline moe::MoeModelConfig tiny_expert_model() {
  moe::MoeModelConfig m = moe::MoeModelConfig::switch_variant(512, 16);
  m.encoder_blocks = 4;
  m.decoder_blocks = 4;
  m.moe_every = 2;
  m.name = "tiny-expert-model";
  return m;
}

inline RequestShape small_shape() {
  RequestShape s;
  s.prompt_min = 16;
  s.prompt_max = 48;
  s.new_tokens_min = 2;
  s.new_tokens_max = 8;
  return s;
}

/// Every field of two ClusterReports, compared exactly. Duration carries an
/// exact (defaulted) comparison, so == here really is bit-identity.
inline void expect_reports_identical(const ClusterReport& a, const ClusterReport& b) {
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.autoscaler, b.autoscaler);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    const RequestMetrics& x = a.requests[i];
    const RequestMetrics& y = b.requests[i];
    EXPECT_EQ(x.id, y.id) << "request " << i;
    EXPECT_EQ(x.attempt, y.attempt) << "request " << x.id;
    EXPECT_EQ(x.generated, y.generated) << "request " << x.id;
    EXPECT_EQ(x.saved_tokens, y.saved_tokens) << "request " << x.id;
    EXPECT_EQ(x.resumed_tokens, y.resumed_tokens) << "request " << x.id;
    EXPECT_EQ(x.arrival, y.arrival) << "request " << x.id;
    EXPECT_EQ(x.trace_arrival, y.trace_arrival) << "request " << x.id;
    EXPECT_EQ(x.admitted, y.admitted) << "request " << x.id;
    EXPECT_EQ(x.first_token, y.first_token) << "request " << x.id;
    EXPECT_EQ(x.completion, y.completion) << "request " << x.id;
  }
  ASSERT_EQ(a.replicas.size(), b.replicas.size());
  for (std::size_t i = 0; i < a.replicas.size(); ++i) {
    const ReplicaReport& x = a.replicas[i];
    const ReplicaReport& y = b.replicas[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.dispatched, y.dispatched) << x.name;
    EXPECT_EQ(x.spawned_at, y.spawned_at) << x.name;
    EXPECT_EQ(x.alive_until, y.alive_until) << x.name;
    EXPECT_EQ(x.utilization, y.utilization) << x.name;
    EXPECT_EQ(x.failed, y.failed) << x.name;
    EXPECT_EQ(x.retired, y.retired) << x.name;
    EXPECT_EQ(x.serve.makespan, y.serve.makespan) << x.name;
    EXPECT_EQ(x.serve.busy, y.serve.busy) << x.name;
    EXPECT_EQ(x.serve.generated_tokens, y.serve.generated_tokens) << x.name;
    EXPECT_EQ(x.serve.steps.size(), y.serve.steps.size()) << x.name;
    EXPECT_EQ(x.serve.cache.saved_tokens, y.serve.cache.saved_tokens) << x.name;
    EXPECT_EQ(x.serve.expert_hits, y.serve.expert_hits) << x.name;
    EXPECT_EQ(x.serve.expert_misses, y.serve.expert_misses) << x.name;
    EXPECT_EQ(x.serve.handoffs, y.serve.handoffs) << x.name;
    EXPECT_EQ(x.serve.handoff_tokens, y.serve.handoff_tokens) << x.name;
    EXPECT_EQ(x.serve.handoff_transfer, y.serve.handoff_transfer) << x.name;
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.generated_tokens, b.generated_tokens);
  EXPECT_EQ(a.tokens_per_s, b.tokens_per_s);
  EXPECT_EQ(a.ttft_ms.p50, b.ttft_ms.p50);
  EXPECT_EQ(a.ttft_ms.p95, b.ttft_ms.p95);
  EXPECT_EQ(a.ttft_ms.p99, b.ttft_ms.p99);
  EXPECT_EQ(a.tpot_ms.p50, b.tpot_ms.p50);
  EXPECT_EQ(a.e2e_ms.p50, b.e2e_ms.p50);
  EXPECT_EQ(a.e2e_ms.p95, b.e2e_ms.p95);
  EXPECT_EQ(a.e2e_ms.p99, b.e2e_ms.p99);
  EXPECT_EQ(a.imbalance, b.imbalance);
  EXPECT_EQ(a.fleet_utilization, b.fleet_utilization);
  EXPECT_EQ(a.replica_seconds, b.replica_seconds);
  EXPECT_EQ(a.peak_replicas, b.peak_replicas);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.cached_prefill_tokens, b.cached_prefill_tokens);
  EXPECT_EQ(a.expert_hits, b.expert_hits);
  EXPECT_EQ(a.expert_misses, b.expert_misses);
  EXPECT_EQ(a.expert_hit_rate, b.expert_hit_rate);
  EXPECT_EQ(a.expert_migrations, b.expert_migrations);
  EXPECT_EQ(a.pruned_requests, b.pruned_requests);
  EXPECT_EQ(a.handoffs, b.handoffs);
  EXPECT_EQ(a.handoff_tokens, b.handoff_tokens);
  EXPECT_EQ(a.handoff_transfer_s, b.handoff_transfer_s);
  const auto expect_pools_identical = [](const ClusterReport::PoolReport& x,
                                         const ClusterReport::PoolReport& y,
                                         const char* pool) {
    EXPECT_EQ(x.replicas, y.replicas) << pool;
    EXPECT_EQ(x.dispatched, y.dispatched) << pool;
    EXPECT_EQ(x.steps, y.steps) << pool;
    EXPECT_EQ(x.busy_s, y.busy_s) << pool;
    EXPECT_EQ(x.replica_seconds, y.replica_seconds) << pool;
    EXPECT_EQ(x.utilization, y.utilization) << pool;
    EXPECT_EQ(x.mean_step_ms, y.mean_step_ms) << pool;
  };
  expect_pools_identical(a.prefill_pool, b.prefill_pool, "prefill pool");
  expect_pools_identical(a.decode_pool, b.decode_pool, "decode pool");
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << "event " << i;
    EXPECT_EQ(a.events[i].time, b.events[i].time) << "event " << i;
    EXPECT_EQ(a.events[i].replica, b.events[i].replica) << "event " << i;
    EXPECT_EQ(a.events[i].detail, b.events[i].detail) << "event " << i;
  }
}

/// Conservation and causality over a finished ClusterReport fed `trace`:
/// one line per violation, empty when the report is sound.
///   - each trace id completes exactly once, and no other id completes;
///   - `generated` equals the request's decode budget, and `arrival` its
///     trace arrival;
///   - arrival <= admitted <= first_token <= completion. A request resumed
///     with decode progress keeps its first attempt's first token, which may
///     precede its last admission, so it is held to arrival <= first_token
///     and admitted <= completion instead;
///   - the sum of `generated` equals `generated_tokens`;
///   - the per-replica record counts sum to the size of the fleet union.
inline std::vector<std::string> audit_report(const ClusterReport& rep,
                                             const std::vector<Request>& trace) {
  std::vector<std::string> findings;
  const auto finding = [&](std::uint64_t id, const std::string& what) {
    findings.push_back("request " + std::to_string(id) + ": " + what);
  };
  std::unordered_map<std::uint64_t, const Request*> offered;
  for (const Request& rq : trace) offered.emplace(rq.id, &rq);
  std::unordered_map<std::uint64_t, int> completions;
  std::uint64_t generated = 0;
  for (const RequestMetrics& m : rep.requests) {
    ++completions[m.id];
    generated += static_cast<std::uint64_t>(m.generated);
    const auto it = offered.find(m.id);
    if (it == offered.end()) {
      finding(m.id, "completed but never offered");
      continue;
    }
    const Request& rq = *it->second;
    if (m.generated != rq.max_new_tokens) {
      finding(m.id, "generated " + std::to_string(m.generated) + " of a budget of " +
                        std::to_string(rq.max_new_tokens));
    }
    if (m.arrival != rq.arrival) finding(m.id, "arrival is not the trace arrival");
    const bool resumed = m.resumed_tokens > 0;
    if (m.admitted < m.arrival) finding(m.id, "admitted before it arrived");
    if (m.first_token < (resumed ? m.arrival : m.admitted)) {
      finding(m.id, "first token before it arrived or was admitted");
    }
    if (m.completion < m.first_token || m.completion < m.admitted) {
      finding(m.id, "completed before its first token or admission");
    }
  }
  for (const Request& rq : trace) {
    const auto it = completions.find(rq.id);
    const int n = it == completions.end() ? 0 : it->second;
    if (n != 1) finding(rq.id, "completed " + std::to_string(n) + " times");
  }
  if (generated != rep.generated_tokens) {
    findings.push_back("records generated " + std::to_string(generated) +
                       " tokens, the report says " + std::to_string(rep.generated_tokens));
  }
  std::size_t per_replica = 0;
  for (const ReplicaReport& r : rep.replicas) per_replica += r.serve.requests.size();
  if (per_replica != rep.requests.size()) {
    findings.push_back("replicas hold " + std::to_string(per_replica) +
                       " records, the fleet union " + std::to_string(rep.requests.size()));
  }
  return findings;
}

inline void expect_audit_clean(const ClusterReport& rep, const std::vector<Request>& trace) {
  const std::vector<std::string> findings = audit_report(rep, trace);
  if (!findings.empty()) {
    ADD_FAILURE() << findings.size() << " audit finding(s), first: " << findings.front();
  }
}

/// Run one scenario twice -- calendar loop vs reference loop -- with fresh
/// (stateful) dispatchers/autoscalers, and demand bit-identical reports.
struct Scenario {
  std::vector<Request> trace;
  RequestShape shape{};  ///< envelope the trace was drawn from (metadata only)
  std::vector<ReplicaSpec> specs;
  ClusterConfig cfg;
  DispatchPolicy policy = DispatchPolicy::kJoinShortestQueue;
  std::uint64_t dispatch_seed = 7;
  AutoscaleConfig autoscale;
  bool autoscaled = false;
  std::size_t threads = 1;  ///< calendar-loop worker threads (reference stays 1)
  moe::MoeModelConfig model = tiny_model();
};

inline ClusterReport run_scenario(const Scenario& sc, bool reference_loop) {
  ClusterConfig cfg = sc.cfg;
  cfg.reference_loop = reference_loop;
  cfg.threads = reference_loop ? 1 : sc.threads;
  ClusterSim cluster{core::SystemConfig::dac24(), sc.model, moe::SkewProfile::switch_like(),
                     sc.specs, cfg};
  const auto dispatcher = make_dispatcher(sc.policy, sc.dispatch_seed);
  if (!sc.autoscaled) return cluster.run(sc.trace, *dispatcher);
  const auto autoscaler = make_queue_pressure_autoscaler(sc.autoscale);
  return cluster.run(sc.trace, *dispatcher, autoscaler.get());
}

inline void expect_loops_agree(const Scenario& sc) {
  const ClusterReport calendar = run_scenario(sc, /*reference_loop=*/false);
  expect_audit_clean(calendar, sc.trace);
  expect_reports_identical(calendar, run_scenario(sc, /*reference_loop=*/true));
}

/// The parallel calendar loop must match the sequential reference at every
/// thread count: thread scheduling may reorder the advancement work, but the
/// ascending-replica commit order pins every counter and RNG stream.
inline void expect_threads_agree(Scenario sc) {
  const ClusterReport ref = run_scenario(sc, /*reference_loop=*/true);
  expect_audit_clean(ref, sc.trace);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    sc.threads = threads;
    expect_reports_identical(run_scenario(sc, /*reference_loop=*/false), ref);
  }
}

}  // namespace monde::serve::fixtures
