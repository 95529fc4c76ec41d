#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "common/stats.hpp"
#include "core/load_balancer.hpp"
#include "dram/dram_system.hpp"
#include "ndp/ndp_core.hpp"
#include "ndp/layout.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"

namespace perfbench {

using namespace monde;

namespace {

constexpr int kReplayRequests = 2'000;  ///< requests through the single-replica replays
constexpr int kWarmRequests = 200;      ///< untimed pass that fills the NDP shape memo
constexpr std::size_t kKeptSteps = 200; ///< decode steps whose works feed later replays

/// Written by every timed call so the optimizer keeps the call.
volatile double g_sink = 0.0;

void sink(double v) { g_sink = g_sink + v; }

/// What one pass of the scheduler + engine replay saw.
struct ReplicaPass {
  std::vector<double> slots;      ///< decode slots per step
  std::vector<double> intervals;  ///< timeline intervals added per decode step
  std::vector<std::vector<moe::MoeLayerWork>> works;  ///< the first kKeptSteps steps
};

/// ServerSim's step loop (without caches) driven call by call: admit, prefill
/// every newly admitted request, merge the step's routing, decode, complete.
/// Replays the first `count` requests.
ReplicaPass replay_replica(const LayerSetup& s, const std::shared_ptr<ndp::NdpCoreSim>& sim,
                           std::size_t count, Tracer* tr) {
  const FleetConfig& f = s.fleet;
  core::InferenceEngine eng{f.sys, f.model, f.profile, f.strategy, f.seed, sim};
  core::EngineState st = eng.make_state();
  serve::ContinuousBatchScheduler sched{f.sched};
  for (std::size_t i = 0; i < count; ++i) sched.push(s.requests[i]);
  sched.seal();
  ReplicaPass out;
  std::size_t finished = 0;
  bool share_timed = false;
  while (!sched.drained()) {
    sched.release_arrivals(st.now);
    std::vector<serve::RequestState*> newly;
    {
      Scope call{tr, "serve.scheduler.admit"};
      newly = sched.admit();
    }
    if (newly.empty() && sched.active().empty()) {
      st.now = max(st.now, sched.next_arrival());
      continue;
    }
    Scope step{tr, "serve.replica.step"};
    for (serve::RequestState* rs : newly) {
      rs->admitted = st.now;
      Scope call{tr, "core.engine.prefill", static_cast<std::int64_t>(rs->request.id)};
      eng.prefill(st, 1, rs->request.prompt_len - rs->saved_tokens);
    }
    const std::vector<core::DecodeSlot> slots = sched.slots();
    std::vector<moe::MoeLayerWork> works;
    {
      Scope call{tr, "serve.scheduler.step_works"};
      works = sched.step_works(eng.workload());
    }
    const std::size_t before = st.sched.timeline().intervals().size();
    core::StepResult sr;
    {
      Scope call{tr, "core.engine.decode_step"};
      sr = eng.decode_step(st, slots, works);
    }
    out.intervals.push_back(
        static_cast<double>(st.sched.timeline().intervals().size() - before));
    out.slots.push_back(static_cast<double>(slots.size()));
    if (out.works.size() < kKeptSteps) out.works.push_back(std::move(works));
    serve::StepOutcome done;
    {
      Scope call{tr, "serve.scheduler.complete_step"};
      done = sched.complete_step(sr.end);
    }
    finished += done.finished.size();
    if (!share_timed && finished >= s.share) {
      // The schedule is now as large as one replica's at the end of the
      // workload: time the makespan query there.
      share_timed = true;
      for (int i = 0; i < 20; ++i) {
        Scope call{tr, "sim.timeline.makespan"};
        sink(st.sched.makespan().ns());
      }
    }
  }
  return out;
}

/// One replica's ServerSim driven the way the cluster drives it: advance to
/// each arrival, enqueue it, drain at the end.
void replay_server(const LayerSetup& s, const std::shared_ptr<ndp::NdpCoreSim>& sim,
                   Tracer& tr, Metrics& out) {
  const FleetConfig& f = s.fleet;
  core::InferenceEngine eng{f.sys, f.model, f.profile, f.strategy, f.seed, sim};
  serve::ServerSim server{eng, f.sched, Duration::zero(), {}, f.cluster.cache,
                          f.cluster.expert};
  for (const serve::Request& rq : s.requests) {
    {
      Scope call{&tr, "serve.server.advance_to", static_cast<std::int64_t>(rq.id)};
      server.advance_to(rq.arrival);
    }
    server.enqueue(rq);
  }
  {
    Scope call{&tr, "serve.server.drain"};
    server.drain();
  }
  const double host_ns =
      tr.total_ns("serve.server.advance_to") + tr.total_ns("serve.server.drain");
  const double steps = static_cast<double>(server.steps().size());
  out["serve.server.steps"] = {steps, "count"};
  out["serve.server.host_us_per_step"] = {host_ns / 1e3 / std::max(1.0, steps), "us"};
}

/// run_layer per strategy over the replay's recorded step works (a first,
/// untimed pass fills the NDP memo), plus one MD+LB tuner candidate per work.
void replay_strategies(const LayerSetup& s, const std::shared_ptr<ndp::NdpCoreSim>& sim,
                       const std::vector<std::vector<moe::MoeLayerWork>>& works, Tracer& tr) {
  const FleetConfig& f = s.fleet;
  struct Kind {
    core::StrategyKind kind;
    const char* span;
  };
  const Kind kinds[] = {
      {core::StrategyKind::kMondeLoadBalanced, "core.strategy.run_layer.md-lb"},
      {core::StrategyKind::kGpuPmove, "core.strategy.run_layer.gpu-pm"},
      {core::StrategyKind::kMondeAmove, "core.strategy.run_layer.md-am"},
  };
  for (const Kind& k : kinds) {
    core::InferenceEngine eng{f.sys, f.model, f.profile, k.kind, f.seed, sim};
    for (const bool timed : {false, true}) {
      core::EngineState st = eng.make_state();
      Duration ready = Duration::zero();
      for (const auto& step : works) {
        for (const moe::MoeLayerWork& w : step) {
          Scope call{timed ? &tr : nullptr, k.span};
          ready = eng.strategy().run_layer(w, st.sched, st.hw, ready).end;
        }
      }
    }
  }
  core::InferenceEngine eng{f.sys, f.model, f.profile, core::StrategyKind::kMondeLoadBalanced,
                            f.seed, sim};
  auto& lb = dynamic_cast<core::MondeLoadBalanced&>(eng.strategy());
  for (const auto& step : works) {
    for (const moe::MoeLayerWork& w : step) {
      const int h = lb.h_from_equation6(w, lb.alpha());
      Scope call{&tr, "core.strategy.evaluate_layer_with_h"};
      sink(lb.evaluate_layer_with_h(w, h).ns());
    }
  }
}

/// Interval placement as the strategies do it: a formatted label per call.
void replay_timeline(Tracer& tr) {
  sim::StreamSchedule sched;
  constexpr std::size_t kStreams = 8;
  for (std::size_t i = 0; i < kStreams; ++i) sched.add_stream("stream " + std::to_string(i));
  constexpr std::uint32_t kGroup = 64;
  Duration t = Duration::zero();
  for (int g = 0; g < 256; ++g) {
    Scope call{&tr, "sim.timeline.place", -1, kGroup};
    for (std::uint32_t j = 0; j < kGroup; ++j) {
      t = sched.place(sim::StreamId{j % kStreams}, t, Duration::nanos(100.0),
                      "expert " + std::to_string(j), "ndp")
              .start;
    }
  }
  sink(t.ns());
}

void replay_moe(const LayerSetup& s, double mean_slots,
                const std::vector<std::vector<moe::MoeLayerWork>>& works, Tracer& tr) {
  const FleetConfig& f = s.fleet;
  const moe::WorkloadGenerator gen{f.model, f.profile, f.seed};
  constexpr std::uint32_t kGroup = 16;
  std::uint64_t id = 0;
  for (int g = 0; g < 256; ++g) {
    Scope call{&tr, "moe.workload.decoder_step_for", -1, kGroup};
    for (std::uint32_t j = 0; j < kGroup; ++j, ++id) {
      sink(static_cast<double>(gen.decoder_step_for(id, static_cast<std::int64_t>(id % 8))
                                   .front()
                                   .total_tokens));
    }
  }
  const auto batch = static_cast<std::uint64_t>(std::max(1.0, std::round(mean_slots)));
  for (std::uint64_t k = 0; k < 256; ++k) {
    std::vector<std::vector<moe::MoeLayerWork>> draws;
    for (std::uint64_t b = 0; b < batch; ++b) {
      draws.push_back(gen.decoder_step_for(k * batch + b, 0));
    }
    Scope call{&tr, "moe.workload.merge"};
    const auto merged = moe::WorkloadGenerator::merge_layer_works(draws);
    sink(static_cast<double>(merged.front().total_tokens));
  }
  double prompt = 0.0;
  for (const serve::Request& rq : s.requests) prompt += static_cast<double>(rq.prompt_len);
  const auto tokens = static_cast<std::int64_t>(prompt / static_cast<double>(s.requests.size()));
  const moe::GatingModel& gating = gen.encoder_gating(0);
  Rng rng{f.seed};
  for (int k = 0; k < 256; ++k) {
    Scope call{&tr, "moe.gating.route"};
    sink(static_cast<double>(gating.route(tokens, rng).front()));
  }
  std::vector<const moe::MoeLayerWork*> flat;
  for (const auto& step : works) {
    for (const moe::MoeLayerWork& w : step) flat.push_back(&w);
  }
  for (std::size_t i = 0; i + kGroup <= flat.size(); i += kGroup) {
    Scope call{&tr, "moe.gating.experts_by_load", -1, kGroup};
    for (std::uint32_t j = 0; j < kGroup; ++j) {
      sink(static_cast<double>(flat[i + j]->experts_by_load().front()));
    }
  }
}

/// Cold calls on a fresh simulator (one per token count the cycle-level path
/// covers), then memo hits on the same shapes.
void replay_ndp(const LayerSetup& s, Tracer& tr) {
  ndp::NdpCoreSim sim{s.fleet.sys.ndp, s.fleet.sys.monde_mem};
  const moe::MoeModelConfig& m = s.ndp_model;
  const std::int64_t limit = sim.cycle_sim_token_limit;
  for (std::int64_t t = 1; t <= limit; ++t) {
    Scope call{&tr, "ndp.simulate_expert.cold"};
    sink(sim.simulate_expert({t, m.dmodel, m.dff}, m.dtype).latency.ns());
  }
  constexpr std::uint32_t kGroup = 64;
  for (int g = 0; g < 128; ++g) {
    Scope call{&tr, "ndp.simulate_expert.warm", -1, kGroup};
    for (std::uint32_t j = 0; j < kGroup; ++j) {
      const std::int64_t t = 1 + static_cast<std::int64_t>(j) % limit;
      sink(sim.simulate_expert({t, m.dmodel, m.dff}, m.dtype).latency.ns());
    }
  }
}

/// Weight streaming as the NDP core issues it: consecutive blocks of the
/// even-bank weight partition, kept in flight as fast as the channels accept.
void replay_dram(const LayerSetup& s, Tracer& tr, Metrics& out) {
  const dram::Spec& spec = s.fleet.sys.monde_mem;
  dram::DramSystem mem{spec};
  const ndp::PartitionLayout weights{spec, mem.mapper(), ndp::Partition::kWeights};
  constexpr std::uint32_t kGroup = 4096;
  std::uint64_t next = 0;
  for (int g = 0; g < 32; ++g) {
    Scope call{&tr, "dram.request", -1, kGroup};
    for (std::uint32_t issued = 0; issued < kGroup;) {
      const std::uint64_t addr = weights.block_address(next % weights.block_count());
      if (!mem.can_accept(addr)) {
        mem.advance();
        continue;
      }
      dram::Request r;
      r.addr = addr;
      r.type = dram::Request::Type::kRead;
      mem.enqueue(std::move(r));
      ++next;
      ++issued;
    }
    mem.run_until_idle();
  }
  out["dram.row_hit_rate"] = {mem.stats().row_hit_rate(), "ratio"};
}

std::vector<serve::ReplicaSnapshot> make_snapshots(std::size_t n, Rng& rng) {
  std::vector<serve::ReplicaSnapshot> snaps(n);
  for (std::size_t i = 0; i < n; ++i) {
    snaps[i].replica = i;
    snaps[i].in_flight = static_cast<std::size_t>(rng.next_below(16));
    snaps[i].outstanding_tokens = static_cast<std::int64_t>(rng.next_below(2048));
    snaps[i].prefix_sig = (std::uint64_t{1} << rng.next_below(64)) |
                          (std::uint64_t{1} << rng.next_below(64));
  }
  return snaps;
}

void replay_dispatch(const LayerSetup& s, Tracer& tr) {
  struct Case {
    serve::DispatchPolicy policy;
    std::size_t replicas;
    const char* span;
    std::uint32_t group;
  };
  const std::size_t fleet = s.fleet.replicas;
  const Case cases[] = {
      {serve::DispatchPolicy::kPowerOfTwoChoices, fleet,
       "serve.dispatch.pick.power-of-two-choices", 64},
      {serve::DispatchPolicy::kPowerOfTwoChoices, 10'000,
       "serve.dispatch.pick.power-of-two-choices.10k", 64},
      {serve::DispatchPolicy::kPrefixAffinity, fleet, "serve.dispatch.pick.prefix-affinity", 16},
      {serve::DispatchPolicy::kPrefixAffinity, 10'000, "serve.dispatch.pick.prefix-affinity.10k",
       4},
  };
  Rng rng{s.fleet.seed};
  serve::Request rq;
  rq.prompt_len = 96;
  rq.max_new_tokens = 8;
  rq.shared_prefix_len = 64;
  for (const Case& c : cases) {
    const std::vector<serve::ReplicaSnapshot> snaps = make_snapshots(c.replicas, rng);
    const auto dispatcher = serve::make_dispatcher(c.policy, s.fleet.seed + 10);
    for (int g = 0; g < 128; ++g) {
      Scope call{&tr, c.span, -1, c.group};
      for (std::uint32_t j = 0; j < c.group; ++j) {
        ++rq.id;
        rq.prefix_id = 1 + rq.id % 192;
        sink(static_cast<double>(dispatcher->pick(snaps, rq)));
      }
    }
  }
  const std::vector<serve::ReplicaSnapshot> snaps = make_snapshots(fleet, rng);
  for (int k = 0; k < 256; ++k) {
    Scope call{&tr, "serve.dispatch.eligible_snapshots"};
    sink(static_cast<double>(
        serve::eligible_snapshots(snaps, std::numeric_limits<double>::infinity()).size()));
  }
}

/// The workload's KV cache (enabled) with a sliding window of live requests.
void replay_kvcache(const LayerSetup& s, Tracer& tr) {
  serve::PrefixCacheConfig cfg = s.fleet.cluster.cache;
  cfg.enabled = true;
  serve::KvCache cache{cfg};
  constexpr std::size_t kLive = 16;
  for (std::size_t i = 0; i < s.requests.size(); ++i) {
    const serve::Request& rq = s.requests[i];
    const std::int64_t saved = cache.saved_tokens(rq);
    {
      Scope call{&tr, "serve.kvcache.admit", static_cast<std::int64_t>(rq.id)};
      cache.admit(rq, saved);
    }
    if (i >= kLive) {
      const serve::Request& old = s.requests[i - kLive];
      for (std::int64_t k = 0; k < old.max_new_tokens; ++k) cache.decode_token(old.id);
      cache.complete(old.id);
    }
  }
}

/// Every request's profiled experts through one replica's residency, a miss
/// inserting the expert the way ServerSim::step does.
void replay_expert_cache(const LayerSetup& s, Tracer& tr, Metrics& out) {
  core::ExpertCache cache{s.fleet.cluster.expert.cache_capacity};
  for (const serve::Request& rq : s.requests) {
    const auto& experts = rq.expert_profile.experts;
    if (experts.empty()) continue;
    Scope call{&tr, "core.expert_cache.access", static_cast<std::int64_t>(rq.id),
               static_cast<std::uint32_t>(experts.size())};
    for (const auto& e : experts) {
      const core::ExpertId id{e.layer, e.expert};
      if (!cache.access(id)) cache.insert(id);
    }
  }
  out["core.expert_cache.hit_ratio"] = {cache.hit_rate(), "ratio"};
}

void replay_arrivals(const LayerSetup& s, Tracer& tr) {
  const auto stream = s.fleet.arrivals();
  constexpr std::uint32_t kGroup = 64;
  const int groups = std::min(s.fleet.requests, 16'384) / static_cast<int>(kGroup);
  for (int g = 0; g < groups; ++g) {
    Scope call{&tr, "serve.arrivals.next", -1, kGroup};
    for (std::uint32_t j = 0; j < kGroup; ++j) sink(stream->next()->arrival.ns());
  }
}

/// p50 and p99 of the per-call samples of `span`, in `unit` (`ns_per_unit`
/// nanoseconds each), as `<metric>.p50` and `<metric>.p99`.
void add_call_metrics(const Tracer& tr, Metrics& out, const char* span, const std::string& metric,
                      double ns_per_unit, const char* unit) {
  std::vector<double> v = tr.per_call_ns(span);
  for (double& x : v) x /= ns_per_unit;
  out[metric + ".p50"] = {percentile(v, 50.0), unit};
  out[metric + ".p99"] = {percentile(v, 99.0), unit};
}

}  // namespace

LayerSetup layer_setup(const FleetConfig& fleet, const moe::MoeModelConfig& ndp_model) {
  LayerSetup s;
  s.fleet = fleet;
  s.ndp_model = ndp_model;
  s.share = std::max<std::size_t>(1, static_cast<std::size_t>(fleet.requests) / fleet.replicas);
  s.requests = serve::poisson_trace(kReplayRequests, fleet.mean_rate_per_replica(), fleet.shape,
                                    fleet.seed);
  const serve::ExpertServingConfig& ex = fleet.cluster.expert;
  const moe::WorkloadGenerator profiler{fleet.model, fleet.profile, ex.profile_seed};
  for (serve::Request& rq : s.requests) {
    rq.expert_profile = profiler.expert_profile_for(rq.id, ex.profile_width, ex.profile_tokens);
  }
  return s;
}

void replay_layers(const LayerSetup& s, Tracer& tr, Metrics& out, const MemoCounts* memo) {
  const auto sim = std::make_shared<ndp::NdpCoreSim>(s.fleet.sys.ndp, s.fleet.sys.monde_mem);
  (void)replay_replica(s, sim, static_cast<std::size_t>(kWarmRequests), nullptr);
  ReplicaPass pass;
  {
    Scope layer{&tr, "layer.replica"};
    pass = replay_replica(s, sim, s.requests.size(), &tr);
  }
  {
    Scope layer{&tr, "layer.server"};
    replay_server(s, sim, tr, out);
  }
  {
    Scope layer{&tr, "layer.strategy"};
    replay_strategies(s, sim, pass.works, tr);
  }
  const auto replay_hits = static_cast<double>(sim->memo_hits());
  const MemoCounts counts =
      memo ? *memo
           : MemoCounts{replay_hits, replay_hits + static_cast<double>(sim->memo_misses())};
  {
    Scope layer{&tr, "layer.timeline"};
    replay_timeline(tr);
  }
  {
    Scope layer{&tr, "layer.moe"};
    replay_moe(s, mean(pass.slots), pass.works, tr);
  }
  {
    Scope layer{&tr, "layer.ndp"};
    replay_ndp(s, tr);
  }
  {
    Scope layer{&tr, "layer.dram"};
    replay_dram(s, tr, out);
  }
  {
    Scope layer{&tr, "layer.dispatch"};
    replay_dispatch(s, tr);
  }
  {
    Scope layer{&tr, "layer.kvcache"};
    replay_kvcache(s, tr);
  }
  {
    Scope layer{&tr, "layer.expert_cache"};
    replay_expert_cache(s, tr, out);
  }
  {
    Scope layer{&tr, "layer.arrivals"};
    replay_arrivals(s, tr);
  }

  add_call_metrics(tr, out, "serve.server.advance_to", "serve.server.advance_to_us", 1e3, "us");
  add_call_metrics(tr, out, "serve.scheduler.admit", "serve.scheduler.admit_ns", 1.0, "ns");
  add_call_metrics(tr, out, "serve.scheduler.step_works", "serve.scheduler.step_works_us", 1e3,
                   "us");
  add_call_metrics(tr, out, "serve.scheduler.complete_step", "serve.scheduler.complete_step_ns",
                   1.0, "ns");
  out["serve.scheduler.batch_slots_mean"] = {mean(pass.slots), "slots"};
  add_call_metrics(tr, out, "core.engine.prefill", "core.engine.prefill_us", 1e3, "us");
  add_call_metrics(tr, out, "core.engine.decode_step", "core.engine.decode_step_us", 1e3, "us");
  out["core.engine.intervals_per_step"] = {mean(pass.intervals), "count"};
  for (const std::string kind : {"md-lb", "gpu-pm", "md-am"}) {
    add_call_metrics(tr, out, ("core.strategy.run_layer." + kind).c_str(),
                     "core.strategy.run_layer_us." + kind, 1e3, "us");
  }
  add_call_metrics(tr, out, "core.strategy.evaluate_layer_with_h",
                   "core.strategy.evaluate_layer_with_h_us", 1e3, "us");
  add_call_metrics(tr, out, "sim.timeline.place", "sim.timeline.place_ns", 1.0, "ns");
  add_call_metrics(tr, out, "sim.timeline.makespan", "sim.timeline.makespan_us", 1e3, "us");
  add_call_metrics(tr, out, "moe.workload.decoder_step_for", "moe.workload.decoder_step_for_us",
                   1e3, "us");
  add_call_metrics(tr, out, "moe.workload.merge", "moe.workload.merge_us", 1e3, "us");
  add_call_metrics(tr, out, "moe.gating.route", "moe.gating.route_us", 1e3, "us");
  add_call_metrics(tr, out, "moe.gating.experts_by_load", "moe.gating.experts_by_load_ns", 1.0,
                   "ns");
  add_call_metrics(tr, out, "ndp.simulate_expert.cold", "ndp.simulate_expert_cold_ms", 1e6, "ms");
  add_call_metrics(tr, out, "ndp.simulate_expert.warm", "ndp.simulate_expert_warm_ns", 1.0, "ns");
  out["ndp.memo_hit_ratio"] = {counts.lookups > 0.0 ? counts.hits / counts.lookups : 0.0, "ratio"};
  out["ndp.memo_lookups"] = {counts.lookups, "count"};
  out["ndp.cold_sims"] = {counts.lookups - counts.hits, "count"};
  add_call_metrics(tr, out, "dram.request", "dram.host_ns_per_request", 1.0, "ns");
  add_call_metrics(tr, out, "serve.dispatch.pick.power-of-two-choices",
                   "serve.dispatch.pick_ns.power-of-two-choices", 1.0, "ns");
  add_call_metrics(tr, out, "serve.dispatch.pick.power-of-two-choices.10k",
                   "serve.dispatch.pick_ns.power-of-two-choices.10k", 1.0, "ns");
  add_call_metrics(tr, out, "serve.dispatch.pick.prefix-affinity",
                   "serve.dispatch.pick_ns.prefix-affinity", 1.0, "ns");
  add_call_metrics(tr, out, "serve.dispatch.pick.prefix-affinity.10k",
                   "serve.dispatch.pick_ns.prefix-affinity.10k", 1.0, "ns");
  add_call_metrics(tr, out, "serve.dispatch.eligible_snapshots",
                   "serve.dispatch.eligible_snapshots_us", 1e3, "us");
  add_call_metrics(tr, out, "serve.kvcache.admit", "serve.kvcache.admit_ns", 1.0, "ns");
  add_call_metrics(tr, out, "core.expert_cache.access", "core.expert_cache.access_ns", 1.0, "ns");
  add_call_metrics(tr, out, "serve.arrivals.next", "serve.arrivals.next_ns", 1.0, "ns");
}

}  // namespace perfbench
