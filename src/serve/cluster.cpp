#include "serve/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/taskpool.hpp"
#include "ndp/ndp_core.hpp"

namespace monde::serve {

std::vector<ReplicaSpec> uniform_fleet(std::size_t n, core::StrategyKind strategy,
                                       SchedulerConfig sched, std::uint64_t seed0) {
  MONDE_REQUIRE(n > 0, "a fleet needs at least one replica");
  std::vector<ReplicaSpec> specs;
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    specs.push_back(ReplicaSpec{strategy, sched, seed0 + i, FaultSpec{}});
  }
  return specs;
}

void ClusterConfig::validate() const {
  health.validate();
  MONDE_REQUIRE(retry_timeout > Duration::zero(), "retry_timeout must be positive");
  MONDE_REQUIRE(warmup >= Duration::zero(), "warmup must be non-negative");
  MONDE_REQUIRE(autoscale_period > Duration::zero(), "autoscale_period must be positive");
  MONDE_REQUIRE(threads >= 1, "threads must be >= 1 (the calling thread counts)");
  cache.validate();
  expert.validate();
  disagg.validate();
}

std::string to_string(ClusterEvent::Kind kind) {
  switch (kind) {
    case ClusterEvent::Kind::kScaleUp: return "scale-up";
    case ClusterEvent::Kind::kScaleDown: return "scale-down";
    case ClusterEvent::Kind::kFailStop: return "fail-stop";
    case ClusterEvent::Kind::kFailureDetected: return "failure-detected";
    case ClusterEvent::Kind::kRetry: return "retry";
    case ClusterEvent::Kind::kMigrate: return "migrate";
    case ClusterEvent::Kind::kExpertRebalance: return "expert-rebalance";
    case ClusterEvent::Kind::kHandoff: return "handoff";
  }
  MONDE_ASSERT(false, "unknown cluster event kind");
  return {};
}

ClusterSim::ClusterSim(const core::SystemConfig& sys, const moe::MoeModelConfig& model,
                       const moe::SkewProfile& profile,
                       const std::vector<ReplicaSpec>& specs, ClusterConfig cfg)
    : sys_{sys}, model_{model}, profile_{profile}, cfg_{cfg} {
  MONDE_REQUIRE(!specs.empty(), "cluster needs at least one replica");
  cfg_.validate();
  // All replicas run the same platform, so one NdpCoreSim serves the whole
  // fleet and expert-shape latencies memoize across replicas (the sharing
  // is timing-neutral; see test_fastpath_diff).
  shared_sim_ = std::make_shared<ndp::NdpCoreSim>(sys_.ndp, sys_.monde_mem);
  if (cfg_.expert.enabled) {
    profiler_ = std::make_unique<moe::WorkloadGenerator>(model_, profile_,
                                                         cfg_.expert.profile_seed);
  }
  if (cfg_.disagg.enabled) {
    MONDE_REQUIRE(specs.size() > cfg_.disagg.prefill_replicas,
                  "disaggregated serving needs at least one decode replica beyond the "
                      << cfg_.disagg.prefill_replicas << " prefill replica(s)");
    for (const ReplicaSpec& spec : specs) {
      MONDE_REQUIRE(spec.sched.mode == BatchingMode::kContinuous,
                    "disaggregated serving requires continuous batching on every "
                    "replica (a fixed batch cannot release requests mid-batch)");
    }
  }
  replicas_.reserve(specs.size());
  next_seed_ = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    add_replica(specs[i], Duration::zero(), Duration::zero(),
                cfg_.disagg.enabled && i < cfg_.disagg.prefill_replicas);
    next_seed_ = std::max(next_seed_, specs[i].seed + 1);
  }
  // Autoscaled replicas clone the first spec, faults cleared: an injected
  // fault plan describes a *specific* node, not replacement capacity.
  growth_ = specs.front();
  growth_.fault = FaultSpec{};
}

void ClusterSim::add_replica(const ReplicaSpec& spec, Duration spawned_at,
                             Duration start_at, bool prefill) {
  Replica r;
  r.engine = std::make_unique<core::InferenceEngine>(sys_, model_, profile_, spec.strategy,
                                                     spec.seed, shared_sim_);
  r.server = std::make_unique<ServerSim>(*r.engine, spec.sched, start_at, spec.fault,
                                         cfg_.cache, cfg_.expert, cfg_.disagg, prefill);
  r.prefill = prefill;
  r.name = "replica" + std::to_string(replicas_.size()) + " (" +
           r.engine->strategy().name() + ")";
  if (prefill) r.name += " [prefill]";
  r.spawned_at = spawned_at;
  if (spec.fault.fail_stop()) {
    r.detect_at = failure_detection_time(spec.fault.fail_at, cfg_.health);
  }
  replicas_.push_back(std::move(r));
}

void ClusterSim::update_ewma(Replica& r) {
  const std::vector<StepRecord>& steps = r.server->steps();
  for (; r.steps_seen < steps.size(); ++r.steps_seen) {
    const double ms = (steps[r.steps_seen].end - steps[r.steps_seen].start).ms();
    r.ewma_ms = r.steps_seen == 0
                    ? ms
                    : cfg_.health.ewma_alpha * ms + (1.0 - cfg_.health.ewma_alpha) * r.ewma_ms;
  }
}

ReplicaSnapshot ClusterSim::snapshot(std::size_t i, Duration now) const {
  const Replica& r = replicas_[i];
  return ReplicaSnapshot{i,
                         r.server->in_flight(),
                         r.server->outstanding_tokens(),
                         /*accepting=*/!r.detected && !r.retired,
                         /*warming=*/r.server->start_at() > now,
                         (now - last_ok_heartbeat(now, r.server->fault().fail_at, cfg_.health))
                             .ms(),
                         r.ewma_ms,
                         r.server->expert_signature(),
                         r.server->prefix_signature(),
                         r.prefill};
}

std::vector<ReplicaSnapshot> ClusterSim::snapshots(Duration now) const {
  std::vector<ReplicaSnapshot> snaps;
  snaps.reserve(replicas_.size());
  for (std::size_t i = 0; i < replicas_.size(); ++i) snaps.push_back(snapshot(i, now));
  return snaps;
}

ClusterSim::AcceptingCounts ClusterSim::accepting_counts() const {
  AcceptingCounts n;
  for (const Replica& r : replicas_) {
    if (!r.detected && !r.retired) ++(r.prefill ? n.prefill : n.decode);
  }
  return n;
}

ClusterReport ClusterSim::run(std::vector<Request> trace, Dispatcher& dispatcher,
                              Autoscaler* autoscaler) {
  MONDE_REQUIRE(!used_, "ClusterSim::run() may be called only once");
  MONDE_REQUIRE(!trace.empty(), "cannot serve an empty trace");
  std::stable_sort(trace.begin(), trace.end(), arrival_order<Request>);
  // Preserve the classic error timing: duplicate ids are rejected before any
  // simulation runs (the streaming path can only catch them on arrival).
  {
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(trace.size());
    for (const Request& rq : trace) {
      MONDE_REQUIRE(seen.insert(rq.id).second, "duplicate request id " << rq.id << " in trace");
    }
  }
  TraceArrivalStream stream{std::move(trace)};
  return run(stream, dispatcher, autoscaler);
}

ClusterReport ClusterSim::run(ArrivalStream& arrivals, Dispatcher& dispatcher,
                              Autoscaler* autoscaler) {
  MONDE_REQUIRE(!used_, "ClusterSim::run() may be called only once");
  used_ = true;
  const bool fast = !cfg_.reference_loop;
  // Worker pool for the parallel advancement phase. threads == 1 builds no
  // pool at all: the loop below is then the plain sequential path.
  std::unique_ptr<common::TaskPool> pool;
  if (fast && cfg_.threads > 1) pool = std::make_unique<common::TaskPool>(cfg_.threads);

  // --- Arrival intake: lazy stream head + duplicate/order policing --------
  std::unordered_map<std::uint64_t, Duration> original_arrival;
  original_arrival.reserve(arrivals.size_hint());
  const auto note_original = [&](const Request& rq) {
    MONDE_REQUIRE(original_arrival.emplace(rq.id, rq.arrival).second,
                  "duplicate request id " << rq.id << " in trace");
  };
  std::optional<Request> head = arrivals.next();
  MONDE_REQUIRE(head.has_value(), "cannot serve an empty trace");
  note_original(*head);
  const auto pull_head = [&] {
    std::optional<Request> nxt = arrivals.next();
    if (nxt.has_value()) {
      MONDE_REQUIRE(!arrival_order(*nxt, *head),
                    "arrival stream is out of (arrival, id) order at request " << nxt->id);
      note_original(*nxt);
    }
    head = std::move(nxt);
  };

  // The re-dispatch queue: failure retries and scale-down migrations, merged
  // with the arrival stream in (time, id) order so per-replica enqueues stay
  // (arrival, id)-ordered. (Originals used to sit in this heap too; the
  // merge pops the exact same sequence, with O(retries) memory instead of
  // O(trace).)
  struct Item {
    Duration time;
    Request rq;
    bool migrated = false;  ///< re-dispatch came from a retirement, not a failure
    bool handoff = false;   ///< prefill-complete handoff bound for the decode pool
  };
  const auto later = [](const Item& a, const Item& b) {
    return a.time != b.time ? a.time > b.time : a.rq.id > b.rq.id;
  };
  std::priority_queue<Item, std::vector<Item>, decltype(later)> pending{later};
  const auto has_item = [&] { return head.has_value() || !pending.empty(); };
  const auto item_time = [&] {
    Duration t = head.has_value() ? head->arrival : Duration::infinite();
    if (!pending.empty()) t = monde::min(t, pending.top().time);
    return t;
  };
  const auto pop_item = [&] {
    // Lexicographic (time, id) merge; a stream request and a re-dispatch
    // never collide exactly (ids are unique per attempt epoch).
    const bool from_stream =
        head.has_value() &&
        (pending.empty() || head->arrival < pending.top().time ||
         (head->arrival == pending.top().time && head->id < pending.top().rq.id));
    if (from_stream) {
      Item it{head->arrival, *head, false};
      pull_head();
      return it;
    }
    Item it = pending.top();
    pending.pop();
    return it;
  };

  // --- Prefill->decode handoffs (disaggregated serving) -------------------
  // A prefill replica buffers a HandoffRecord the moment a request's
  // admission step completes (inside advance_to, possibly on a worker
  // thread); the cluster drains the buffer at the sequential commit that
  // follows every advance, turning each record into a decode-pool
  // re-dispatch item at `release + transfer`. That instant is clamped to a
  // floor that never precedes an already-popped item (the advance target at
  // fleet-wide commits; the last-popped time when only the prefill pool
  // advanced), so the global (time, id) pop order -- and with it the
  // per-replica (arrival, id) enqueue contract -- survives releases
  // discovered mid-event. Releases almost always surface through the
  // prefill-pool anchor below, which advances no decode replica and so can
  // afford the loose floor; the fleet-wide commits only catch releases
  // landing exactly on an external anchor, where the tight clamp is exact.
  const bool disagg_on = cfg_.disagg.enabled;
  Duration last_pop = Duration::zero();  // latest item the loop dispatched
  const auto drain_handoffs = [&](std::size_t i, Duration apply_until, Duration floor) {
    if (!disagg_on || !replicas_[i].prefill) return;
    for (HandoffRecord& h : replicas_[i].server->take_handoffs(apply_until)) {
      Request rq = std::move(h.request);
      ++rq.attempt;
      pending.push(Item{monde::max(h.release + h.transfer, floor), std::move(rq),
                        /*migrated=*/false, /*handoff=*/true});
    }
  };

  // --- Event calendar (fast mode): per-replica server events --------------
  // Min-heap keyed (time, replica); an entry is dead the moment its
  // replica's version moved past the tagged one (lazy deletion). Invariant:
  // every replica whose next_event_time() is finite has exactly one live
  // entry -- each mutation site re-pushes, and a mutation always bumps the
  // version, killing prior entries.
  struct CalEntry {
    Duration time;
    std::uint64_t version;
    std::size_t replica;
  };
  const auto cal_after = [](const CalEntry& a, const CalEntry& b) {
    return a.time != b.time ? a.time > b.time : a.replica > b.replica;
  };
  std::priority_queue<CalEntry, std::vector<CalEntry>, decltype(cal_after)> calendar{
      cal_after};
  const auto push_calendar = [&](std::size_t i) {
    if (!fast) return;
    const ServerSim& s = *replicas_[i].server;
    const Duration t = s.next_event_time();
    if (t == Duration::infinite()) return;  // idle: woken by a future enqueue
    calendar.push(CalEntry{t, s.version(), i});
  };
  const auto settle_calendar = [&] {
    while (!calendar.empty() && calendar.top().version !=
                                    replicas_[calendar.top().replica].server->version()) {
      calendar.pop();
    }
  };

  // Sorted fail-stop and detection cursors (fast mode): faults are fixed at
  // construction (autoscaled replicas spawn fault-free), so the reference
  // loop's per-event min-scans collapse to two precomputed orders.
  std::vector<std::pair<Duration, std::size_t>> fail_order;    // (fail_at, replica)
  std::vector<std::pair<Duration, std::size_t>> detect_order;  // (detect_at, replica)
  if (fast) {
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (replicas_[i].server->fault().fail_stop()) {
        fail_order.emplace_back(replicas_[i].server->fault().fail_at, i);
        detect_order.emplace_back(replicas_[i].detect_at, i);
      }
    }
    std::sort(fail_order.begin(), fail_order.end());
    std::sort(detect_order.begin(), detect_order.end());
  }
  std::size_t fail_cursor = 0;
  std::size_t detect_cursor = 0;

  // --- Incremental eligible-snapshot index (fast mode) --------------------
  // `eligible` holds exactly the accepting replicas in ascending index order
  // (the order eligible_snapshots() yields); load fields are written through
  // whenever a replica's server mutates, and the few time-varying fields
  // that can still change without a mutation (warming during cold start,
  // heartbeat age of an undetected fail-stop) are refreshed per dispatch
  // from the `time_sensitive` worklist. Eligibility itself cannot silently
  // change between mutations: detections are processed before any dispatch
  // at or past them, and a healthy replica's heartbeat age never exceeds
  // one interval (<= timeout). The dispatch step reads this index by
  // reference; filters narrower than it (slow-EWMA, role) copy per dispatch.
  constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  std::vector<ReplicaSnapshot> eligible;
  std::vector<std::size_t> epos;            // replica index -> slot in `eligible`
  std::vector<std::size_t> time_sensitive;  // replicas with time-varying fields
  const auto eligible_add = [&](std::size_t i, Duration now) {
    if (!fast) return;
    epos.resize(replicas_.size(), kNoSlot);
    epos[i] = eligible.size();
    eligible.push_back(snapshot(i, now));
    if (replicas_[i].server->start_at() > now || replicas_[i].server->fault().fail_stop()) {
      time_sensitive.push_back(i);
    }
  };
  const auto eligible_remove = [&](std::size_t i) {
    if (!fast) return;
    const std::size_t at = epos[i];
    if (at == kNoSlot) return;
    eligible.erase(eligible.begin() + static_cast<std::ptrdiff_t>(at));
    epos[i] = kNoSlot;
    for (std::size_t p = at; p < eligible.size(); ++p) epos[eligible[p].replica] = p;
  };
  const auto write_through = [&](std::size_t i) {
    if (!fast) return;
    const std::size_t at = epos[i];
    if (at == kNoSlot) return;
    ReplicaSnapshot& s = eligible[at];
    s.in_flight = replicas_[i].server->in_flight();
    s.outstanding_tokens = replicas_[i].server->outstanding_tokens();
    s.step_ewma_ms = replicas_[i].ewma_ms;
    s.expert_sig = replicas_[i].server->expert_signature();
    s.prefix_sig = replicas_[i].server->prefix_signature();
  };
  const auto refresh_time_sensitive = [&](Duration now) {
    std::size_t keep = 0;
    for (std::size_t k = 0; k < time_sensitive.size(); ++k) {
      const std::size_t i = time_sensitive[k];
      const Replica& r = replicas_[i];
      const bool warming = r.server->start_at() > now;
      if (epos[i] != kNoSlot) {
        ReplicaSnapshot& s = eligible[epos[i]];
        s.warming = warming;
        s.heartbeat_age_ms =
            (now - last_ok_heartbeat(now, r.server->fault().fail_at, cfg_.health)).ms();
      }
      // Done once the cold start is over and no fail-stop can age the
      // heartbeat further (a detected replica left `eligible` for good).
      if (warming || (r.server->fault().fail_stop() && !r.detected)) {
        time_sensitive[keep++] = i;
      }
    }
    time_sensitive.resize(keep);
  };
  if (fast) {
    for (std::size_t i = 0; i < replicas_.size(); ++i) eligible_add(i, Duration::zero());
  }

  // --- Per-phase wall-clock (ClusterConfig::measure_phases) ----------------
  // Three buckets for the perf-trend dashboard: advancement (fans out to the
  // pool), the sequential commit write-backs, and the sequential dispatch
  // decisions. Zero-cost when off; simulated results never depend on them.
  using WallClock = std::chrono::steady_clock;
  const bool measure = cfg_.measure_phases;
  double phase_advance_s = 0.0;
  double phase_dispatch_s = 0.0;
  double phase_commit_s = 0.0;
  WallClock::time_point phase_t0{};
  const auto phase_begin = [&] {
    if (measure) phase_t0 = WallClock::now();
  };
  const auto phase_end = [&](double& bucket) {
    if (measure) {
      bucket += std::chrono::duration<double>(WallClock::now() - phase_t0).count();
    }
  };

  // --- Fleet advancement ---------------------------------------------------
  // The handoff drain sits between the EWMA fold and the index/calendar
  // write-backs: taking the buffer may mutate the server (version bump), so
  // the calendar entry must be pushed after.
  const auto commit_one = [&](std::size_t i, Duration t) {
    update_ewma(replicas_[i]);
    drain_handoffs(i, t, t);
    write_through(i);
    push_calendar(i);
  };
  // Fast-mode equivalent of advance_all(t): collect the replicas whose
  // fail-stop lies at or before t (advance_to mutates them even when they
  // look event-less) plus every calendar entry strictly before t into one
  // batch -- a replica with no entry before t provably has nothing to do
  // there (advance_to(t) with next_event_time() >= t is a no-op for a live
  // server), and an advanced replica's next event lands at or after t, so
  // one batch is exhaustive. The batch then advances each replica all the
  // way to t: in parallel on the pool when one exists (servers are mutually
  // independent; the shared NdpCoreSim memo is concurrency-safe with
  // canonical values), with the per-replica write-backs (EWMA fold,
  // snapshot write-through, calendar re-push) committed sequentially in
  // ascending replica order afterwards. The write-backs commute -- each
  // touches its own replica's state, and the index updates are pure
  // functions of the final fleet state -- so the fixed commit order keeps
  // parallel runs bit-identical to the sequential interleaving.
  std::vector<std::size_t> batch;  // reused across events
  const auto advance_fleet_to = [&](Duration t) {
    batch.clear();
    while (fail_cursor < fail_order.size() && fail_order[fail_cursor].first <= t) {
      batch.push_back(fail_order[fail_cursor].second);
      ++fail_cursor;
    }
    for (;;) {
      settle_calendar();
      if (calendar.empty() || calendar.top().time >= t) break;
      batch.push_back(calendar.top().replica);
      calendar.pop();
    }
    if (batch.empty()) return;
    // A failing replica may also hold a live calendar entry before t; never
    // hand the same replica to two workers.
    std::sort(batch.begin(), batch.end());
    batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
    // Advance, then commit: the write-backs commute with advancement (each
    // touches only its own replica's state, the index updates are
    // pure functions of the final fleet state), so the sequential path uses
    // the same advance-all-then-commit-all split the pool path does -- one
    // code shape, and the phase timers bucket both paths identically.
    phase_begin();
    if (pool != nullptr && batch.size() > 1) {
      pool->run(batch.size(),
                [&](std::size_t k) { replicas_[batch[k]].server->advance_to(t); });
    } else {
      for (const std::size_t i : batch) replicas_[i].server->advance_to(t);
    }
    phase_end(phase_advance_s);
    phase_begin();
    for (const std::size_t i : batch) commit_one(i, t);
    phase_end(phase_commit_s);
  };
  const auto advance = [&](Duration t) {
    if (fast) {
      advance_fleet_to(t);
      return;
    }
    phase_begin();
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      replicas_[i].server->advance_to(t);
      update_ewma(replicas_[i]);
      // Same ascending-index drain order as the fast loop's commit phase;
      // the heap re-sorts the pushed items, so interleaving is immaterial.
      drain_handoffs(i, t, t);
    }
    phase_end(phase_advance_s);
  };

  // With disaggregation, prefill completions are cluster events in their own
  // right: each release spawns a decode-pool re-dispatch, and waiting for the
  // next arrival/detection/tick to surface it would delay the handoff by the
  // whole inter-anchor gap. When the earliest event among live prefill
  // replicas precedes every external anchor, run ONLY the prefill pool
  // forward to that anchor and convert its releases at their true release
  // times. Decode replicas stay put, so a surfaced item earlier than the
  // external anchor is dispatched into a decode replica whose clock has not
  // yet passed it -- causality holds. Progress is guaranteed: afterwards
  // every live prefill replica's next event is at or beyond the horizon, so
  // the branch cannot re-fire until new prefill work (an item) is dispatched.
  const auto advance_prefill_to = [&](Duration horizon) {
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      Replica& r = replicas_[i];
      if (!r.prefill || r.detected) continue;
      phase_begin();
      r.server->advance_to(horizon);
      phase_end(phase_advance_s);
      phase_begin();
      update_ewma(r);
      drain_handoffs(i, horizon, last_pop);
      write_through(i);
      push_calendar(i);
      phase_end(phase_commit_s);
    }
  };

  const bool log = cfg_.event_log_enabled;
  std::vector<ClusterEvent> events;
  std::size_t retries = 0;
  std::size_t migrations = 0;
  std::size_t handoffs = 0;
  std::size_t peak = accepting_counts().total();
  Duration next_tick = cfg_.autoscale_period;
  // Boot-time pool shares (disaggregated autoscaling grows the pool furthest
  // below its share). run() is called once, so replicas_ is the boot fleet.
  const std::size_t boot_prefill = disagg_on ? cfg_.disagg.prefill_replicas : 0;
  const std::size_t boot_decode = disagg_on ? replicas_.size() - boot_prefill : 0;

  // Role routing (disaggregated serving): the pool filter applies after the
  // health/EWMA filter. If the soft EWMA filter left the needed pool empty,
  // fall back to the full accepting set before declaring the pool gone.
  const auto disagg_view = [&](const std::vector<ReplicaSnapshot>& filtered,
                               const std::vector<ReplicaSnapshot>& accepting,
                               const Request& rq) {
    const bool want_prefill = !rq.decode_phase();
    std::vector<ReplicaSnapshot> pool =
        pool_snapshots(filtered, want_prefill, cfg_.disagg.decode_admit_tokens);
    if (pool.empty()) {
      pool = pool_snapshots(accepting, want_prefill, cfg_.disagg.decode_admit_tokens);
    }
    MONDE_REQUIRE(!pool.empty(), "no " << (want_prefill ? "prefill" : "decode")
                                       << " replica is accepting requests");
    return pool;
  };

  // --- Expert-aware serving state (inert when disabled) --------------------
  const bool expert_on = cfg_.expert.enabled;
  const bool rebalance_on = expert_on && cfg_.expert.rebalance_period > Duration::zero();
  Duration next_rebalance = cfg_.expert.rebalance_period;
  std::size_t expert_migrations = 0;
  std::size_t pruned_requests = 0;
  // Fleet-wide demand per expert, accumulated from dispatched profiles; the
  // ordered map gives rebalance ticks a deterministic hottest-first walk.
  std::map<core::ExpertId, std::uint64_t> fleet_expert_load;
  // Truncate a profile to the `width` heaviest experts per layer (entries
  // are layer-major, descending activation). Returns true if it shrank.
  const auto prune_profile = [](moe::ExpertProfile& p, int width) {
    std::vector<moe::ExpertProfile::Entry> kept;
    kept.reserve(p.experts.size());
    int run = 0;
    int cur_layer = std::numeric_limits<int>::min();
    for (const auto& e : p.experts) {
      if (e.layer != cur_layer) {
        cur_layer = e.layer;
        run = 0;
      }
      if (run++ < width) kept.push_back(e);
    }
    if (kept.size() == p.experts.size()) return false;
    p.experts = std::move(kept);
    p.rebuild_signature();
    return true;
  };

  // Work that keeps drain-phase autoscale ticks alive: any replica (even a
  // retiring one, whose drain extends the makespan survivors are billed to)
  // still owing requests AND able to serve them without drain() -- a
  // fixed-mode replica holding an under-full batch waits for a seal that
  // only drain() provides (next_event_time() is infinite), and ticking on
  // it forever would hang the loop. In fast mode the settled calendar IS
  // this predicate: a live entry exists iff some replica's next event is
  // finite, which implies undetected work in flight.
  const auto fleet_has_live_work = [&] {
    if (fast) {
      settle_calendar();
      return !calendar.empty();
    }
    for (const Replica& r : replicas_) {
      if (!r.detected && r.server->in_flight() > 0 &&
          r.server->next_event_time() < Duration::infinite()) {
        return true;
      }
    }
    return false;
  };

  for (;;) {
    const Duration item_t = item_time();
    // Earliest undetected fail-stop: its detection is a cluster event even
    // when it lies beyond the last arrival (stranded work must recover).
    Duration det_t = Duration::infinite();
    std::size_t det_i = 0;
    if (fast) {
      if (detect_cursor < detect_order.size()) {
        det_t = detect_order[detect_cursor].first;
        det_i = detect_order[detect_cursor].second;
      }
    } else {
      for (std::size_t i = 0; i < replicas_.size(); ++i) {
        const Replica& r = replicas_[i];
        if (!r.detected && r.detect_at < det_t) {
          det_t = r.detect_at;
          det_i = i;
        }
      }
    }
    // The autoscaler ticks while arrivals/retries remain AND through the
    // drain phase while any replica still holds work, so late scale-downs
    // release idle capacity (drain-phase ticks may only scale down).
    const Duration tick_t =
        (autoscaler != nullptr && (has_item() || fleet_has_live_work()))
            ? next_tick
            : Duration::infinite();
    // Rebalance ticks only matter while requests remain to route: once the
    // stream and retry queue are empty, residency can no longer help anyone.
    const Duration reb_t = (rebalance_on && has_item()) ? next_rebalance
                                                        : Duration::infinite();
    // Earliest prefill-internal event (admission start, step boundary, or an
    // already-buffered release awaiting drain). Finite only with
    // disaggregation on; infinite anchors never win a strict comparison.
    Duration ho_t = Duration::infinite();
    if (disagg_on) {
      for (const Replica& r : replicas_) {
        if (!r.prefill || r.detected) continue;
        ho_t = monde::min(ho_t, r.server->next_event_time());
        if (r.server->has_handoffs()) ho_t = monde::min(ho_t, last_pop);
      }
    }

    if (disagg_on && ho_t < det_t && ho_t < item_t && ho_t < tick_t &&
        ho_t < reb_t) {
      // The prefill pool owns every fleet event until the next external
      // anchor: run it to that horizon and surface its releases. With no
      // external anchor left (all infinite) this drains the prefill tail
      // outright; new handoff items re-arm the item branch.
      advance_prefill_to(
          monde::min(monde::min(det_t, item_t), monde::min(tick_t, reb_t)));
      continue;
    }

    if (det_t <= item_t && det_t <= tick_t && det_t <= reb_t) {
      if (det_t == Duration::infinite()) {
        // ho_t is infinite too (it lost the strict comparison above), so the
        // prefill pool holds no future work: the fleet is truly idle.
        break;
      }
      Replica& r = replicas_[det_i];
      advance(det_t);  // the dying replica freezes at its fail-stop instant
      r.detected = true;
      if (fast) ++detect_cursor;
      eligible_remove(det_i);
      const Duration died_at = r.server->fault().fail_at;
      if (log) {
        events.push_back({ClusterEvent::Kind::kFailStop, died_at, det_i,
                          "replica" + std::to_string(det_i) + " died"});
      }
      // A replica evacuated by a scale-down migration died empty: its work
      // already moved on, so there is nothing (and no way) to harvest.
      std::vector<Request> stranded;
      if (!r.evacuated) stranded = r.server->harvest_stranded();
      if (log) {
        events.push_back({ClusterEvent::Kind::kFailureDetected, det_t, det_i,
                          "heartbeat stale; " + std::to_string(stranded.size()) +
                              " stranded request(s) queued for retry"});
      }
      const bool resume = cfg_.cache.enabled && cfg_.cache.survive_failstop;
      for (Request rq : stranded) {
        ++rq.attempt;
        Duration at = det_t + cfg_.retry_timeout;
        if (resume) {
          // Surviving-cache mode: the checkpointed prefix is restored onto
          // the retry replica at the modelled transfer cost. With a
          // checkpoint cadence, decode progress rounds down to the last
          // interval boundary -- work past it was never checkpointed and is
          // repeated on the retry replica (a decode-pool victim's requests
          // keep their full prompt, so they re-home within the decode pool).
          if (cfg_.cache.checkpoint_interval_tokens > 0) {
            rq.resume.decoded -=
                rq.resume.decoded % cfg_.cache.checkpoint_interval_tokens;
            if (rq.resume.decoded == 0) rq.resume.first_token = Duration::zero();
          }
          at += cfg_.cache.transfer_time_for(rq.resume.resident_tokens());
        } else {
          // Lost-cache mode: the KV state died with the node.
          rq.resume = ResumeState{};
        }
        pending.push(Item{at, rq, false});
      }
      continue;
    }

    if (tick_t <= item_t && tick_t <= reb_t) {
      advance(tick_t);
      AutoscaleSignals sig;
      sig.now = tick_t;
      std::vector<double> waits_ms;
      for (const Replica& r : replicas_) {
        if (r.detected || r.retired) continue;
        if (r.server->start_at() > tick_t) {
          ++sig.warming_replicas;
        } else {
          ++sig.ready_replicas;
        }
        sig.in_flight += r.server->in_flight();
        sig.outstanding_tokens += r.server->outstanding_tokens();
        for (const Duration arrival : r.server->waiting_arrivals()) {
          waits_ms.push_back((tick_t - arrival).ms());
        }
      }
      sig.waiting_requests = waits_ms.size();
      if (!waits_ms.empty()) {
        sig.p95_queue_delay_ms = percentile(std::move(waits_ms), 95.0);
      }
      std::size_t target = std::max<std::size_t>(autoscaler->target_size(sig), 1);
      std::size_t capacity = accepting_counts().total();
      // Drain phase (no arrivals or retries left): scaling up is pure waste
      // -- no dispatch will ever reach the new replica -- so only honor the
      // downward direction of the policy's answer.
      if (!has_item()) target = std::min(target, capacity);
      while (capacity < target) {
        ReplicaSpec spec = growth_;
        spec.seed = next_seed_++;
        const std::size_t idx = replicas_.size();
        bool spawn_prefill = false;
        if (disagg_on) {
          // Grow the pool furthest below its boot share (accepting members
          // vs. boot prefill:decode ratio); ties grow the decode pool.
          const AcceptingCounts n = accepting_counts();
          spawn_prefill = n.prefill * boot_decode < n.decode * boot_prefill;
        }
        add_replica(spec, tick_t, tick_t + cfg_.warmup, spawn_prefill);
        eligible_add(idx, tick_t);
        if (log) {
          events.push_back({ClusterEvent::Kind::kScaleUp, tick_t, idx,
                            "spawned " + replicas_.back().name + ", ready at " +
                                (tick_t + cfg_.warmup).str()});
        }
        ++capacity;
      }
      while (capacity > target && capacity > 1) {
        // Retire the accepting replica owing the fewest tokens, newest on
        // ties: it drains its queue, then idles, never dispatched to again.
        // Disaggregated fleets never retire a pool's last accepting member
        // (requests of its phase would have nowhere to go).
        const AcceptingCounts n = accepting_counts();
        std::size_t victim = replicas_.size();
        for (std::size_t i = 0; i < replicas_.size(); ++i) {
          const Replica& r = replicas_[i];
          if (r.detected || r.retired) continue;
          if (disagg_on && (r.prefill ? n.prefill : n.decode) <= 1) continue;
          if (victim == replicas_.size() ||
              r.server->outstanding_tokens() <=
                  replicas_[victim].server->outstanding_tokens()) {
            victim = i;
          }
        }
        if (victim == replicas_.size()) break;  // every candidate is its pool's last
        replicas_[victim].retired = true;
        replicas_[victim].retired_at = tick_t;
        eligible_remove(victim);
        // A victim that silently fail-stopped inside the detection lag
        // cannot be evacuated -- its state died with it. Retire it plainly;
        // the heartbeat monitor will harvest its stranded work.
        if (cfg_.cache.enabled && cfg_.cache.migrate_on_retire &&
            !replicas_[victim].server->failed()) {
          // Live migration: the retiree stops at its step boundary and its
          // unfinished requests move (with their resident KV state, at the
          // modelled transfer cost) to the surviving fleet. Requests with
          // no resident state re-dispatch at the tick itself.
          std::vector<Request> moved = replicas_[victim].server->evacuate();
          replicas_[victim].evacuated = true;
          // A prefill victim's forced step-boundary completion may have
          // released prefill-complete requests: convert them now (their
          // release lies at or after this tick), or they die with the buffer.
          drain_handoffs(victim, tick_t, tick_t);
          push_calendar(victim);  // evacuation mutated the server (to no events)
          const Duration boundary = monde::max(tick_t, replicas_[victim].server->now());
          for (Request rq : moved) {
            ++rq.attempt;
            const std::int64_t resident = rq.resume.resident_tokens();
            const Duration at =
                resident > 0 ? boundary + cfg_.cache.transfer_time_for(resident) : tick_t;
            pending.push(Item{at, rq, true});
          }
          if (log) {
            std::string detail = "retired " + replicas_[victim].name + " (migrated ";
            detail += std::to_string(moved.size());
            detail += " request(s))";
            events.push_back({ClusterEvent::Kind::kScaleDown, tick_t, victim, detail});
          }
        } else if (log) {
          events.push_back({ClusterEvent::Kind::kScaleDown, tick_t, victim,
                            "retired " + replicas_[victim].name + " (" +
                                std::to_string(replicas_[victim].server->in_flight()) +
                                " request(s) left to drain)"});
        }
        --capacity;
      }
      peak = std::max(peak, accepting_counts().total());
      next_tick += cfg_.autoscale_period;
      continue;
    }

    if (reb_t <= item_t) {
      // Cross-replica expert rebalancing: push the fleet's currently hottest
      // experts (by dispatched-profile demand) into every accepting
      // replica's residency. Each preload is priced as a fetch over the
      // configured link, charged to the receiving replica's next step --
      // migrating hot experts toward the shards that will serve them
      // instead of letting each replica fault them in one miss at a time.
      advance(reb_t);
      std::vector<std::pair<std::uint64_t, core::ExpertId>> by_demand;
      by_demand.reserve(fleet_expert_load.size());
      for (const auto& [id, count] : fleet_expert_load) by_demand.push_back({count, id});
      // Hottest first; the map walk above yields ascending ExpertId, and the
      // stable sort keeps that order within a demand tie -- deterministic.
      std::stable_sort(by_demand.begin(), by_demand.end(),
                       [](const auto& a, const auto& b) { return a.first > b.first; });
      if (by_demand.size() > cfg_.expert.rebalance_hot_experts) {
        by_demand.resize(cfg_.expert.rebalance_hot_experts);
      }
      std::vector<core::ExpertId> hot;
      hot.reserve(by_demand.size());
      for (const auto& [count, id] : by_demand) hot.push_back(id);
      if (!hot.empty()) {
        for (std::size_t i = 0; i < replicas_.size(); ++i) {
          Replica& r = replicas_[i];
          if (r.detected || r.retired) continue;
          // preload_experts() no-ops on a silently fail-stopped server.
          const std::size_t fetched = r.server->preload_experts(hot);
          if (fetched == 0) continue;
          expert_migrations += fetched;
          write_through(i);
          push_calendar(i);
          if (log) {
            events.push_back({ClusterEvent::Kind::kExpertRebalance, reb_t, i,
                              "preloaded " + std::to_string(fetched) +
                                  " hot expert(s) onto replica" + std::to_string(i)});
          }
        }
      }
      next_rebalance += cfg_.expert.rebalance_period;
      continue;
    }

    // The detection branch wins every all-infinite tie, so an item is
    // guaranteed here: item_t < det_t/tick_t/reb_t implies has_item().
    MONDE_ASSERT(has_item(), "item branch reached with no item");
    // Advance before popping: the advance may surface prefill-complete
    // handoffs clamped to this very instant, and such an item (possibly
    // carrying a smaller id than the current head) must be eligible for
    // this pop to keep the global (time, id) dispatch order.
    advance(item_t);
    const Item it = pop_item();
    last_pop = it.time;
    phase_begin();
    Request rq = it.rq;
    rq.arrival = it.time;  // = the original arrival except for re-dispatches
    if (expert_on) {
      // First dispatch derives the profile; a retry/migration keeps the one
      // it already carries (possibly pruned by an earlier overload).
      if (rq.expert_profile.empty()) {
        rq.expert_profile = profiler_->expert_profile_for(
            rq.id, cfg_.expert.profile_width, cfg_.expert.profile_tokens);
      }
      // Fleet demand feeds the rebalance ticks; count the full profile (the
      // demand exists whether or not pruning later drops part of it).
      for (const auto& e : rq.expert_profile.experts) {
        ++fleet_expert_load[core::ExpertId{e.layer, e.expert}];
      }
    }
    // The view pipeline, shared by both loops: the accepting set, then the
    // soft slow-EWMA filter (finite factor only), then the disaggregated
    // role filter. In fast mode the accepting set is the maintained index
    // itself: detections at or before `it.time` were processed first, and a
    // healthy heartbeat age never exceeds one interval, so the reference's
    // stale-heartbeat cut provably keeps exactly `eligible`. The reference
    // loop rebuilds it from fresh snapshots, which makes the heartbeat age
    // authoritative for custom policies too.
    std::vector<ReplicaSnapshot> rebuilt;  // the reference loop's accepting set
    if (fast) {
      refresh_time_sensitive(it.time);
    } else {
      rebuilt = eligible_snapshots(snapshots(it.time), std::numeric_limits<double>::infinity(),
                                   cfg_.health.heartbeat_timeout.ms());
    }
    const std::vector<ReplicaSnapshot>& accepting = fast ? eligible : rebuilt;
    MONDE_REQUIRE(!accepting.empty(),
                  "no replica is accepting requests (every replica failed or retired)");
    const std::vector<ReplicaSnapshot>* view = &accepting;
    std::vector<ReplicaSnapshot> healthy;
    if (std::isfinite(cfg_.health.slow_ewma_factor)) {
      healthy = eligible_snapshots(accepting, cfg_.health.slow_ewma_factor,
                                   cfg_.health.heartbeat_timeout.ms());
      view = &healthy;
    }
    std::vector<ReplicaSnapshot> role_pool;
    if (disagg_on) {
      role_pool = disagg_view(*view, accepting, rq);
      view = &role_pool;
    }
    const std::size_t pick = dispatcher.pick(*view, rq);
    MONDE_REQUIRE(pick < view->size(),
                  "dispatcher picked entry " << pick << " of " << view->size());
    const std::size_t idx = (*view)[pick].replica;
    // Pruned-expert degraded mode: a request landing on an overloaded
    // replica is served with a truncated profile -- fewer experts to keep
    // hot, fewer fetches to price -- instead of queueing at full fidelity.
    if (expert_on && cfg_.expert.prune_outstanding_tokens > 0 &&
        replicas_[idx].server->outstanding_tokens() >
            cfg_.expert.prune_outstanding_tokens &&
        prune_profile(rq.expert_profile, cfg_.expert.prune_width)) {
      ++pruned_requests;
    }
    replicas_[idx].server->enqueue(rq);
    ++replicas_[idx].dispatched;
    write_through(idx);
    push_calendar(idx);
    if (it.handoff) {
      // Handoffs are their own lifecycle event, not failure retries --
      // attempt was bumped (it IS a re-dispatch) but the retry/migration
      // counters stay clean.
      ++handoffs;
      if (log) {
        events.push_back({ClusterEvent::Kind::kHandoff, it.time, idx,
                          "request " + std::to_string(rq.id) +
                              " prefill complete -> replica" + std::to_string(idx) + " (" +
                              std::to_string(rq.resume.resident_tokens()) + " KV tokens)"});
      }
    } else if (rq.attempt > 0) {
      if (log) {
        std::string detail = "request " + std::to_string(rq.id) + " attempt " +
                             std::to_string(rq.attempt) + " -> replica" + std::to_string(idx);
        if (rq.resume.any()) {
          detail += " (resumed ";
          detail += std::to_string(rq.resume.resident_tokens());
          detail += " tokens)";
        }
        events.push_back({it.migrated ? ClusterEvent::Kind::kMigrate
                                      : ClusterEvent::Kind::kRetry,
                          it.time, idx, detail});
      }
      if (it.migrated) {
        ++migrations;
      } else {
        ++retries;
      }
    }
    phase_end(phase_dispatch_s);
  }
  // No further arrivals: replicas finish independently, so each can drain
  // to completion on its own (failed replicas were harvested above). The
  // drains are mutually independent, so they fan out to the pool too; the
  // report below reads the servers only after every drain returned.
  phase_begin();
  if (pool != nullptr && replicas_.size() > 1) {
    pool->run(replicas_.size(), [&](std::size_t i) { replicas_[i].server->drain(); });
  } else {
    for (Replica& r : replicas_) r.server->drain();
  }
  phase_end(phase_advance_s);

  ClusterReport rep;
  rep.policy = dispatcher.name();
  rep.autoscaler = autoscaler != nullptr ? autoscaler->name() : "";
  rep.retries = retries;
  rep.migrations = migrations;
  rep.handoffs = handoffs;
  rep.peak_replicas = peak;
  rep.expert_migrations = expert_migrations;
  rep.pruned_requests = pruned_requests;
  rep.phase_advance_s = phase_advance_s;
  rep.phase_dispatch_s = phase_dispatch_s;
  rep.phase_commit_s = phase_commit_s;
  std::stable_sort(events.begin(), events.end(),
                   [](const ClusterEvent& a, const ClusterEvent& b) { return a.time < b.time; });
  rep.events = std::move(events);

  std::vector<ServeReport> serves;
  serves.reserve(replicas_.size());
  for (Replica& r : replicas_) serves.push_back(r.server->report());
  // Fleet makespan: a spawned replica that never ran a step contributes its
  // spawn instant, not its (possibly later) warm-up boundary.
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    rep.makespan = monde::max(rep.makespan, serves[i].steps.empty()
                                                ? replicas_[i].spawned_at
                                                : serves[i].makespan);
  }

  std::vector<double> busy_ms;
  std::vector<double> ttft_ms, tpot_ms, e2e_ms;
  Duration total_busy = Duration::zero();
  Duration total_alive = Duration::zero();
  rep.replicas.reserve(replicas_.size());
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    Replica& r = replicas_[i];
    ReplicaReport rr;
    rr.name = r.name;
    rr.serve = std::move(serves[i]);
    rr.dispatched = r.dispatched;
    rr.spawned_at = r.spawned_at;
    rr.failed = r.server->failed();
    rr.retired = r.retired;
    // A failed replica's provisioned window ends at its death; a retired
    // one's when its drain completes (the capacity is released then) -- so
    // replica_seconds and fleet utilization credit scale-downs. Survivors
    // are billed until the fleet finishes.
    if (rr.failed) {
      rr.alive_until = monde::min(r.server->fault().fail_at, rep.makespan);
    } else if (rr.retired) {
      rr.alive_until = monde::max(r.retired_at,
                                  rr.serve.steps.empty() ? rr.spawned_at : rr.serve.makespan);
    } else {
      rr.alive_until = rep.makespan;
    }
    rr.alive_until = monde::max(rr.alive_until, rr.spawned_at);
    // Utilization weights each replica by the window it was actually alive
    // -- an autoscaled replica is not diluted by time before its spawn, nor
    // a failed one credited for time after its death.
    const Duration window = rr.alive_until - rr.spawned_at;
    rr.utilization = window > Duration::zero() ? rr.serve.busy / window : 0.0;
    rep.cached_prefill_tokens += rr.serve.cache.saved_tokens;
    rep.expert_hits += rr.serve.expert_hits;
    rep.expert_misses += rr.serve.expert_misses;
    rep.handoff_tokens += rr.serve.handoff_tokens;
    rep.handoff_transfer_s += rr.serve.handoff_transfer.sec();
    if (disagg_on) {
      ClusterReport::PoolReport& pr = r.prefill ? rep.prefill_pool : rep.decode_pool;
      ++pr.replicas;
      pr.dispatched += rr.dispatched;
      pr.steps += rr.serve.steps.size();
      pr.busy_s += rr.serve.busy.sec();
      pr.replica_seconds += window.sec();
    }
    total_busy += rr.serve.busy;
    total_alive += window;
    busy_ms.push_back(rr.serve.busy.ms());
    for (const RequestMetrics& m : rr.serve.requests) {
      RequestMetrics fm = m;
      fm.arrival = original_arrival.at(fm.id);  // re-dispatches span their failures
      // Tokens delivered, fleet-wide: each request's full generation counts
      // once, on the replica that finished it (resumed tokens included --
      // they reached the user, and the replica that computed them aborted
      // without reporting).
      rep.generated_tokens += static_cast<std::uint64_t>(fm.generated);
      ttft_ms.push_back(fm.ttft().ms());
      if (fm.generated > 1) tpot_ms.push_back(fm.tpot().ms());
      e2e_ms.push_back(fm.e2e().ms());
      rep.requests.push_back(fm);
    }
    rep.replicas.push_back(std::move(rr));
  }
  MONDE_ASSERT(rep.requests.size() == original_arrival.size(),
               "cluster lost requests: served " << rep.requests.size() << " of "
                                                << original_arrival.size());
  std::stable_sort(rep.requests.begin(), rep.requests.end(), arrival_order<RequestMetrics>);
  rep.imbalance = imbalance_factor(busy_ms);
  rep.fleet_utilization = total_alive > Duration::zero() ? total_busy / total_alive : 0.0;
  rep.replica_seconds = total_alive.sec();
  if (!ttft_ms.empty()) rep.ttft_ms = compute_percentiles(std::move(ttft_ms));
  if (!tpot_ms.empty()) rep.tpot_ms = compute_percentiles(std::move(tpot_ms));
  if (!e2e_ms.empty()) rep.e2e_ms = compute_percentiles(std::move(e2e_ms));
  rep.tokens_per_s = rep.makespan > Duration::zero()
                         ? static_cast<double>(rep.generated_tokens) / rep.makespan.sec()
                         : 0.0;
  const std::uint64_t expert_total = rep.expert_hits + rep.expert_misses;
  rep.expert_hit_rate = expert_total == 0 ? 0.0
                                          : static_cast<double>(rep.expert_hits) /
                                                static_cast<double>(expert_total);
  const auto finish_pool = [](ClusterReport::PoolReport& pr) {
    pr.utilization = pr.replica_seconds > 0.0 ? pr.busy_s / pr.replica_seconds : 0.0;
    pr.mean_step_ms =
        pr.steps > 0 ? pr.busy_s * 1000.0 / static_cast<double>(pr.steps) : 0.0;
  };
  finish_pool(rep.prefill_pool);
  finish_pool(rep.decode_pool);
  return rep;
}

}  // namespace monde::serve
