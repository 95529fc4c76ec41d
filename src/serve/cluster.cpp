#include "serve/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <queue>
#include <tuple>
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
    r.detect_at = failure_detection_time(spec.fault.fail_at);
  }
  replicas_.push_back(std::move(r));
}

void ClusterSim::update_ewma(Replica& r) {
  constexpr double kNewestStepWeight = 0.25;
  const std::vector<StepRecord>& steps = r.server->steps();
  for (; r.steps_seen < steps.size(); ++r.steps_seen) {
    const double ms = (steps[r.steps_seen].end - steps[r.steps_seen].start).ms();
    r.ewma_ms = r.steps_seen == 0
                    ? ms
                    : kNewestStepWeight * ms + (1.0 - kNewestStepWeight) * r.ewma_ms;
  }
}

ReplicaSnapshot ClusterSim::snapshot(std::size_t i) const {
  const Replica& r = replicas_[i];
  return ReplicaSnapshot{i,
                         r.server->in_flight(),
                         r.server->outstanding_tokens(),
                         r.ewma_ms,
                         r.server->expert_signature(),
                         r.server->prefix_signature(),
                         r.prefill};
}

ClusterSim::AcceptingCounts ClusterSim::accepting_counts() const {
  AcceptingCounts n;
  for (const Replica& r : replicas_) {
    if (!r.detected && !r.retired) ++(r.prefill ? n.prefill : n.decode);
  }
  return n;
}

// --- FleetView: how the run loop finds work and who is accepting ------------
// The one decision the reference loop and the calendar loop make
// differently. ScanView is the oracle: it advances every replica, min-scans
// for the next detection, scans for live work, and rebuilds the accepting
// snapshots per dispatch. CalendarView answers the same questions from
// indexes. Every snapshot field is a function of server state that is
// written through at each mutation, so both views hand the dispatcher the
// same vectors (pinned by tests/test_calendar_diff.cpp).
class ClusterSim::FleetView {
 public:
  FleetView(ClusterSim& sim, std::size_t threads) : replicas_{sim.replicas_}, sim_{sim} {
    // threads == 1 builds no pool at all: advancement stays sequential.
    if (threads > 1) pool_ = std::make_unique<common::TaskPool>(threads);
  }
  virtual ~FleetView() = default;
  FleetView(const FleetView&) = delete;
  FleetView& operator=(const FleetView&) = delete;

  /// Advances every replica that has work before `t` to `t` and returns
  /// them in ascending order; the caller commits each one afterwards.
  virtual const std::vector<std::size_t>& advance_to(Duration t) = 0;
  /// Earliest undetected fail-stop detection as (instant, replica); the
  /// instant is infinite when none is left.
  virtual std::pair<Duration, std::size_t> next_detection() = 0;
  /// Some undetected replica holds work it can progress without drain().
  virtual bool has_live_work() = 0;
  /// Snapshots of the accepting replicas, in ascending replica order.
  virtual const std::vector<ReplicaSnapshot>& accepting() = 0;
  /// Replica i's server or step EWMA changed.
  virtual void touched(std::size_t /*i*/) {}
  /// Replica i started accepting (a spawn).
  virtual void joined(std::size_t /*i*/) {}
  /// Replica i stopped accepting (detection or retirement).
  virtual void left(std::size_t /*i*/) {}

  /// Runs every replica to completion. The drains are mutually
  /// independent, so they fan out to the pool when there is one.
  void drain_all() {
    if (pool_ != nullptr && replicas_.size() > 1) {
      pool_->run(replicas_.size(), [&](std::size_t i) { replicas_[i].server->drain(); });
    } else {
      for (Replica& r : replicas_) r.server->drain();
    }
  }

 protected:
  /// Advances each replica of `batch` to `t`: in parallel on the pool when
  /// one exists (servers are mutually independent; the shared NdpCoreSim
  /// memo is concurrency-safe with canonical values), else in order.
  void advance_batch(const std::vector<std::size_t>& batch, Duration t) {
    if (pool_ != nullptr && batch.size() > 1) {
      pool_->run(batch.size(), [&](std::size_t k) { replicas_[batch[k]].server->advance_to(t); });
    } else {
      for (const std::size_t i : batch) replicas_[i].server->advance_to(t);
    }
  }

  std::vector<Replica>& replicas_;
  const ClusterSim& sim_;

 private:
  std::unique_ptr<common::TaskPool> pool_;
};

/// The reference loop's view: O(replicas) per question, no index to trust,
/// nothing to keep up to date.
class ClusterSim::ScanView final : public FleetView {
 public:
  explicit ScanView(ClusterSim& sim) : FleetView{sim, 1} {}

  const std::vector<std::size_t>& advance_to(Duration t) override {
    all_.resize(replicas_.size());
    std::iota(all_.begin(), all_.end(), std::size_t{0});
    advance_batch(all_, t);
    return all_;
  }

  std::pair<Duration, std::size_t> next_detection() override {
    std::pair<Duration, std::size_t> next{Duration::infinite(), 0};
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      const Replica& r = replicas_[i];
      if (!r.detected && r.detect_at < next.first) next = {r.detect_at, i};
    }
    return next;
  }

  // A fixed-mode replica holding an under-full batch waits for a seal only
  // drain() provides (its next_event_time() is infinite): no live work.
  bool has_live_work() override {
    for (const Replica& r : replicas_) {
      if (!r.detected && r.server->in_flight() > 0 &&
          r.server->next_event_time() < Duration::infinite()) {
        return true;
      }
    }
    return false;
  }

  const std::vector<ReplicaSnapshot>& accepting() override {
    snaps_.clear();
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (!replicas_[i].detected && !replicas_[i].retired) snaps_.push_back(sim_.snapshot(i));
    }
    return snaps_;
  }

 private:
  std::vector<std::size_t> all_;
  std::vector<ReplicaSnapshot> snaps_;
};

/// The indexed view: a lazy-deletion calendar of per-replica server events,
/// sorted fail-stop and detection cursors, and the accepting-snapshot index.
/// The calendar owns entry liveness: due_[i] is the time of replica i's one
/// live entry (infinite: none), so an entry whose time differs is stale.
class ClusterSim::CalendarView final : public FleetView {
 public:
  CalendarView(ClusterSim& sim, std::size_t threads) : FleetView{sim, threads} {
    // Faults are fixed at construction (autoscaled replicas spawn
    // fault-free), so the reference's per-event min-scans collapse to two
    // precomputed orders.
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (replicas_[i].server->fault().fail_stop()) {
        fail_order_.emplace_back(replicas_[i].server->fault().fail_at, i);
        detect_order_.emplace_back(replicas_[i].detect_at, i);
      }
    }
    std::sort(fail_order_.begin(), fail_order_.end());
    std::sort(detect_order_.begin(), detect_order_.end());
    for (std::size_t i = 0; i < replicas_.size(); ++i) joined(i);
  }

  // One batch: the replicas whose fail-stop lies at or before t (advance_to
  // mutates them even when they look event-less) plus every calendar entry
  // strictly before t. A replica with no entry before t provably has nothing
  // to do there (advance_to(t) with next_event_time() >= t is a no-op for a
  // live server), and an advanced replica's next event lands at or after t,
  // so one batch is exhaustive.
  const std::vector<std::size_t>& advance_to(Duration t) override {
    batch_.clear();
    for (; fail_cursor_ < fail_order_.size() && fail_order_[fail_cursor_].first <= t;
         ++fail_cursor_) {
      batch_.push_back(fail_order_[fail_cursor_].second);
    }
    for (;;) {
      settle();
      if (calendar_.empty() || calendar_.top().first >= t) break;
      const std::size_t i = calendar_.top().second;
      calendar_.pop();
      due_[i] = Duration::infinite();  // commit() re-arms it
      batch_.push_back(i);
    }
    // A failing replica may also hold a live calendar entry before t; never
    // hand the same replica to two workers.
    std::sort(batch_.begin(), batch_.end());
    batch_.erase(std::unique(batch_.begin(), batch_.end()), batch_.end());
    advance_batch(batch_, t);
    return batch_;
  }

  // Detections happen in cursor order, so skipping detected entries is exact.
  std::pair<Duration, std::size_t> next_detection() override {
    while (detect_cursor_ < detect_order_.size() &&
           replicas_[detect_order_[detect_cursor_].second].detected) {
      ++detect_cursor_;
    }
    return detect_cursor_ < detect_order_.size()
               ? detect_order_[detect_cursor_]
               : std::pair<Duration, std::size_t>{Duration::infinite(), 0};
  }

  // The settled calendar IS the predicate: a live entry exists iff some
  // replica's next event is finite, which implies undetected work in flight.
  bool has_live_work() override {
    settle();
    return !calendar_.empty();
  }

  const std::vector<ReplicaSnapshot>& accepting() override { return eligible_; }

  // A push happens only when the next event moved; the entry it replaces
  // goes stale. A replica with a finite next event keeps a live entry; an
  // idle one is woken by a future enqueue.
  void touched(std::size_t i) override {
    if (epos_[i] != kNoSlot) eligible_[epos_[i]] = sim_.snapshot(i);
    const Duration t = replicas_[i].server->next_event_time();
    if (t == due_[i]) return;
    due_[i] = t;
    if (t != Duration::infinite()) calendar_.push({t, i});
  }

  void joined(std::size_t i) override {
    epos_.resize(replicas_.size(), kNoSlot);
    due_.resize(replicas_.size(), Duration::infinite());
    epos_[i] = eligible_.size();
    eligible_.push_back(sim_.snapshot(i));
  }

  void left(std::size_t i) override {
    const std::size_t at = epos_[i];
    if (at == kNoSlot) return;
    eligible_.erase(eligible_.begin() + static_cast<std::ptrdiff_t>(at));
    epos_[i] = kNoSlot;
    for (std::size_t p = at; p < eligible_.size(); ++p) epos_[eligible_[p].replica] = p;
  }

 private:
  using CalEntry = std::pair<Duration, std::size_t>;  // (time, replica), min-heap
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  /// Drops stale entries (time no longer the replica's due time) off the
  /// calendar's top.
  void settle() {
    while (!calendar_.empty() && calendar_.top().first != due_[calendar_.top().second]) {
      calendar_.pop();
    }
  }

  std::priority_queue<CalEntry, std::vector<CalEntry>, std::greater<>> calendar_;
  std::vector<Duration> due_;  // per replica: its live entry's time, or infinite
  std::vector<std::pair<Duration, std::size_t>> fail_order_;    // (fail_at, replica)
  std::vector<std::pair<Duration, std::size_t>> detect_order_;  // (detect_at, replica)
  std::size_t fail_cursor_ = 0;
  std::size_t detect_cursor_ = 0;
  std::vector<std::size_t> batch_;  // reused across events
  // The accepting replicas in ascending index order; epos_ maps a replica
  // index to its slot in eligible_.
  std::vector<ReplicaSnapshot> eligible_;
  std::vector<std::size_t> epos_;
};

namespace {

/// Truncates a profile to the kPruneWidth heaviest experts per layer
/// (entries are layer-major, descending activation). Returns true if it
/// shrank.
bool prune_profile(moe::ExpertProfile& p) {
  std::vector<moe::ExpertProfile::Entry> kept;
  kept.reserve(p.experts.size());
  int run = 0;
  int cur_layer = std::numeric_limits<int>::min();
  for (const auto& e : p.experts) {
    if (e.layer != cur_layer) {
      cur_layer = e.layer;
      run = 0;
    }
    if (run++ < kPruneWidth) kept.push_back(e);
  }
  if (kept.size() == p.experts.size()) return false;
  p.experts = std::move(kept);
  p.rebuild_signature();
  return true;
}

}  // namespace

// --- ClusterRun: one run() call's state and its per-event handlers -----------
class ClusterSim::ClusterRun {
 public:
  ClusterRun(ClusterSim& sim, ArrivalStream& arrivals, Dispatcher& dispatcher,
             Autoscaler* autoscaler)
      : sim_{sim},
        replicas_{sim.replicas_},
        cfg_{sim.cfg_},
        arrivals_{arrivals},
        dispatcher_{dispatcher},
        autoscaler_{autoscaler},
        view_{cfg_.reference_loop ? std::unique_ptr<FleetView>{std::make_unique<ScanView>(sim)}
                                  : std::make_unique<CalendarView>(sim, cfg_.threads)},
        next_tick_{cfg_.autoscale_period},
        next_rebalance_{cfg_.expert.rebalance_period},
        // run() is called once, so replicas_ is the boot fleet here.
        boot_prefill_{cfg_.disagg.enabled ? cfg_.disagg.prefill_replicas : 0},
        boot_decode_{cfg_.disagg.enabled ? replicas_.size() - boot_prefill_ : 0} {
    head_ = arrivals_.next();
    MONDE_REQUIRE(head_.has_value(), "cannot serve an empty trace");
    rep_.policy = dispatcher_.name();
    rep_.autoscaler = autoscaler_ != nullptr ? autoscaler_->name() : "";
    rep_.peak_replicas = sim_.accepting_counts().total();
  }

  /// The next instant each kind of cluster event is due (infinite: none).
  struct Anchors {
    Duration item;                   ///< next arrival or re-dispatch
    Duration detect;                 ///< next fail-stop detection...
    std::size_t detect_replica = 0;  ///< ...and the replica it concerns
    Duration tick;                   ///< next autoscale evaluation
    Duration rebalance;              ///< next expert rebalance
    Duration prefill;                ///< earliest prefill-pool event (disaggregation)
    [[nodiscard]] Duration external() const {
      return monde::min(monde::min(detect, item), monde::min(tick, rebalance));
    }
  };

  Anchors anchors() {
    Anchors a;
    a.item = item_time();
    // A detection is a cluster event even beyond the last arrival: stranded
    // work must recover.
    std::tie(a.detect, a.detect_replica) = view_->next_detection();
    // The autoscaler ticks while arrivals/retries remain AND through the
    // drain phase while any replica still holds work, so late scale-downs
    // release idle capacity (drain-phase ticks may only scale down).
    a.tick = (autoscaler_ != nullptr && (has_item() || view_->has_live_work()))
                 ? next_tick_
                 : Duration::infinite();
    // Rebalance ticks only matter while requests remain to route.
    a.rebalance = rebalance_ && has_item() ? next_rebalance_ : Duration::infinite();
    // Earliest prefill-internal event (admission start, step boundary, or an
    // already-buffered release awaiting drain); infinite without
    // disaggregation, and an infinite anchor never wins a strict comparison.
    a.prefill = Duration::infinite();
    if (cfg_.disagg.enabled) {
      for (const Replica& r : replicas_) {
        if (!r.prefill || r.detected) continue;
        a.prefill = monde::min(a.prefill, r.server->next_event_time());
        if (r.server->has_handoffs()) a.prefill = monde::min(a.prefill, last_pop_);
      }
    }
    return a;
  }

  // With disaggregation, prefill completions are cluster events in their own
  // right: each release spawns a decode-pool re-dispatch, and waiting for the
  // next external anchor to surface it would delay the handoff by the whole
  // inter-anchor gap. So when the prefill pool's earliest event precedes
  // every external anchor, run ONLY the prefill pool forward to `horizon`
  // (that anchor) and convert its releases at their true release times.
  // Decode replicas stay put, so a surfaced item earlier than the horizon is
  // dispatched into a decode replica whose clock has not yet passed it --
  // causality holds. Progress is guaranteed: afterwards every live prefill
  // replica's next event is at or beyond the horizon, so this cannot re-fire
  // until new prefill work (an item) is dispatched.
  void on_prefill_anchor(Duration horizon) {
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      Replica& r = replicas_[i];
      if (!r.prefill || r.detected) continue;
      phase_begin();
      r.server->advance_to(horizon);
      phase_end(rep_.phase_advance_s);
      phase_begin();
      commit(i, horizon, last_pop_);
      phase_end(rep_.phase_commit_s);
    }
  }

  void on_detection(Duration t, std::size_t i) {
    Replica& r = replicas_[i];
    advance(t);  // the dying replica freezes at its fail-stop instant
    r.detected = true;
    view_->left(i);
    if (log_) {
      rep_.events.push_back({ClusterEvent::Kind::kFailStop, r.server->fault().fail_at, i,
                             "replica" + std::to_string(i) + " died"});
    }
    // A replica evacuated by a scale-down migration died empty: its work
    // already moved on, so there is nothing (and no way) to harvest.
    std::vector<Request> stranded;
    if (!r.evacuated) stranded = r.server->harvest_stranded();
    if (log_) {
      rep_.events.push_back({ClusterEvent::Kind::kFailureDetected, t, i,
                             "heartbeat stale; " + std::to_string(stranded.size()) +
                                 " stranded request(s) queued for retry"});
    }
    const bool resume = cfg_.cache.enabled && cfg_.cache.survive_failstop;
    for (Request rq : stranded) {
      ++rq.attempt;
      Duration at = t + kRetryTimeout;
      if (resume) {
        // Surviving-cache mode: the state checkpointed at the last step is
        // restored onto the retry replica at the modelled transfer cost (a
        // decode-pool victim's requests keep their full prompt, so they
        // re-home within the decode pool).
        at += cfg_.cache.transfer_time_for(rq.resume.resident_tokens());
      } else {
        // Lost-cache mode: the KV state died with the node.
        rq.resume = ResumeState{};
      }
      pending_.push(Item{at, rq, false});
    }
  }

  void on_autoscale_tick(Duration t) {
    advance(t);
    std::size_t target = std::max<std::size_t>(autoscaler_->target_size(signals(t)), 1);
    std::size_t capacity = sim_.accepting_counts().total();
    // Drain phase (no arrivals or retries left): scaling up is pure waste
    // -- no dispatch will ever reach the new replica -- so only honor the
    // downward direction of the policy's answer.
    if (!has_item()) target = std::min(target, capacity);
    for (; capacity < target; ++capacity) spawn(t);
    for (; capacity > target && capacity > 1; --capacity) {
      const std::size_t victim = retiree();
      if (victim == replicas_.size()) break;  // every candidate is its pool's last
      retire(victim, t);
    }
    rep_.peak_replicas = std::max(rep_.peak_replicas, sim_.accepting_counts().total());
    next_tick_ += cfg_.autoscale_period;
  }

  // Cross-replica expert rebalancing: push the fleet's currently hottest
  // experts (by dispatched-profile demand) into every accepting replica's
  // residency. Each preload is priced as a fetch over the configured link,
  // charged to the receiving replica's next step -- migrating hot experts
  // toward the shards that will serve them instead of letting each replica
  // fault them in one miss at a time.
  void on_rebalance(Duration t) {
    advance(t);
    std::vector<std::pair<std::uint64_t, core::ExpertId>> by_demand;
    by_demand.reserve(fleet_expert_load_.size());
    for (const auto& [id, count] : fleet_expert_load_) by_demand.push_back({count, id});
    // Hottest first; the map walk above yields ascending ExpertId, and the
    // stable sort keeps that order within a demand tie -- deterministic.
    std::stable_sort(by_demand.begin(), by_demand.end(),
                     [](const auto& a, const auto& b) { return a.first > b.first; });
    if (by_demand.size() > kRebalanceHotExperts) by_demand.resize(kRebalanceHotExperts);
    std::vector<core::ExpertId> hot;
    hot.reserve(by_demand.size());
    for (const auto& [count, id] : by_demand) hot.push_back(id);
    for (std::size_t i = 0; i < replicas_.size() && !hot.empty(); ++i) {
      Replica& r = replicas_[i];
      if (r.detected || r.retired) continue;
      // preload_experts() no-ops on a silently fail-stopped server.
      const std::size_t fetched = r.server->preload_experts(hot);
      if (fetched == 0) continue;
      rep_.expert_migrations += fetched;
      view_->touched(i);
      if (log_) {
        rep_.events.push_back({ClusterEvent::Kind::kExpertRebalance, t, i,
                               "preloaded " + std::to_string(fetched) +
                                   " hot expert(s) onto replica" + std::to_string(i)});
      }
    }
    next_rebalance_ += cfg_.expert.rebalance_period;
  }

  void on_dispatch(Duration t) {
    // The detection anchor wins every all-infinite tie, so an item is
    // guaranteed here: item < detect/tick/rebalance implies has_item().
    MONDE_ASSERT(has_item(), "item branch reached with no item");
    // Advance before popping: the advance may surface prefill-complete
    // handoffs clamped to this very instant, and such an item (possibly
    // carrying a smaller id than the current head) must be eligible for
    // this pop to keep the global (time, id) dispatch order.
    advance(t);
    const Item it = pop_item();
    last_pop_ = it.time;
    phase_begin();
    Request rq = it.rq;
    if (cfg_.expert.enabled) {
      // First dispatch derives the profile; a retry/migration keeps the one
      // it already carries (possibly pruned by an earlier overload).
      if (rq.expert_profile.empty()) {
        rq.expert_profile = sim_.profiler_->expert_profile_for(
            rq.id, ExpertServingConfig::profile_width, ExpertServingConfig::profile_tokens);
      }
      // Fleet demand feeds the rebalance ticks, so it is counted only when
      // they run; count the full profile (the demand exists whether or not
      // pruning later drops part of it).
      if (rebalance_) {
        for (const auto& e : rq.expert_profile.experts) {
          ++fleet_expert_load_[core::ExpertId{e.layer, e.expert}];
        }
      }
    }
    const std::size_t idx = pick_replica(rq);
    // Pruned-expert degraded mode: a request landing on an overloaded
    // replica is served with a truncated profile -- fewer experts to keep
    // hot, fewer fetches to price -- instead of queueing at full fidelity.
    if (cfg_.expert.enabled && cfg_.expert.prune_outstanding_tokens > 0 &&
        replicas_[idx].server->outstanding_tokens() > cfg_.expert.prune_outstanding_tokens &&
        prune_profile(rq.expert_profile)) {
      ++rep_.pruned_requests;
    }
    // The request joins the queue now: at its trace arrival, or at a
    // re-dispatch's later instant.
    replicas_[idx].server->enqueue(rq, it.time);
    ++replicas_[idx].dispatched;
    view_->touched(idx);
    note_redispatch(it, rq, idx);
    phase_end(rep_.phase_dispatch_s);
  }

  /// Drains the fleet and assembles the report.
  ClusterReport report();

 private:
  /// A request due for dispatch: an arrival, a failure retry, a scale-down
  /// migration, or a prefill->decode handoff.
  struct Item {
    Duration time;
    Request rq;
    bool migrated = false;  ///< re-dispatch came from a retirement, not a failure
    bool handoff = false;   ///< prefill-complete handoff bound for the decode pool
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      return a.time != b.time ? a.time > b.time : a.rq.id > b.rq.id;
    }
  };
  using WallClock = std::chrono::steady_clock;

  // --- Arrival intake: lazy stream head + order policing --------------------
  // Duplicate ids are caught in report(), once every request has a record:
  // remembering each id at intake would cost memory per trace request.
  void pull_head() {
    std::optional<Request> nxt = arrivals_.next();
    if (nxt.has_value()) {
      MONDE_REQUIRE(!arrival_order(*nxt, *head_),
                    "arrival stream is out of (arrival, id) order at request " << nxt->id);
    }
    head_ = std::move(nxt);
  }
  [[nodiscard]] bool has_item() const { return head_.has_value() || !pending_.empty(); }
  [[nodiscard]] Duration item_time() const {
    Duration t = head_.has_value() ? head_->arrival : Duration::infinite();
    if (!pending_.empty()) t = monde::min(t, pending_.top().time);
    return t;
  }
  Item pop_item() {
    // Lexicographic (time, id) merge; a stream request and a re-dispatch
    // never collide exactly (ids are unique per attempt epoch).
    const bool from_stream =
        head_.has_value() &&
        (pending_.empty() || head_->arrival < pending_.top().time ||
         (head_->arrival == pending_.top().time && head_->id < pending_.top().rq.id));
    if (from_stream) {
      Item it{head_->arrival, *head_, false};
      ++intake_;
      pull_head();
      return it;
    }
    Item it = pending_.top();
    pending_.pop();
    return it;
  }

  // --- Per-phase wall-clock (ClusterConfig::measure_phases) ----------------
  // Three buckets for the perf-trend dashboard: advancement (fans out to the
  // pool), the sequential commit write-backs, and the sequential dispatch
  // decisions. Zero-cost when off; simulated results never depend on them.
  void phase_begin() {
    if (cfg_.measure_phases) phase_t0_ = WallClock::now();
  }
  void phase_end(double& bucket) const {
    if (cfg_.measure_phases) {
      bucket += std::chrono::duration<double>(WallClock::now() - phase_t0_).count();
    }
  }

  // --- Advancement and the per-replica commit -------------------------------
  // Advance, then commit: the write-backs touch only their own replica's
  // state, so committing the batch sequentially in ascending replica order
  // after a (possibly parallel) advance keeps every counter, percentile and
  // RNG draw independent of thread scheduling.
  void advance(Duration t) {
    phase_begin();
    const std::vector<std::size_t>& batch = view_->advance_to(t);
    phase_end(rep_.phase_advance_s);
    phase_begin();
    for (const std::size_t i : batch) commit(i, t, t);
    phase_end(rep_.phase_commit_s);
  }
  /// Write-backs after replica i advanced to `t`: fold its new steps into
  /// the EWMA, turn its buffered prefill releases into items, then let the
  /// view re-index it -- the drain may apply a pending completion, which
  /// moves the server's next event, so the view's re-read must come last.
  void commit(std::size_t i, Duration t, Duration floor) {
    sim_.update_ewma(replicas_[i]);
    drain_handoffs(i, t, floor);
    view_->touched(i);
  }
  // A prefill replica buffers a HandoffRecord the moment a request's
  // admission step completes (inside advance_to, possibly on a worker
  // thread); each commit turns the records into decode-pool items at
  // `release + transfer`, clamped to a floor that never precedes an
  // already-popped item (the advance target at fleet-wide commits; the
  // last-popped time when only the prefill pool advanced), so the global
  // (time, id) pop order -- and with it the per-replica (arrival, id)
  // enqueue contract -- survives releases discovered mid-event.
  void drain_handoffs(std::size_t i, Duration apply_until, Duration floor) {
    if (!cfg_.disagg.enabled || !replicas_[i].prefill) return;
    for (HandoffRecord& h : replicas_[i].server->take_handoffs(apply_until)) {
      Request rq = std::move(h.request);
      ++rq.attempt;
      pending_.push(Item{monde::max(h.release + h.transfer, floor), std::move(rq),
                         /*migrated=*/false, /*handoff=*/true});
    }
  }

  // --- Autoscaling ------------------------------------------------------------
  AutoscaleSignals signals(Duration t) const {
    AutoscaleSignals sig;
    sig.now = t;
    std::vector<double> waits_ms;
    for (const Replica& r : replicas_) {
      if (r.detected || r.retired) continue;
      if (r.server->start_at() > t) {
        ++sig.warming_replicas;
      } else {
        ++sig.ready_replicas;
      }
      sig.in_flight += r.server->in_flight();
      sig.outstanding_tokens += r.server->outstanding_tokens();
      for (const Duration arrival : r.server->waiting_arrivals()) {
        waits_ms.push_back((t - arrival).ms());
      }
    }
    sig.waiting_requests = waits_ms.size();
    if (!waits_ms.empty()) sig.p95_queue_delay_ms = percentile(std::move(waits_ms), 95.0);
    return sig;
  }
  void spawn(Duration t) {
    ReplicaSpec spec = sim_.growth_;
    spec.seed = sim_.next_seed_++;
    const std::size_t idx = replicas_.size();
    bool spawn_prefill = false;
    if (cfg_.disagg.enabled) {
      // Grow the pool furthest below its boot share (accepting members
      // vs. boot prefill:decode ratio); ties grow the decode pool.
      const AcceptingCounts n = sim_.accepting_counts();
      spawn_prefill = n.prefill * boot_decode_ < n.decode * boot_prefill_;
    }
    sim_.add_replica(spec, t, t + cfg_.warmup, spawn_prefill);
    view_->joined(idx);
    if (log_) {
      rep_.events.push_back({ClusterEvent::Kind::kScaleUp, t, idx,
                             "spawned " + replicas_.back().name + ", ready at " +
                                 (t + cfg_.warmup).str()});
    }
  }
  /// The accepting replica owing the fewest tokens, newest on ties;
  /// disaggregated fleets never retire a pool's last accepting member
  /// (requests of its phase would have nowhere to go). replicas_.size()
  /// when there is no candidate.
  std::size_t retiree() const {
    const AcceptingCounts n = sim_.accepting_counts();
    std::size_t victim = replicas_.size();
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      const Replica& r = replicas_[i];
      if (r.detected || r.retired) continue;
      if (cfg_.disagg.enabled && (r.prefill ? n.prefill : n.decode) <= 1) continue;
      if (victim == replicas_.size() ||
          r.server->outstanding_tokens() <= replicas_[victim].server->outstanding_tokens()) {
        victim = i;
      }
    }
    return victim;
  }
  /// Retires `victim`: it drains its queue, then idles, never dispatched to
  /// again -- or, with migrate_on_retire, hands its work to the fleet.
  void retire(std::size_t victim, Duration t) {
    Replica& r = replicas_[victim];
    r.retired = true;
    r.retired_at = t;
    view_->left(victim);
    // A victim that silently fail-stopped inside the detection lag cannot
    // be evacuated -- its state died with it. Retire it plainly; the
    // heartbeat monitor will harvest its stranded work.
    if (!cfg_.cache.enabled || !cfg_.cache.migrate_on_retire || r.server->failed()) {
      if (log_) {
        rep_.events.push_back({ClusterEvent::Kind::kScaleDown, t, victim,
                               "retired " + r.name + " (" +
                                   std::to_string(r.server->in_flight()) +
                                   " request(s) left to drain)"});
      }
      return;
    }
    // Live migration: the retiree stops at its step boundary and its
    // unfinished requests move (with their resident KV state, at the
    // modelled transfer cost) to the surviving fleet. Requests with no
    // resident state re-dispatch at the tick itself.
    std::vector<Request> moved = r.server->evacuate();
    r.evacuated = true;
    // A prefill victim's forced step-boundary completion may have released
    // prefill-complete requests: convert them now (their release lies at
    // or after this tick), or they die with the buffer.
    commit(victim, t, t);
    const Duration boundary = monde::max(t, r.server->now());
    for (Request rq : moved) {
      ++rq.attempt;
      const std::int64_t resident = rq.resume.resident_tokens();
      const Duration at =
          resident > 0 ? boundary + cfg_.cache.transfer_time_for(resident) : t;
      pending_.push(Item{at, rq, true});
    }
    if (log_) {
      std::string detail = "retired " + r.name + " (migrated ";
      detail += std::to_string(moved.size());
      detail += " request(s))";
      rep_.events.push_back({ClusterEvent::Kind::kScaleDown, t, victim, detail});
    }
  }

  // --- Dispatch -----------------------------------------------------------------
  /// The view pipeline: the accepting set, then the soft slow-EWMA filter
  /// (finite factor only), then the disaggregated role filter -- whose
  /// pool, if the soft filter emptied it, falls back to the accepting set
  /// before the pool is declared gone. Returns the picked replica's index.
  std::size_t pick_replica(const Request& rq) {
    const std::vector<ReplicaSnapshot>& accepting = view_->accepting();
    MONDE_REQUIRE(!accepting.empty(),
                  "no replica is accepting requests (every replica failed or retired)");
    const std::vector<ReplicaSnapshot>* view = &accepting;
    std::vector<ReplicaSnapshot> healthy;
    if (std::isfinite(cfg_.health.slow_ewma_factor)) {
      healthy = eligible_snapshots(accepting, cfg_.health.slow_ewma_factor);
      view = &healthy;
    }
    std::vector<ReplicaSnapshot> role_pool;
    if (cfg_.disagg.enabled) {
      const bool want_prefill = !rq.decode_phase();
      role_pool = pool_snapshots(*view, want_prefill);
      if (role_pool.empty()) {
        role_pool = pool_snapshots(accepting, want_prefill);
      }
      MONDE_REQUIRE(!role_pool.empty(), "no " << (want_prefill ? "prefill" : "decode")
                                              << " replica is accepting requests");
      view = &role_pool;
    }
    const std::size_t pick = dispatcher_.pick(*view, rq);
    MONDE_REQUIRE(pick < view->size(),
                  "dispatcher picked entry " << pick << " of " << view->size());
    return (*view)[pick].replica;
  }
  /// Counters and event log for a dispatched re-dispatch (no-op for a first
  /// dispatch).
  void note_redispatch(const Item& it, const Request& rq, std::size_t idx) {
    if (it.handoff) {
      // Handoffs are their own lifecycle event, not failure retries --
      // attempt was bumped (it IS a re-dispatch) but the retry/migration
      // counters stay clean.
      ++rep_.handoffs;
      if (log_) {
        rep_.events.push_back({ClusterEvent::Kind::kHandoff, it.time, idx,
                               "request " + std::to_string(rq.id) +
                                   " prefill complete -> replica" + std::to_string(idx) +
                                   " (" + std::to_string(rq.resume.resident_tokens()) +
                                   " KV tokens)"});
      }
      return;
    }
    if (rq.attempt == 0) return;
    ++(it.migrated ? rep_.migrations : rep_.retries);
    if (!log_) return;
    std::string detail = "request " + std::to_string(rq.id) + " attempt " +
                         std::to_string(rq.attempt) + " -> replica" + std::to_string(idx);
    if (rq.resume.any()) {
      detail += " (resumed ";
      detail += std::to_string(rq.resume.resident_tokens());
      detail += " tokens)";
    }
    rep_.events.push_back(
        {it.migrated ? ClusterEvent::Kind::kMigrate : ClusterEvent::Kind::kRetry, it.time,
         idx, detail});
  }

  ClusterSim& sim_;
  std::vector<Replica>& replicas_;
  const ClusterConfig& cfg_;
  ArrivalStream& arrivals_;
  Dispatcher& dispatcher_;
  Autoscaler* autoscaler_;
  std::unique_ptr<FleetView> view_;
  const bool log_ = cfg_.event_log_enabled;
  /// Expert rebalance ticks run (and fleet demand is counted for them).
  const bool rebalance_ =
      cfg_.expert.enabled && cfg_.expert.rebalance_period > Duration::zero();

  std::size_t intake_ = 0;       ///< requests taken from the arrival stream
  std::optional<Request> head_;  ///< next request of the arrival stream
  // The re-dispatch queue: failure retries, scale-down migrations and
  // handoffs, merged with the arrival stream in (time, id) order so
  // per-replica enqueues stay (arrival, id)-ordered.
  std::priority_queue<Item, std::vector<Item>, Later> pending_;
  Duration last_pop_ = Duration::zero();  ///< latest item the loop dispatched

  Duration next_tick_;
  Duration next_rebalance_;
  const std::size_t boot_prefill_;  ///< boot pool shares (disaggregated autoscaling)
  const std::size_t boot_decode_;
  // Fleet-wide demand per expert, accumulated from dispatched profiles while
  // rebalancing is on; the ordered map gives rebalance ticks a
  // deterministic hottest-first walk.
  std::map<core::ExpertId, std::uint64_t> fleet_expert_load_;
  WallClock::time_point phase_t0_{};
  ClusterReport rep_;  ///< counters, events and phase times accumulate here
};

ClusterReport ClusterSim::ClusterRun::report() {
  // No further arrivals: replicas finish independently, so each can drain
  // to completion on its own (failed replicas were harvested above). The
  // report below reads the servers only after every drain returned.
  phase_begin();
  view_->drain_all();
  phase_end(rep_.phase_advance_s);

  ClusterReport rep = std::move(rep_);
  std::stable_sort(rep.events.begin(), rep.events.end(),
                   [](const ClusterEvent& a, const ClusterEvent& b) { return a.time < b.time; });

  // Each server hands its steps and records over by move.
  std::vector<ServeReport> serves;
  serves.reserve(replicas_.size());
  std::size_t served = 0;
  for (Replica& r : replicas_) {
    serves.push_back(r.server->report());
    served += serves.back().requests.size();
  }
  // Fleet makespan: a spawned replica that never ran a step contributes its
  // spawn instant, not its (possibly later) warm-up boundary.
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    rep.makespan = monde::max(rep.makespan, serves[i].steps.empty() ? replicas_[i].spawned_at
                                                                     : serves[i].makespan);
  }

  // Fleet-level copies measure from the trace arrival, so re-dispatches
  // span their failures.
  const auto rebased = [](RequestMetrics m) {
    m.arrival = m.trace_arrival;
    return m;
  };
  // Fleet percentiles, one scratch vector at a time, all before the union
  // -- the report's largest object -- is allocated.
  const auto fleet_percentiles = [&](auto&& pick) {
    std::vector<double> ms;
    ms.reserve(served);
    for (const ServeReport& s : serves) {
      for (const RequestMetrics& m : s.requests) {
        if (const std::optional<double> v = pick(rebased(m))) ms.push_back(*v);
      }
    }
    return ms.empty() ? Percentiles{} : compute_percentiles(std::move(ms));
  };
  rep.ttft_ms = fleet_percentiles(
      [](const RequestMetrics& m) { return std::optional{m.ttft().ms()}; });
  rep.tpot_ms = fleet_percentiles([](const RequestMetrics& m) {
    return m.generated > 1 ? std::optional{m.tpot().ms()} : std::nullopt;
  });
  rep.e2e_ms = fleet_percentiles(
      [](const RequestMetrics& m) { return std::optional{m.e2e().ms()}; });

  std::vector<double> busy_ms;
  rep.requests.reserve(served);
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
    if (cfg_.disagg.enabled) {
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
      // Tokens delivered, fleet-wide: each request's full generation counts
      // once, on the replica that finished it (resumed tokens included --
      // they reached the user, and the replica that computed them aborted
      // without reporting).
      rep.generated_tokens += static_cast<std::uint64_t>(m.generated);
      rep.requests.push_back(rebased(m));
    }
    rep.replicas.push_back(std::move(rr));
  }
  MONDE_ASSERT(rep.requests.size() == intake_,
               "cluster lost requests: served " << rep.requests.size() << " of " << intake_);
  // Every request completes exactly once, so a repeated id is a repeated
  // trace entry. With ids unique, (arrival, id) keys are too, and the
  // unstable in-place sort gives the one order a stable sort would.
  std::sort(rep.requests.begin(), rep.requests.end(),
            [](const RequestMetrics& a, const RequestMetrics& b) { return a.id < b.id; });
  const auto dup = std::adjacent_find(
      rep.requests.begin(), rep.requests.end(),
      [](const RequestMetrics& a, const RequestMetrics& b) { return a.id == b.id; });
  MONDE_REQUIRE(dup == rep.requests.end(), "duplicate request id " << dup->id << " in trace");
  std::sort(rep.requests.begin(), rep.requests.end(), arrival_order<RequestMetrics>);
  rep.imbalance = imbalance_factor(busy_ms);
  rep.fleet_utilization = total_alive > Duration::zero() ? total_busy / total_alive : 0.0;
  rep.replica_seconds = total_alive.sec();
  rep.tokens_per_s = rep.makespan > Duration::zero()
                         ? static_cast<double>(rep.generated_tokens) / rep.makespan.sec()
                         : 0.0;
  const std::uint64_t expert_total = rep.expert_hits + rep.expert_misses;
  rep.expert_hit_rate = expert_total == 0 ? 0.0
                                          : static_cast<double>(rep.expert_hits) /
                                                static_cast<double>(expert_total);
  for (ClusterReport::PoolReport* pr : {&rep.prefill_pool, &rep.decode_pool}) {
    pr->utilization = pr->replica_seconds > 0.0 ? pr->busy_s / pr->replica_seconds : 0.0;
    pr->mean_step_ms =
        pr->steps > 0 ? pr->busy_s * 1000.0 / static_cast<double>(pr->steps) : 0.0;
  }
  return rep;
}

ClusterReport ClusterSim::run(std::vector<Request> trace, Dispatcher& dispatcher,
                              Autoscaler* autoscaler) {
  MONDE_REQUIRE(!used_, "ClusterSim::run() may be called only once");
  MONDE_REQUIRE(!trace.empty(), "cannot serve an empty trace");
  std::stable_sort(trace.begin(), trace.end(), arrival_order<Request>);
  TraceArrivalStream stream{std::move(trace)};
  return run(stream, dispatcher, autoscaler);
}

ClusterReport ClusterSim::run(ArrivalStream& arrivals, Dispatcher& dispatcher,
                              Autoscaler* autoscaler) {
  MONDE_REQUIRE(!used_, "ClusterSim::run() may be called only once");
  used_ = true;
  ClusterRun run{*this, arrivals, dispatcher, autoscaler};
  for (;;) {
    const ClusterRun::Anchors a = run.anchors();
    if (a.prefill < a.external()) {
      // The prefill pool owns every fleet event until the next external
      // anchor. With no external anchor left (all infinite) this drains the
      // prefill tail outright; new handoff items re-arm the item anchor.
      run.on_prefill_anchor(a.external());
    } else if (a.detect <= a.item && a.detect <= a.tick && a.detect <= a.rebalance) {
      // Ties go to detection, then the autoscale tick, then the rebalance
      // tick, then the item.
      if (a.detect == Duration::infinite()) break;  // every anchor infinite: idle
      run.on_detection(a.detect, a.detect_replica);
    } else if (a.tick <= a.item && a.tick <= a.rebalance) {
      run.on_autoscale_tick(a.tick);
    } else if (a.rebalance <= a.item) {
      run.on_rebalance(a.rebalance);
    } else {
      run.on_dispatch(a.item);
    }
  }
  return run.report();
}

}  // namespace monde::serve
