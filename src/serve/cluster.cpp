#include "serve/cluster.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <queue>
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
  r.server = std::make_unique<ServerSim>(
      *r.engine, spec.sched, start_at, spec.fault, cfg_.cache, cfg_.expert,
      prefill ? std::optional{cfg_.disagg.handoff_link} : std::nullopt);
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

// --- FleetView: how the run finds work and who is accepting ------------------
// The one decision the reference loop and the calendar loop make
// differently. ScanView is the oracle: it hands every replica to each
// advance, min-scans for the next detection, scans for live work, and
// rebuilds the accepting snapshots per dispatch. CalendarView answers the
// same questions from indexes. Every snapshot field is a function of server
// state that is written through at each mutation, so both views hand the
// dispatcher the same vectors (pinned by tests/test_calendar_diff.cpp).
class ClusterSim::FleetView {
 public:
  /// Accepting (undetected, unretired) replicas per role, indexed by
  /// Replica::prefill: [0] decode (every replica of a unified fleet), [1]
  /// prefill.
  using Counts = std::array<std::size_t, 2>;

  // threads == 1 spawns no worker: advancement stays sequential.
  FleetView(ClusterSim& sim, std::size_t threads)
      : replicas_{sim.replicas_}, sim_{sim}, pool_{threads} {
    for (const Replica& r : replicas_) ++counts_[r.prefill];
  }
  virtual ~FleetView() = default;
  FleetView(const FleetView&) = delete;
  FleetView& operator=(const FleetView&) = delete;

  /// The replicas with work before `t`, in ascending order: the batch an
  /// advance to `t` runs and then commits.
  virtual const std::vector<std::size_t>& due_before(Duration t) = 0;
  /// Earliest undetected fail-stop detection as (instant, replica); the
  /// instant is infinite when none is left.
  virtual std::pair<Duration, std::size_t> next_detection() = 0;
  /// Some undetected replica holds work it can progress without drain().
  virtual bool has_live_work() = 0;
  /// Snapshots of the accepting replicas, in ascending replica order.
  virtual const std::vector<ReplicaSnapshot>& accepting() = 0;
  /// Replica i's server or step EWMA changed.
  virtual void touched(std::size_t /*i*/) {}

  [[nodiscard]] const Counts& counts() const { return counts_; }
  [[nodiscard]] std::size_t capacity() const { return counts_[0] + counts_[1]; }
  /// Replica i starts accepting (a spawn).
  void join(std::size_t i) {
    ++counts_[replicas_[i].prefill];
    joined(i);
  }
  /// Replica i stops accepting; call before setting its detected or
  /// retired flag. A retiree detected dead later is no longer counted.
  void leave(std::size_t i) {
    if (replicas_[i].accepting()) {
      --counts_[replicas_[i].prefill];
      left(i);
    }
  }

  /// Advances each replica of `batch` to `t`, fanned out to the pool:
  /// servers are mutually independent, and the shared NdpCoreSim memo is
  /// concurrency-safe with canonical values.
  void advance_batch(const std::vector<std::size_t>& batch, Duration t) {
    pool_.run(batch.size(), [&](std::size_t k) { replicas_[batch[k]].server->advance_to(t); });
  }
  /// Runs every replica to completion; the drains are independent too.
  void drain_all() {
    pool_.run(replicas_.size(), [&](std::size_t i) { replicas_[i].server->drain(); });
  }

 protected:
  virtual void joined(std::size_t /*i*/) {}
  virtual void left(std::size_t /*i*/) {}

  std::vector<Replica>& replicas_;
  const ClusterSim& sim_;

 private:
  common::TaskPool pool_;
  Counts counts_{};
};

/// The reference loop's view: O(replicas) per question, no index to trust,
/// nothing to keep up to date.
class ClusterSim::ScanView final : public FleetView {
 public:
  explicit ScanView(ClusterSim& sim) : FleetView{sim, 1} {}

  const std::vector<std::size_t>& due_before(Duration /*t*/) override {
    all_.resize(replicas_.size());
    std::iota(all_.begin(), all_.end(), std::size_t{0});
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
      if (replicas_[i].accepting()) snaps_.push_back(sim_.snapshot(i));
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
  const std::vector<std::size_t>& due_before(Duration t) override {
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
      due_[i] = Duration::infinite();  // the commit re-arms it
      batch_.push_back(i);
    }
    // A failing replica may also hold a live calendar entry before t; never
    // hand the same replica to two workers.
    std::sort(batch_.begin(), batch_.end());
    batch_.erase(std::unique(batch_.begin(), batch_.end()), batch_.end());
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

 private:
  using CalEntry = std::pair<Duration, std::size_t>;  // (time, replica), min-heap
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  void joined(std::size_t i) override {
    epos_.resize(replicas_.size(), kNoSlot);
    due_.resize(replicas_.size(), Duration::infinite());
    epos_[i] = eligible_.size();
    eligible_.push_back(sim_.snapshot(i));
  }

  void left(std::size_t i) override {
    const std::size_t at = epos_[i];
    eligible_.erase(eligible_.begin() + static_cast<std::ptrdiff_t>(at));
    epos_[i] = kNoSlot;
    for (std::size_t p = at; p < eligible_.size(); ++p) epos_[eligible_[p].replica] = p;
  }

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

// --- Intake: arrivals and re-dispatches in one (time, id) order --------------
// One heap holds the arrival stream's head and every retry, migration and
// handoff; popping the head pulls its successor. Keys never tie (a request
// is re-queued only after its entry popped), and per-replica enqueues stay
// (arrival, id)-ordered. Duplicate ids are caught in the report.
class ClusterSim::Intake {
 public:
  enum class Source { kArrival, kRetry, kMigration, kHandoff };
  /// A request due for dispatch at `time`.
  struct Item {
    Duration time;
    Request rq;
    Source source;
  };

  explicit Intake(ArrivalStream& arrivals) : arrivals_{arrivals} {
    std::optional<Request> first = arrivals_.next();
    MONDE_REQUIRE(first.has_value(), "cannot serve an empty trace");
    items_.push({first->arrival, std::move(*first), Source::kArrival});
  }

  [[nodiscard]] bool empty() const { return items_.empty(); }
  /// The next item's instant; infinite when empty.
  [[nodiscard]] Duration next() const { return empty() ? Duration::infinite() : items_.top().time; }
  [[nodiscard]] Duration last_pop() const { return last_pop_; }
  /// Requests taken from the arrival stream so far.
  [[nodiscard]] std::size_t taken() const { return taken_; }

  void push(Item it) { items_.push(std::move(it)); }
  Item pop() {
    MONDE_ASSERT(!empty(), "pop from an empty intake");
    Item it = items_.top();
    items_.pop();
    last_pop_ = it.time;
    if (it.source == Source::kArrival) {
      ++taken_;
      if (std::optional<Request> nxt = arrivals_.next()) {
        MONDE_REQUIRE(!arrival_order(*nxt, it.rq),
                      "arrival stream is out of (arrival, id) order at request " << nxt->id);
        items_.push({nxt->arrival, std::move(*nxt), Source::kArrival});
      }
    }
    return it;
  }

 private:
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      return a.time != b.time ? a.time > b.time : a.rq.id > b.rq.id;
    }
  };

  ArrivalStream& arrivals_;
  std::priority_queue<Item, std::vector<Item>, Later> items_;
  Duration last_pop_ = Duration::zero();
  std::size_t taken_ = 0;
};

// --- ClusterRun: what the concerns of one run() share -------------------------
// The fleet view, the intake, the report's counters and event log, and the
// one advance-and-commit path every concern advances replicas through.
struct ClusterSim::ClusterRun {
  ClusterRun(ClusterSim& s, ArrivalStream& arrivals)
      : sim{s},
        replicas{s.replicas_},
        cfg{s.cfg_},
        view{cfg.reference_loop ? std::unique_ptr<FleetView>{std::make_unique<ScanView>(s)}
                                : std::make_unique<CalendarView>(s, cfg.threads)},
        intake{arrivals} {
    rep.peak_replicas = view->capacity();
  }

  /// Advances every replica with work before `t` to `t`.
  void advance(Duration t) { advance(view->due_before(t), t, t); }

  // Advance, then commit: the write-backs touch only their own replica's
  // state, so committing the batch sequentially in ascending replica order
  // after a (possibly parallel) advance keeps every counter, percentile and
  // RNG draw independent of thread scheduling.
  void advance(const std::vector<std::size_t>& batch, Duration t, Duration floor) {
    phase_begin();
    view->advance_batch(batch, t);
    phase_end(rep.phase_advance_s);
    phase_begin();
    for (const std::size_t i : batch) commit(i, floor);
    phase_end(rep.phase_commit_s);
  }

  /// Write-backs after replica i advanced or evacuated: fold its new steps
  /// into the EWMA, turn its buffered prefill releases into items, then let
  /// the view re-index it. Each release becomes a decode-pool item at
  /// `release + transfer`, clamped to `floor`, which never precedes a popped
  /// item (the advance target, or the last pop when only the prefill pool
  /// ran ahead): the global (time, id) pop order survives releases
  /// discovered mid-event.
  void commit(std::size_t i, Duration floor) {
    Replica& r = replicas[i];
    constexpr double kNewestStepWeight = 0.25;
    const std::vector<StepRecord>& steps = r.server->steps();
    for (; r.steps_seen < steps.size(); ++r.steps_seen) {
      const double ms = (steps[r.steps_seen].end - steps[r.steps_seen].start).ms();
      r.ewma_ms = r.steps_seen == 0
                      ? ms
                      : kNewestStepWeight * ms + (1.0 - kNewestStepWeight) * r.ewma_ms;
    }
    if (r.prefill) {
      for (HandoffRecord& h : r.server->take_handoffs()) {
        ++h.request.attempt;
        intake.push({monde::max(h.release + h.transfer, floor), std::move(h.request),
                     Intake::Source::kHandoff});
      }
    }
    view->touched(i);
  }

  /// Appends a timeline event; `detail` builds its string, and runs only
  /// when the log is on.
  template <class Detail>
  void log(ClusterEvent::Kind kind, Duration t, std::size_t i, const Detail& detail) {
    if (cfg.event_log_enabled) rep.events.push_back({kind, t, i, detail()});
  }

  // Per-phase wall-clock (ClusterConfig::measure_phases), three buckets for
  // the perf-trend dashboard: advancement (fans out to the pool), the
  // sequential commit write-backs, and the sequential dispatch decisions.
  // Zero-cost when off; simulated results never depend on them.
  void phase_begin() {
    if (cfg.measure_phases) phase_t0 = std::chrono::steady_clock::now();
  }
  void phase_end(double& bucket) const {
    if (cfg.measure_phases) {
      bucket += std::chrono::duration<double>(std::chrono::steady_clock::now() - phase_t0).count();
    }
  }

  ClusterSim& sim;
  std::vector<Replica>& replicas;
  const ClusterConfig& cfg;
  std::unique_ptr<FleetView> view;
  Intake intake;
  ClusterReport rep;  ///< counters, events and phase times accumulate here
  std::chrono::steady_clock::time_point phase_t0{};
};

namespace {

/// Truncates a profile to the kPruneWidth heaviest experts per layer
/// (entries are layer-major, descending activation). Returns true if it
/// shrank.
bool prune_profile(moe::ExpertProfile& p) {
  std::vector<moe::ExpertId> kept;
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

// --- The concerns ---------------------------------------------------------------
/// One cluster concern: its next instant (infinite: none) and what it does
/// at that instant. The run loop fires the earliest.
class ClusterSim::Concern {
 public:
  explicit Concern(ClusterRun& run) : run_{run} {}
  virtual Duration next() = 0;
  virtual void fire(Duration t) = 0;

 protected:
  ClusterRun& run_;
};

/// Fail-stop detection, evacuation and retry.
class ClusterSim::Recovery final : public Concern {
 public:
  using Concern::Concern;

  // A detection is a cluster event even beyond the last arrival: stranded
  // work must recover.
  Duration next() override { return run_.view->next_detection().first; }

  void fire(Duration t) override {
    const std::size_t i = run_.view->next_detection().second;
    Replica& r = run_.replicas[i];
    run_.advance(t);  // the dying replica freezes at its fail-stop instant
    run_.view->leave(i);
    r.detected = true;
    run_.log(ClusterEvent::Kind::kFailStop, r.server->fault().fail_at, i,
             [&] { return "replica" + std::to_string(i) + " died"; });
    // A replica evacuated by a scale-down migration died empty: its work
    // already moved on, so there is nothing left to hand back.
    std::vector<Request> stranded;
    if (!r.server->evacuated()) stranded = r.server->evacuate();
    run_.log(ClusterEvent::Kind::kFailureDetected, t, i, [&] {
      return "heartbeat stale; " + std::to_string(stranded.size()) +
             " stranded request(s) queued for retry";
    });
    const PrefixCacheConfig& cache = run_.cfg.cache;
    for (Request rq : stranded) {
      ++rq.attempt;
      Duration at = t + kRetryTimeout;
      if (cache.enabled && cache.survive_failstop) {
        // Surviving-cache mode: the state checkpointed at the last step is
        // restored onto the retry replica at the modelled transfer cost (a
        // decode-pool victim's requests keep their full prompt, so they
        // re-home within the decode pool).
        at += cache.transfer_time_for(rq.resume.resident_tokens());
      } else {
        // Lost-cache mode: the KV state died with the node.
        rq.resume = ResumeState{};
      }
      run_.intake.push({at, rq, Intake::Source::kRetry});
    }
  }
};

/// Autoscaling: the tick cadence, the queue-pressure signals, spawns, and
/// retirement with optional evacuation.
class ClusterSim::Elasticity final : public Concern {
 public:
  Elasticity(ClusterRun& run, Autoscaler* autoscaler) : Concern{run}, autoscaler_{autoscaler} {
    run.rep.autoscaler = autoscaler != nullptr ? autoscaler->name() : "";
  }

  // The autoscaler ticks while arrivals/retries remain AND through the
  // drain phase while any replica still holds work, so late scale-downs
  // release idle capacity (drain-phase ticks may only scale down).
  Duration next() override {
    return autoscaler_ != nullptr && (!run_.intake.empty() || run_.view->has_live_work())
               ? next_tick_
               : Duration::infinite();
  }

  void fire(Duration t) override {
    run_.advance(t);
    std::size_t target = std::max<std::size_t>(autoscaler_->target_size(signals(t)), 1);
    std::size_t capacity = run_.view->capacity();
    // Drain phase (no arrivals or retries left): scaling up is pure waste
    // -- no dispatch will ever reach the new replica -- so only honor the
    // downward direction of the policy's answer.
    if (run_.intake.empty()) target = std::min(target, capacity);
    for (; capacity < target; ++capacity) spawn(t);
    for (; capacity > target && capacity > 1; --capacity) {
      const std::size_t victim = retiree();
      if (victim == run_.replicas.size()) break;  // every candidate is its pool's last
      retire(victim, t);
    }
    run_.rep.peak_replicas = std::max(run_.rep.peak_replicas, capacity);
    next_tick_ += run_.cfg.autoscale_period;
  }

 private:
  AutoscaleSignals signals(Duration t) const {
    AutoscaleSignals sig;
    std::vector<double> waits_ms;
    for (const Replica& r : run_.replicas) {
      if (!r.accepting()) continue;
      if (r.server->start_at() > t) {
        ++sig.warming_replicas;
      } else {
        ++sig.ready_replicas;
      }
      sig.outstanding_tokens += r.server->outstanding_tokens();
      for (const Duration arrival : r.server->waiting_arrivals()) {
        waits_ms.push_back((t - arrival).ms());
      }
    }
    if (!waits_ms.empty()) sig.p95_queue_delay_ms = percentile(std::move(waits_ms), 95.0);
    return sig;
  }

  void spawn(Duration t) {
    ClusterSim& sim = run_.sim;
    ReplicaSpec spec = sim.growth_;
    spec.seed = sim.next_seed_++;
    const std::size_t idx = run_.replicas.size();
    // Grow the pool furthest below its boot share (accepting members vs.
    // the boot prefill:decode ratio); ties, and unified fleets (no boot
    // prefill share), grow the decode pool.
    const FleetView::Counts& n = run_.view->counts();
    const Duration ready = t + run_.cfg.warmup;
    sim.add_replica(spec, t, ready, n[1] * boot_[0] < n[0] * boot_[1]);
    run_.view->join(idx);
    run_.log(ClusterEvent::Kind::kScaleUp, t, idx, [&] {
      return "spawned " + run_.replicas.back().name + ", ready at " + ready.str();
    });
  }

  /// The accepting replica owing the fewest tokens, newest on ties;
  /// disaggregated fleets never retire a pool's last accepting member
  /// (requests of its phase would have nowhere to go). replicas.size()
  /// when there is no candidate.
  std::size_t retiree() const {
    const std::vector<Replica>& replicas = run_.replicas;
    const FleetView::Counts& n = run_.view->counts();
    std::size_t victim = replicas.size();
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      const Replica& r = replicas[i];
      if (!r.accepting()) continue;
      if (run_.cfg.disagg.enabled && n[r.prefill] <= 1) continue;
      if (victim == replicas.size() ||
          r.server->outstanding_tokens() <= replicas[victim].server->outstanding_tokens()) {
        victim = i;
      }
    }
    return victim;
  }

  /// Retires `victim`: it drains its queue, then idles, never dispatched to
  /// again -- or, with migrate_on_retire, hands its work to the fleet.
  void retire(std::size_t victim, Duration t) {
    Replica& r = run_.replicas[victim];
    run_.view->leave(victim);
    r.retired = true;
    r.retired_at = t;
    // A victim that silently fail-stopped inside the detection lag cannot
    // migrate -- nobody knows it died. Retire it plainly; the heartbeat
    // monitor evacuates its stranded work at detection.
    const PrefixCacheConfig& cache = run_.cfg.cache;
    if (!cache.enabled || !cache.migrate_on_retire || r.server->failed()) {
      run_.log(ClusterEvent::Kind::kScaleDown, t, victim, [&] {
        return "retired " + r.name + " (" + std::to_string(r.server->in_flight()) +
               " request(s) left to drain)";
      });
      return;
    }
    // Live migration: the retiree stops at its step boundary and its
    // unfinished requests move (with their resident KV state, at the
    // modelled transfer cost) to the surviving fleet. Requests with no
    // resident state re-dispatch at the tick itself.
    std::vector<Request> moved = r.server->evacuate();
    // A prefill victim's forced step-boundary completion may have released
    // prefill-complete requests: convert them now (their release lies at
    // or after this tick), or they die with the buffer.
    run_.commit(victim, t);
    const Duration boundary = monde::max(t, r.server->now());
    for (Request rq : moved) {
      ++rq.attempt;
      const std::int64_t resident = rq.resume.resident_tokens();
      const Duration at = resident > 0 ? boundary + cache.transfer_time_for(resident) : t;
      run_.intake.push({at, rq, Intake::Source::kMigration});
    }
    run_.log(ClusterEvent::Kind::kScaleDown, t, victim, [&] {
      std::string detail = "retired " + r.name + " (migrated ";
      detail += std::to_string(moved.size());
      detail += " request(s))";
      return detail;
    });
  }

  Autoscaler* autoscaler_;
  Duration next_tick_ = run_.cfg.autoscale_period;
  /// Boot pool shares for disaggregated growth (run() is called once, so
  /// the tally is the boot fleet's here).
  const FleetView::Counts boot_ = run_.view->counts();
};

/// The disaggregated prefill pool. Each prefill completion spawns a
/// decode-pool re-dispatch, so when the pool's earliest event precedes
/// every concern's instant, the run advances ONLY the pool to that instant
/// (its horizon) and surfaces releases at their true times instead of a
/// whole gap late. Decode replicas stay put, so an item earlier than the
/// horizon still lands on a decode replica whose clock has not passed it.
/// Afterwards every live member's next event is at or beyond the horizon,
/// so the pool runs ahead again only once new prefill work is dispatched.
/// Not a Concern: the run loop lets it run ahead only when it is strictly
/// earlier than every concern, then asks again.
class ClusterSim::PrefillPool {
 public:
  explicit PrefillPool(ClusterRun& run) : run_{run} {}

  /// Earliest event (admission start or step boundary) of an undetected
  /// member; infinite without disaggregation.
  Duration next() {
    const std::vector<Replica>& replicas = run_.replicas;
    for (; seen_ < replicas.size(); ++seen_) {
      if (replicas[seen_].prefill) members_.push_back(seen_);
    }
    std::erase_if(members_, [&](std::size_t i) { return replicas[i].detected; });
    Duration t = Duration::infinite();
    for (const std::size_t i : members_) t = monde::min(t, replicas[i].server->next_event_time());
    return t;
  }

  /// Runs the members ahead to `horizon` through the common advance path;
  /// the last pop floors their handoffs.
  void fire(Duration horizon) { run_.advance(members_, horizon, run_.intake.last_pop()); }

 private:
  ClusterRun& run_;
  std::vector<std::size_t> members_;  ///< undetected prefill-role replicas, ascending
  std::size_t seen_ = 0;              ///< replicas already checked for the role
};

/// Cross-replica expert rebalancing: each tick pushes the fleet's currently
/// hottest experts (by dispatched-profile demand) into every accepting
/// replica's residency. Each preload is priced as a fetch over the
/// configured link, charged to the receiving replica's next step --
/// migrating hot experts toward the shards that will serve them instead of
/// letting each replica fault them in one miss at a time.
class ClusterSim::Rebalance final : public Concern {
 public:
  using Concern::Concern;

  /// Counts a dispatched request's full profile into the fleet demand (the
  /// demand exists whether or not pruning later drops part of it), only
  /// while ticks run.
  void count(const moe::ExpertProfile& profile) {
    if (!enabled_) return;
    for (const core::ExpertId& id : profile.experts) ++fleet_load_[id];
  }

  // Rebalance ticks only matter while requests remain to route.
  Duration next() override {
    return enabled_ && !run_.intake.empty() ? next_tick_ : Duration::infinite();
  }

  void fire(Duration t) override {
    run_.advance(t);
    std::vector<std::pair<std::uint64_t, core::ExpertId>> by_demand;
    by_demand.reserve(fleet_load_.size());
    for (const auto& [id, count] : fleet_load_) by_demand.push_back({count, id});
    // Hottest first; the map walk above yields ascending ExpertId, and the
    // stable sort keeps that order within a demand tie -- deterministic.
    std::stable_sort(by_demand.begin(), by_demand.end(),
                     [](const auto& a, const auto& b) { return a.first > b.first; });
    if (by_demand.size() > kRebalanceHotExperts) by_demand.resize(kRebalanceHotExperts);
    std::vector<core::ExpertId> hot;
    hot.reserve(by_demand.size());
    for (const auto& [count, id] : by_demand) hot.push_back(id);
    for (std::size_t i = 0; i < run_.replicas.size() && !hot.empty(); ++i) {
      Replica& r = run_.replicas[i];
      if (!r.accepting()) continue;
      // preload_experts() no-ops on a silently fail-stopped server.
      const std::size_t fetched = r.server->preload_experts(hot);
      if (fetched == 0) continue;
      run_.rep.expert_migrations += fetched;
      run_.view->touched(i);
      run_.log(ClusterEvent::Kind::kExpertRebalance, t, i, [&] {
        return "preloaded " + std::to_string(fetched) + " hot expert(s) onto replica" +
               std::to_string(i);
      });
    }
    next_tick_ += cfg_.rebalance_period;
  }

 private:
  const ExpertServingConfig& cfg_ = run_.cfg.expert;
  const bool enabled_ = cfg_.enabled && cfg_.rebalance_period > Duration::zero();
  Duration next_tick_ = cfg_.rebalance_period;
  // Fleet-wide demand per expert; the ordered map gives the ticks a
  // deterministic hottest-first walk.
  std::map<core::ExpertId, std::uint64_t> fleet_load_;
};

/// Dispatch: each item's expert profile, the view pipeline and the pick,
/// degraded-mode pruning, the enqueue, and the re-dispatch counters.
class ClusterSim::Dispatch final : public Concern {
 public:
  Dispatch(ClusterRun& run, Dispatcher& dispatcher, Rebalance& rebalance)
      : Concern{run}, dispatcher_{dispatcher}, rebalance_{rebalance} {
    run.rep.policy = dispatcher.name();
  }

  Duration next() override { return run_.intake.next(); }

  void fire(Duration t) override {
    // Advance before popping: the advance may surface prefill-complete
    // handoffs clamped to this very instant, and such an item (possibly
    // carrying a smaller id than the current head) must be eligible for
    // this pop to keep the global (time, id) dispatch order.
    run_.advance(t);
    Intake::Item it = run_.intake.pop();
    run_.phase_begin();
    Request& rq = it.rq;
    const ExpertServingConfig& expert = run_.cfg.expert;
    if (expert.enabled) {
      // First dispatch derives the profile; a retry/migration keeps the one
      // it already carries (possibly pruned by an earlier overload).
      if (rq.expert_profile.empty()) {
        rq.expert_profile = run_.sim.profiler_->expert_profile_for(
            rq.id, ExpertServingConfig::profile_width, ExpertServingConfig::profile_tokens);
      }
      rebalance_.count(rq.expert_profile);
    }
    const std::size_t idx = pick_replica(rq);
    Replica& r = run_.replicas[idx];
    // Pruned-expert degraded mode: a request landing on an overloaded
    // replica is served with a truncated profile -- fewer experts to keep
    // hot, fewer fetches to price -- instead of queueing at full fidelity.
    if (expert.enabled && expert.prune_outstanding_tokens > 0 &&
        r.server->outstanding_tokens() > expert.prune_outstanding_tokens &&
        prune_profile(rq.expert_profile)) {
      ++run_.rep.pruned_requests;
    }
    // The request joins the queue now: at its trace arrival, or at a
    // re-dispatch's later instant.
    r.server->enqueue(rq, it.time);
    ++r.dispatched;
    run_.view->touched(idx);
    note_redispatch(it, idx);
    run_.phase_end(run_.rep.phase_dispatch_s);
  }

 private:
  /// The view pipeline: the accepting set, then the soft slow-EWMA filter
  /// (finite factor only), then the disaggregated role filter -- whose
  /// pool, if the soft filter emptied it, falls back to the accepting set
  /// before the pool is declared gone. Returns the picked replica's index.
  std::size_t pick_replica(const Request& rq) {
    const ClusterConfig& cfg = run_.cfg;
    const std::vector<ReplicaSnapshot>& accepting = run_.view->accepting();
    MONDE_REQUIRE(!accepting.empty(),
                  "no replica is accepting requests (every replica failed or retired)");
    const std::vector<ReplicaSnapshot>* view = &accepting;
    std::vector<ReplicaSnapshot> healthy;
    if (std::isfinite(cfg.health.slow_ewma_factor)) {
      healthy = eligible_snapshots(accepting, cfg.health.slow_ewma_factor);
      view = &healthy;
    }
    std::vector<ReplicaSnapshot> role_pool;
    if (cfg.disagg.enabled) {
      const bool want_prefill = !rq.decode_phase();
      role_pool = pool_snapshots(*view, want_prefill);
      if (role_pool.empty()) role_pool = pool_snapshots(accepting, want_prefill);
      MONDE_REQUIRE(!role_pool.empty(), "no " << (want_prefill ? "prefill" : "decode")
                                              << " replica is accepting requests");
      view = &role_pool;
    }
    const std::size_t pick = dispatcher_.pick(*view, rq);
    MONDE_REQUIRE(pick < view->size(),
                  "dispatcher picked entry " << pick << " of " << view->size());
    return (*view)[pick].replica;
  }

  /// Counters and event log for a re-dispatch (no-op for a first dispatch).
  void note_redispatch(const Intake::Item& it, std::size_t idx) {
    const Request& rq = it.rq;
    if (it.source == Intake::Source::kHandoff) {
      // Handoffs are their own lifecycle event, not failure retries --
      // attempt was bumped (it IS a re-dispatch) but the retry/migration
      // counters stay clean.
      ++run_.rep.handoffs;
      run_.log(ClusterEvent::Kind::kHandoff, it.time, idx, [&] {
        return "request " + std::to_string(rq.id) + " prefill complete -> replica" +
               std::to_string(idx) + " (" + std::to_string(rq.resume.resident_tokens()) +
               " KV tokens)";
      });
      return;
    }
    if (rq.attempt == 0) return;
    const bool migrated = it.source == Intake::Source::kMigration;
    ++(migrated ? run_.rep.migrations : run_.rep.retries);
    run_.log(migrated ? ClusterEvent::Kind::kMigrate : ClusterEvent::Kind::kRetry, it.time,
             idx, [&] {
               std::string detail = "request " + std::to_string(rq.id) + " attempt " +
                                    std::to_string(rq.attempt) + " -> replica" +
                                    std::to_string(idx);
               if (rq.resume.any()) {
                 detail += " (resumed ";
                 detail += std::to_string(rq.resume.resident_tokens());
                 detail += " tokens)";
               }
               return detail;
             });
  }

  Dispatcher& dispatcher_;
  Rebalance& rebalance_;
};

ClusterReport ClusterSim::assemble_report(ClusterReport rep, std::size_t taken) {
  std::stable_sort(rep.events.begin(), rep.events.end(),
                   [](const ClusterEvent& a, const ClusterEvent& b) { return a.time < b.time; });

  // Each server hands its steps and records over by move.
  std::vector<ServeReport> serves;
  serves.reserve(replicas_.size());
  std::size_t served = 0;
  for (Replica& r : replicas_) {
    const ServeReport& s = serves.emplace_back(r.server->report());
    served += s.requests.size();
    // Fleet makespan: a spawned replica that never ran a step contributes
    // its spawn instant, not its (possibly later) warm-up boundary.
    rep.makespan = monde::max(rep.makespan, s.steps.empty() ? r.spawned_at : s.makespan);
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
  MONDE_ASSERT(rep.requests.size() == taken,
               "cluster lost requests: served " << rep.requests.size() << " of " << taken);
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
  ClusterRun run{*this, arrivals};
  Recovery recovery{run};
  Elasticity elasticity{run, autoscaler};
  Rebalance rebalance{run};
  Dispatch dispatch{run, dispatcher, rebalance};
  PrefillPool prefill{run};
  // The earliest concern fires; on a tie the first listed wins.
  const std::array<Concern*, 4> concerns{&recovery, &elasticity, &rebalance, &dispatch};
  for (;;) {
    Concern* due = nullptr;
    Duration at = Duration::infinite();
    for (Concern* c : concerns) {
      const Duration t = c->next();
      if (t < at) {
        at = t;
        due = c;
      }
    }
    if (prefill.next() < at) {
      // The prefill pool owns every fleet event until `at`. With no concern
      // due (at infinite) this drains the prefill tail outright; new handoff
      // items re-arm dispatch.
      prefill.fire(at);
      continue;
    }
    if (due == nullptr) break;  // nothing left anywhere
    due->fire(at);
  }
  // No further arrivals: replicas finish independently, so each can drain
  // to completion on its own (failed replicas were evacuated above). The
  // report reads the servers only after every drain returned.
  run.phase_begin();
  run.view->drain_all();
  run.phase_end(run.rep.phase_advance_s);
  return assemble_report(std::move(run.rep), run.intake.taken());
}

}  // namespace monde::serve
