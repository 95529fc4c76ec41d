#include "serve/server.hpp"

#include <algorithm>
#include <utility>

namespace monde::serve {

ServerSim::ServerSim(core::InferenceEngine& engine, SchedulerConfig cfg, Duration start_at,
                     FaultSpec fault, PrefixCacheConfig cache, ExpertServingConfig expert,
                     std::optional<interconnect::LinkSpec> handoff_link)
    : engine_{engine},
      cfg_{cfg},
      sched_{cfg},
      st_{engine.make_state(sim::Recording::kOff)},  // nobody reads a replica's trace
      start_at_{start_at},
      fault_{fault},
      cache_{cache},
      expert_{expert},
      expert_cache_{expert.enabled ? expert.cache_capacity : 0},
      handoff_link_{std::move(handoff_link)} {
  cfg_.validate();
  fault_.validate();
  expert_.validate();
  if (handoff_link_) {
    handoff_link_->validate();
    MONDE_REQUIRE(cfg_.mode == BatchingMode::kContinuous,
                  "a prefill-role replica needs continuous batching (a fixed batch "
                  "cannot release requests mid-batch)");
  }
  if (expert_.enabled) {
    expert_fetch_time_ = interconnect::LinkSpec::cxl_mem_gen4_x16().transfer_time(
        engine_.workload().model().expert_bytes());
  }
  MONDE_REQUIRE(start_at_ >= Duration::zero(), "server cannot boot before t=0");
  MONDE_REQUIRE(fault_.fail_at > start_at_, "fail-stop must lie after the boot instant");
  // Booting at start_at: the clock starts there, so no step can begin
  // earlier while enqueues land in the queue at any time (cold start).
  st_.now = start_at_;
  if (cache_.enabled()) {
    // Admission budgets with the cache's shared-prefix savings; the
    // discount is frozen per request at admission so step() prices exactly
    // what admission charged for.
    sched_.set_prefill_discount(
        [this](const Request& rq) { return cache_.saved_tokens(rq); });
  }
}

void ServerSim::enqueue(const Request& rq, Duration at) {
  MONDE_REQUIRE(!evacuated_, "enqueue() on an evacuated server");
  sched_.push(rq, at);
}

void ServerSim::advance_to(Duration t) {
  if (failed_) return;  // frozen at the fail-stop instant forever
  // Death occurs the moment simulated time reaches fail_at: no step starts
  // at or after it, which the strict-before loop below gives us by clamping.
  const bool dies = fault_.fail_stop() && t >= fault_.fail_at;
  if (dies) t = fault_.fail_at;
  for (;;) {
    // A step that would start at or after `t` belongs to a later call: the
    // caller may still enqueue arrivals landing in [t, start). Equally, a
    // step whose end sits at or after `t` keeps its completion deferred, so
    // load snapshots taken at `t` see the mid-step queue state.
    if (st_.now >= t) break;
    apply_pending_completion();
    sched_.release_arrivals(st_.now);
    const std::vector<RequestState*> newly = sched_.admit();
    if (newly.empty() && sched_.active().empty()) {
      // Nothing runnable here: fast-forward to the next queued arrival (or
      // hand control back and wait for enqueue()/drain()).
      const Duration next = sched_.next_arrival();
      if (next >= t) break;
      st_.now = monde::max(st_.now, next);
      continue;
    }
    step(newly);
  }
  if (dies) fail_now();
}

Duration ServerSim::next_event_time() const {
  if (failed_) return Duration::infinite();
  if (sched_.step_ready()) return st_.now;
  // An arrival already at or before the clock (a cold-starting replica
  // buffers those) becomes runnable the moment the clock can move: the
  // event time is the clock itself, never the past.
  return monde::max(st_.now, sched_.next_arrival());
}

void ServerSim::drain() {
  sched_.seal();
  advance_to(Duration::infinite());
  apply_pending_completion();
  MONDE_ASSERT(sched_.drained(),
               (failed_ ? "drain() on a failed server with unevacuated stranded requests"
                        : "drain() left requests unserved"));
}

void ServerSim::fail_now() {
  failed_ = true;
  // A completion landing at or before the instant of death made it; one
  // landing after dies with the node (its requests strand mid-step, and
  // the step's would-be cache admissions die too).
  if (completion_pending_ && pending_end_ <= fault_.fail_at) apply_pending_completion();
  completion_pending_ = false;
  pending_admits_.clear();
  // The step cut short by the failure only burned cycles up to the death.
  if (!steps_.empty() && steps_.back().end > fault_.fail_at) {
    busy_ -= steps_.back().end - fault_.fail_at;
    steps_.back().end = fault_.fail_at;
  }
  st_.now = monde::min(st_.now, fault_.fail_at);
}

std::vector<Request> ServerSim::evacuate() {
  MONDE_REQUIRE(!evacuated_, "server was already evacuated");
  evacuated_ = true;
  // A live server leaves at the step boundary: the step in flight completes
  // (deterministically, at its already-priced end) and its effects are part
  // of the checkpoint the requests carry away -- unless a scheduled
  // fail-stop lands inside that step, in which case the node never finishes
  // it and evacuation cannot rescue its effects (the same rule fail_now()
  // applies). On a dead server fail_now() already settled the pending step.
  if (completion_pending_ && fault_.fail_stop() && pending_end_ > fault_.fail_at) {
    completion_pending_ = false;
    pending_admits_.clear();
  }
  apply_pending_completion();
  evict_in_flight_experts();
  std::vector<Request> moved = sched_.abort_unfinished();
  cache_.drop_pinned();
  return moved;
}

void ServerSim::apply_pending_completion() {
  if (!completion_pending_) return;
  completion_pending_ = false;
  // The step committed: its admissions become resident (pins + stats)
  // before its decode tokens land on them.
  for (const auto& [rq, saved] : pending_admits_) cache_.admit(rq, saved);
  pending_admits_.clear();
  const StepOutcome& out = sched_.complete_step(pending_end_);
  if (cache_.enabled()) {
    for (const std::uint64_t id : out.advanced) cache_.decode_token(id);
    for (const std::uint64_t id : out.finished) cache_.complete(id);
  }
  if (handoff_link_) {
    // Prefill complete: every request whose admission step just landed
    // (prompt resident, first decode token surfaced) leaves for the decode
    // pool as a checkpointed resume. Its KV frontier ships over the handoff
    // link, priced per resident token; the outbound DMA is charged to this
    // replica's next step (pending_handoff_ship_), and the cluster turns
    // each record into a decode-pool dispatch at release + transfer.
    for (Request& rq : sched_.release_prefilled()) {
      cache_.complete(rq.id);  // no-op when the cache is disabled
      const Duration transfer = handoff_link_->transfer_time(
          cache_.config().kv_bytes_per_token *
          static_cast<std::uint64_t>(rq.resume.resident_tokens()));
      ++handoff_count_;
      handoff_tokens_ += rq.resume.resident_tokens();
      handoff_transfer_ += transfer;
      pending_handoff_ship_ += transfer;
      handoffs_out_.push_back(HandoffRecord{std::move(rq), pending_end_, transfer});
    }
  }
}

std::vector<HandoffRecord> ServerSim::take_handoffs() {
  MONDE_REQUIRE(handoff_link_.has_value(), "take_handoffs() on a non-prefill replica");
  std::vector<HandoffRecord> out;
  out.swap(handoffs_out_);
  return out;
}

void ServerSim::step(const std::vector<RequestState*>& newly) {
  StepRecord rec;
  rec.index = static_cast<std::int64_t>(steps_.size());
  rec.start = st_.now;
  for (RequestState* rs : newly) {
    rs->admitted = st_.now;
    // Cached tokens (resumed prefix or shared-prefix hit) skip the prefill;
    // a fully-covered prompt runs none at all. The cache itself learns of
    // the admission only once this step's completion applies -- a step
    // discarded by a fail-stop must not count as cache traffic.
    const std::int64_t prefill_len = rs->request.prompt_len - rs->saved_tokens;
    if (prefill_len > 0) engine_.prefill(st_, 1, prefill_len);
    rec.prefill_tokens += prefill_len;
    rec.cached_tokens += rs->saved_tokens;
    if (cache_.enabled()) pending_admits_.emplace_back(rs->request, rs->saved_tokens);
  }
  // Newly admitted requests join this step's decode immediately, so a
  // step's cost is its prefills plus one shared decode over all slots.
  const std::vector<core::DecodeSlot>& slots = sched_.slots();
  const std::vector<moe::MoeLayerWork>& works = sched_.step_works(engine_.workload());
  const core::StepResult sr = engine_.decode_step(st_, slots, works);
  // The step is priced now, but its scheduler effects land at sr.end: defer
  // them so load queries between now and then see the mid-step state.
  completion_pending_ = true;
  pending_end_ = sr.end;
  // Slow-down fault: dilate the whole step (prefills + decode) about its
  // start. The engine's internal schedule keeps native spans; the server's
  // clock and the deferred completion carry the externally imposed factor,
  // so subsequent steps start (and requests finish) proportionally later.
  const double factor = fault_.factor_at(rec.start);
  if (factor != 1.0) {
    st_.now = rec.start + (st_.now - rec.start) * factor;
    pending_end_ = rec.start + (sr.end - rec.start) * factor;
  }
  // Expert residency: every active request's profiled experts must be hot
  // for this step. Misses fetch over the configured link and stretch the
  // step (the decode synchronizes on the weights); rebalance preloads that
  // arrived since the last step are charged here too. The walk is in
  // admission order, so the accounting is deterministic.
  if (expert_.enabled) {
    const auto& states = sched_.states();
    for (const std::size_t idx : sched_.active()) {
      for (const core::ExpertId& id : states[idx].request.expert_profile.experts) {
        if (!expert_cache_.access(id)) {
          expert_cache_.insert(id);
          ++rec.expert_misses;
        }
      }
    }
    rec.expert_fetch = expert_fetch_time_ * static_cast<double>(rec.expert_misses) +
                       pending_preload_;
    pending_preload_ = Duration::zero();
    st_.now += rec.expert_fetch;
    pending_end_ += rec.expert_fetch;
  }
  // Outbound KV handoffs released at the previous boundary occupy the link
  // now; this step synchronizes on the DMA (same model as the preloads).
  if (pending_handoff_ship_ > Duration::zero()) {
    rec.handoff_ship = pending_handoff_ship_;
    pending_handoff_ship_ = Duration::zero();
    st_.now += rec.handoff_ship;
    pending_end_ += rec.handoff_ship;
  }
  rec.decode_tokens = static_cast<std::int64_t>(slots.size());
  rec.end = st_.now;
  busy_ += rec.end - rec.start;
  steps_.push_back(rec);
}

void ServerSim::evict_in_flight_experts() {
  if (!expert_.enabled) return;
  const auto& states = sched_.states();
  for (const std::size_t idx : sched_.active()) {
    if (states[idx].done) continue;  // a padded fixed-mode slot
    for (const auto& e : states[idx].request.expert_profile.experts) {
      expert_cache_.erase({e.layer, e.expert});
    }
  }
}

std::size_t ServerSim::preload_experts(const std::vector<core::ExpertId>& ids) {
  if (!expert_.enabled || failed_ || evacuated_) return 0;
  std::size_t fetched = 0;
  for (const core::ExpertId& id : ids) {
    if (expert_cache_.contains(id)) continue;
    expert_cache_.insert(id);
    pending_preload_ += expert_fetch_time_;
    ++fetched;
  }
  return fetched;
}

ServeReport ServerSim::report() {
  MONDE_REQUIRE(sched_.drained(), "report() before the server drained");
  MONDE_REQUIRE(!reported_, "report() hands the server's history over; call it once");
  reported_ = true;
  ServeReport report;
  report.strategy = engine_.strategy().name();
  report.mode = to_string(cfg_.mode);
  report.steps = std::exchange(steps_, {});
  report.steps.shrink_to_fit();  // a replica's history can outlive the run
  report.makespan = st_.now;
  report.busy = busy_;
  // Handed-off requests have no record (their metrics finish on a decode
  // replica) but the tokens they decoded here are credited.
  report.requests = sched_.take_records();
  report.generated_tokens = sched_.credited_tokens();
  std::vector<double> ttft_ms, tpot_ms, e2e_ms;
  e2e_ms.reserve(report.requests.size());
  for (const RequestMetrics& m : report.requests) {
    // A resumed request's first token predates this server (and possibly
    // its local arrival): its TTFT/TPOT belong to the fleet-level re-based
    // metrics, not this replica's.
    if (m.resumed_tokens == 0) {
      ttft_ms.push_back(m.ttft().ms());
      if (m.generated > 1) tpot_ms.push_back(m.tpot().ms());
    }
    e2e_ms.push_back(m.e2e().ms());
  }
  // A replica that never received a request legitimately reports nothing.
  if (!ttft_ms.empty()) report.ttft_ms = compute_percentiles(std::move(ttft_ms));
  if (!tpot_ms.empty()) report.tpot_ms = compute_percentiles(std::move(tpot_ms));
  if (!e2e_ms.empty()) report.e2e_ms = compute_percentiles(std::move(e2e_ms));
  report.tokens_per_s = report.makespan > Duration::zero()
                            ? static_cast<double>(report.generated_tokens) /
                                  report.makespan.sec()
                            : 0.0;
  report.cache = cache_.stats();
  report.expert_hits = expert_cache_.hits();
  report.expert_misses = expert_cache_.misses();
  report.expert_hit_rate = expert_cache_.hit_rate();
  report.resident_experts = expert_cache_.size();
  report.handoffs = handoff_count_;
  report.handoff_tokens = handoff_tokens_;
  report.handoff_transfer = handoff_transfer_;
  return report;
}

ServeReport ServerSim::run(std::vector<Request> trace) {
  // The pool is empty until the first enqueue (and after report(), which
  // frees it); a drained-only server is sealed, so its enqueue throws.
  MONDE_REQUIRE(!reported_ && sched_.states().empty(), "run() needs a fresh server");
  MONDE_REQUIRE(!trace.empty(), "cannot serve an empty trace");
  std::stable_sort(trace.begin(), trace.end(), arrival_order<Request>);
  for (const Request& rq : trace) enqueue(rq);
  drain();
  return report();
}

}  // namespace monde::serve
