#include "serve/scheduler.hpp"

#include <algorithm>

namespace monde::serve {

std::string to_string(BatchingMode mode) {
  return mode == BatchingMode::kFixed ? "fixed" : "continuous";
}

void SchedulerConfig::validate() const {
  MONDE_REQUIRE(token_budget > 0, "scheduler needs token_budget > 0, got " << token_budget);
  if (mode != BatchingMode::kFixed) return;  // kFixedBatch binds only in fixed mode
  MONDE_REQUIRE(kFixedBatch <= token_budget,
                "fixed mode's batch of " << kFixedBatch << " must not exceed token_budget ("
                                         << token_budget << ")");
}

ContinuousBatchScheduler::ContinuousBatchScheduler(SchedulerConfig cfg) : cfg_{cfg} {
  cfg_.validate();
}

void ContinuousBatchScheduler::push(const Request& rq) {
  MONDE_REQUIRE(!sealed_, "scheduler is sealed; no further requests accepted");
  rq.validate();
  if (!states_.empty()) {
    const Request& last = states_.back().request;
    MONDE_REQUIRE(arrival_order(last, rq),
                  "requests must be pushed in (arrival, id) order: request "
                      << rq.id << " after request " << last.id);
  }
  states_.push_back(RequestState{rq});
  RequestState& rs = states_.back();
  // A resumed request continues at its checkpointed decode depth; the first
  // token (if any surfaced before) keeps its original instant across
  // attempts -- the user already saw it.
  rs.generated = rq.resume.decoded;
  if (rq.resume.decoded > 0) rs.first_token = rq.resume.first_token;
  ++live_;
  owed_tokens_ +=
      (rq.prompt_len - rq.resume.prefilled) + (rq.max_new_tokens - rq.resume.decoded);
}

void ContinuousBatchScheduler::seal() { sealed_ = true; }

void ContinuousBatchScheduler::submit(std::vector<Request> trace) {
  MONDE_REQUIRE(states_.empty() && !sealed_, "submit() needs a fresh scheduler");
  MONDE_REQUIRE(!trace.empty(), "cannot serve an empty trace");
  std::stable_sort(trace.begin(), trace.end(), arrival_order<Request>);
  states_.reserve(trace.size());
  for (const Request& rq : trace) push(rq);
  seal();
}

bool ContinuousBatchScheduler::drained() const {
  return next_pending_ == states_.size() && queued_.empty() && active_.empty();
}

Duration ContinuousBatchScheduler::next_arrival() const {
  return next_pending_ < states_.size() ? states_[next_pending_].request.arrival
                                        : Duration::infinite();
}

void ContinuousBatchScheduler::release_arrivals(Duration now) {
  while (next_pending_ < states_.size() && states_[next_pending_].request.arrival <= now) {
    queued_.push_back(next_pending_);
    ++next_pending_;
  }
}

std::int64_t ContinuousBatchScheduler::discount_for(const Request& rq) const {
  const std::int64_t saved = discount_ ? discount_(rq) : rq.resume.prefilled;
  MONDE_ASSERT(saved >= rq.resume.prefilled && saved <= rq.prompt_len,
               "prefill discount for request " << rq.id << " (" << saved
                                               << ") must lie in [resume.prefilled, prompt_len]");
  return saved;
}

void ContinuousBatchScheduler::mark_admitted(std::size_t idx, std::int64_t saved,
                                             std::vector<RequestState*>& newly) {
  active_.push_back(idx);
  RequestState& rs = states_[idx];
  // Freeze the discount admission budgeted with; the server prices the
  // prefill from exactly this number.
  rs.saved_tokens = saved;
  // The whole prompt-side obligation is discharged this step: the
  // un-discounted part is prefilled now, the rest comes from the cache.
  owed_tokens_ -= rs.request.prompt_len - rs.request.resume.prefilled;
  newly.push_back(&rs);
}

void ContinuousBatchScheduler::take_front(std::int64_t saved,
                                          std::vector<RequestState*>& newly) {
  const std::size_t idx = queued_.front();
  queued_.pop_front();
  mark_admitted(idx, saved, newly);
}

std::vector<RequestState*> ContinuousBatchScheduler::admit_fixed() {
  std::vector<RequestState*> newly;
  // A new batch forms only on an empty server, and waits for a full batch
  // while more arrivals are still due (the classic batching delay). An
  // unsealed scheduler may always receive more arrivals.
  if (!active_.empty() || queued_.empty()) return newly;
  if (static_cast<std::int64_t>(queued_.size()) < kFixedBatch &&
      (next_pending_ < states_.size() || !sealed_)) {
    return newly;
  }
  const std::size_t take = std::min(queued_.size(), static_cast<std::size_t>(kFixedBatch));
  for (std::size_t i = 0; i < take; ++i) {
    take_front(discount_for(states_[queued_.front()].request), newly);
  }
  return newly;
}

std::vector<RequestState*> ContinuousBatchScheduler::admit_fifo() {
  // Admit while this step's tokens (prefills admitted now + one decode token
  // per slot after admission) stay within the budget. The FIFO head pops in
  // O(1), so a burst of arrivals admits in O(batch), not O(queue^2) as a
  // vector-head erase would.
  std::vector<RequestState*> newly;
  std::int64_t prefill_tokens = 0;
  while (!queued_.empty()) {
    const Request& rq = states_[queued_.front()].request;
    const std::int64_t saved = discount_for(rq);
    const std::int64_t prompt = rq.prompt_len - saved;  // tokens to prefill
    const std::int64_t slots_after =
        static_cast<std::int64_t>(active_.size()) + static_cast<std::int64_t>(newly.size()) + 1;
    const bool fits = prefill_tokens + prompt + slots_after <= cfg_.token_budget;
    // Starvation guard: an over-budget prompt runs alone on an empty server.
    const bool oversized_alone = active_.empty() && newly.empty() &&
                                 prompt + 1 > cfg_.token_budget;
    if (!fits && !oversized_alone) break;
    take_front(saved, newly);
    prefill_tokens += prompt;
    if (oversized_alone) break;
  }
  return newly;
}

std::vector<RequestState*> ContinuousBatchScheduler::admit_size_aware() {
  // Fewest-remaining-tokens first: admit the queued requests owing the
  // fewest (discounted prompt + remaining decode) tokens -- unless a
  // request has been bypassed past the limit, in which case seniority wins
  // and admission stalls until that request fits (the starvation guard).
  //
  // The ranking keys (discount, remaining tokens, bypass state) cannot
  // change inside one admit() call, and the budget only tightens as
  // admissions accumulate, so one ranked pass is equivalent to re-ranking
  // after every admission -- and calls the discount hook once per request
  // instead of O(admitted x queue log queue) times.
  std::vector<RequestState*> newly;
  if (queued_.empty()) return newly;
  struct Candidate {
    std::size_t pos = 0;  ///< position in queued_ (the seniority key)
    std::int64_t saved = 0;
    std::int64_t remaining = 0;
    bool forced = false;  ///< past the bypass limit: seniority beats size
  };
  std::vector<Candidate> order;
  order.reserve(queued_.size());
  for (std::size_t pos = 0; pos < queued_.size(); ++pos) {
    const RequestState& rs = states_[queued_[pos]];
    const std::int64_t saved = discount_for(rs.request);
    order.push_back({pos, saved,
                     (rs.request.prompt_len - saved) +
                         (rs.request.max_new_tokens - rs.generated),
                     rs.bypassed >= kAdmissionBypassLimit});
  }
  std::stable_sort(order.begin(), order.end(), [](const Candidate& a, const Candidate& b) {
    if (a.forced != b.forced) return a.forced;  // guarded requests first...
    if (a.forced) return a.pos < b.pos;         // ...by seniority among them
    return a.remaining != b.remaining ? a.remaining < b.remaining : a.pos < b.pos;
  });
  std::vector<bool> taken(queued_.size(), false);
  std::int64_t prefill_tokens = 0;
  for (const Candidate& c : order) {
    const Request& rq = states_[queued_[c.pos]].request;
    const std::int64_t prompt = rq.prompt_len - c.saved;
    const std::int64_t slots_after = static_cast<std::int64_t>(active_.size()) +
                                     static_cast<std::int64_t>(newly.size()) + 1;
    const bool fits = prefill_tokens + prompt + slots_after <= cfg_.token_budget;
    const bool oversized_alone = active_.empty() && newly.empty() &&
                                 prompt + 1 > cfg_.token_budget;
    if (fits || oversized_alone) {
      taken[c.pos] = true;
      mark_admitted(queued_[c.pos], c.saved, newly);
      prefill_tokens += prompt;
      if (oversized_alone) break;
      continue;
    }
    // A request past the bypass limit blocks everything behind it: nothing
    // may leapfrog the guard, so admission is over for this step.
    if (c.forced) break;
  }
  // Starvation credit: a request was bypassed only if a JUNIOR (later
  // queue position) request was admitted past it -- waiting behind one's
  // seniors is ordinary FIFO progress, not a bypass.
  std::size_t last_taken = 0;
  for (std::size_t pos = 0; pos < queued_.size(); ++pos) {
    if (taken[pos]) last_taken = pos;
  }
  for (std::size_t pos = 0; pos < last_taken; ++pos) {
    if (!taken[pos]) ++states_[queued_[pos]].bypassed;
  }
  // Compact the queue in order, dropping the admitted entries.
  std::size_t write = 0;
  for (std::size_t read = 0; read < queued_.size(); ++read) {
    if (!taken[read]) queued_[write++] = queued_[read];
  }
  queued_.resize(write);
  return newly;
}

std::vector<RequestState*> ContinuousBatchScheduler::admit() {
  if (cfg_.mode == BatchingMode::kFixed) return admit_fixed();
  return cfg_.size_aware_admission ? admit_size_aware() : admit_fifo();
}

bool ContinuousBatchScheduler::step_ready() const {
  if (!active_.empty()) return true;
  if (queued_.empty()) return false;
  if (cfg_.mode != BatchingMode::kFixed) return true;
  return static_cast<std::int64_t>(queued_.size()) >= kFixedBatch ||
         (next_pending_ == states_.size() && sealed_);
}

std::vector<core::DecodeSlot> ContinuousBatchScheduler::slots() const {
  std::vector<core::DecodeSlot> out;
  out.reserve(active_.size());
  for (const std::size_t idx : active_) {
    const RequestState& rs = states_[idx];
    out.push_back({rs.request.id, rs.generated, rs.request.prompt_len});
  }
  return out;
}

std::vector<moe::MoeLayerWork> ContinuousBatchScheduler::step_works(
    moe::WorkloadGenerator& gen) const {
  MONDE_REQUIRE(!active_.empty(), "no active requests to route");
  std::vector<std::vector<moe::MoeLayerWork>> draws;
  draws.reserve(active_.size());
  for (const std::size_t idx : active_) {
    const RequestState& rs = states_[idx];
    draws.push_back(gen.decoder_step_for(rs.request.id, rs.generated));
  }
  return moe::WorkloadGenerator::merge_layer_works(draws);
}

std::vector<Duration> ContinuousBatchScheduler::waiting_arrivals() const {
  std::vector<Duration> out;
  out.reserve(states_.size() - next_pending_ + queued_.size());
  for (std::size_t i = next_pending_; i < states_.size(); ++i) {
    out.push_back(states_[i].request.arrival);
  }
  for (const std::size_t idx : queued_) out.push_back(states_[idx].request.arrival);
  return out;
}

std::vector<Request> ContinuousBatchScheduler::abort_unfinished() {
  std::vector<Request> stranded;
  std::vector<RequestState> kept;
  kept.reserve(states_.size());
  for (RequestState& rs : states_) {
    if (rs.done) {
      kept.push_back(std::move(rs));
    } else {
      Request rq = rs.request;
      // Checkpointed progress: an applied step since admission means the
      // whole prompt and `generated` decode tokens were resident at the
      // last completed step boundary. Anything short of that (waiting, or
      // admitted into a step whose completion never applied -- stranded
      // mid-prefill) keeps the resume state it arrived with. Whether the
      // retry USES the annotation is the cluster's cache-survival policy.
      if (rs.generated > rq.resume.decoded) {
        rq.resume.prefilled = rq.prompt_len;
        rq.resume.decoded = rs.generated;
        rq.resume.first_token = rs.first_token;
      }
      stranded.push_back(rq);
    }
  }
  states_ = std::move(kept);
  queued_.clear();
  active_.clear();
  next_pending_ = states_.size();
  live_ = 0;
  owed_tokens_ = 0;
  sealed_ = true;  // an aborted replica never accepts again
  return stranded;
}

std::vector<Request> ContinuousBatchScheduler::release_prefilled() {
  std::vector<Request> released;
  for (const std::size_t idx : active_) {
    RequestState& rs = states_[idx];
    if (rs.done) continue;
    // Only requests whose admission step has completed are releasable: the
    // step advanced their decode depth past what they arrived with, which is
    // the same signal abort_unfinished() keys its checkpoint annotation on.
    if (rs.generated <= rs.request.resume.decoded) continue;
    Request rq = rs.request;
    rq.resume.prefilled = rq.prompt_len;
    rq.resume.decoded = rs.generated;
    rq.resume.first_token = rs.first_token;
    released.push_back(rq);
    rs.done = true;  // leaves the batch; handed_off keeps reporting honest
    rs.handed_off = true;
    --live_;
    owed_tokens_ -= rs.request.max_new_tokens - rs.generated;
  }
  std::erase_if(active_, [this](std::size_t idx) { return states_[idx].done; });
  std::stable_sort(released.begin(), released.end(), arrival_order<Request>);
  return released;
}

StepOutcome ContinuousBatchScheduler::complete_step(Duration end) {
  StepOutcome out;
  bool all_done = true;
  for (const std::size_t idx : active_) {
    RequestState& rs = states_[idx];
    // A fixed-mode padded slot surfaced no token: its decode depth stays
    // frozen at the final generated count (the KV cache stops growing).
    if (rs.done) continue;
    ++rs.generated;
    --owed_tokens_;
    out.advanced.push_back(rs.request.id);
    if (rs.generated == 1) rs.first_token = end;
    if (rs.generated == rs.request.max_new_tokens) {
      rs.done = true;
      rs.completion = end;
      --live_;
      out.finished.push_back(rs.request.id);
    }
    all_done = all_done && rs.done;
  }
  if (cfg_.mode == BatchingMode::kFixed) {
    // Padded slots keep running until the whole batch drains.
    if (all_done) active_.clear();
    return out;
  }
  std::erase_if(active_, [this](std::size_t idx) { return states_[idx].done; });
  return out;
}

}  // namespace monde::serve
