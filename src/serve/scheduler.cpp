#include "serve/scheduler.hpp"

#include <algorithm>
#include <utility>

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

void ContinuousBatchScheduler::push(const Request& rq, Duration at) {
  MONDE_REQUIRE(!sealed_, "scheduler is sealed; no further requests accepted");
  rq.validate();
  MONDE_REQUIRE(at >= rq.arrival,
                "request " << rq.id << " cannot join a queue before its trace arrival");
  const std::pair key{at, rq.id};
  MONDE_REQUIRE(!last_push_ || *last_push_ < key,
                "requests must be pushed in (arrival, id) order: request "
                    << rq.id << " after request " << last_push_->second);
  last_push_ = key;
  std::size_t idx = states_.size();
  if (free_.empty()) {
    states_.emplace_back();
  } else {
    idx = free_.back();
    free_.pop_back();
  }
  RequestState& rs = states_[idx];
  rs = RequestState{rq};
  rs.arrival = at;
  // A resumed request continues at its checkpointed decode depth; the first
  // token (if any surfaced before) keeps its original instant across
  // attempts -- the user already saw it.
  rs.generated = rq.resume.decoded;
  if (rq.resume.decoded > 0) rs.first_token = rq.resume.first_token;
  pending_.push_back(idx);
  ++live_;
  owed_tokens_ +=
      (rq.prompt_len - rq.resume.prefilled) + (rq.max_new_tokens - rq.resume.decoded);
}

void ContinuousBatchScheduler::seal() { sealed_ = true; }

bool ContinuousBatchScheduler::drained() const {
  return !has_pending() && queued_.empty() && active_.empty();
}

Duration ContinuousBatchScheduler::next_arrival() const {
  return has_pending() ? states_[pending_[pending_head_]].arrival : Duration::infinite();
}

void ContinuousBatchScheduler::release_arrivals(Duration now) {
  while (has_pending() && states_[pending_[pending_head_]].arrival <= now) {
    queued_.push_back(pending_[pending_head_++]);
  }
  // Erasing the released prefix only once it is half the vector keeps the
  // shift amortized O(1) per request.
  if (2 * pending_head_ >= pending_.size()) {
    pending_.erase(pending_.begin(), pending_.begin() + static_cast<std::ptrdiff_t>(pending_head_));
    pending_head_ = 0;
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
      (has_pending() || !sealed_)) {
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
         (!has_pending() && sealed_);
}

const std::vector<core::DecodeSlot>& ContinuousBatchScheduler::slots() {
  slots_.clear();
  for (const std::size_t idx : active_) {
    const RequestState& rs = states_[idx];
    slots_.push_back({rs.request.id, rs.generated, rs.request.prompt_len});
  }
  return slots_;
}

const std::vector<moe::MoeLayerWork>& ContinuousBatchScheduler::step_works(
    moe::WorkloadGenerator& gen) {
  MONDE_REQUIRE(!active_.empty(), "no active requests to route");
  gen.reset_decoder_works(works_);
  for (const std::size_t idx : active_) {
    const RequestState& rs = states_[idx];
    gen.add_decoder_step(rs.request.id, rs.generated, 1, works_);
  }
  return works_;
}

std::vector<Duration> ContinuousBatchScheduler::waiting_arrivals() const {
  std::vector<Duration> out;
  out.reserve(pending_.size() - pending_head_ + queued_.size());
  for (std::size_t i = pending_head_; i < pending_.size(); ++i) {
    out.push_back(states_[pending_[i]].arrival);
  }
  for (const std::size_t idx : queued_) out.push_back(states_[idx].arrival);
  return out;
}

std::vector<std::size_t> ContinuousBatchScheduler::in_push_order(
    std::vector<std::size_t> slots) const {
  std::sort(slots.begin(), slots.end(), [this](std::size_t a, std::size_t b) {
    const RequestState& x = states_[a];
    const RequestState& y = states_[b];
    return x.arrival != y.arrival ? x.arrival < y.arrival : x.request.id < y.request.id;
  });
  return slots;
}

Request ContinuousBatchScheduler::checkpointed(const RequestState& rs) {
  Request rq = rs.request;
  rq.resume.prefilled = rq.prompt_len;
  rq.resume.decoded = rs.generated;
  rq.resume.first_token = rs.first_token;
  return rq;
}

std::vector<Request> ContinuousBatchScheduler::abort_unfinished() {
  std::vector<std::size_t> unfinished;
  const auto collect = [&](std::size_t idx) {
    if (!states_[idx].done) unfinished.push_back(idx);  // done: a padded fixed-mode slot
  };
  for (std::size_t i = pending_head_; i < pending_.size(); ++i) collect(pending_[i]);
  for (const std::size_t idx : queued_) collect(idx);
  for (const std::size_t idx : active_) collect(idx);
  std::vector<Request> stranded;
  stranded.reserve(unfinished.size());
  for (const std::size_t idx : in_push_order(std::move(unfinished))) {
    const RequestState& rs = states_[idx];
    // Checkpointed progress: an applied step since admission means the
    // whole prompt and `generated` decode tokens were resident at the last
    // completed step boundary. Anything short of that (waiting, or admitted
    // into a step whose completion never applied -- stranded mid-prefill)
    // keeps the resume state it arrived with. Whether the retry USES the
    // annotation is the cluster's cache-survival policy.
    stranded.push_back(rs.generated > rs.request.resume.decoded ? checkpointed(rs)
                                                                 : rs.request);
  }
  // Completed requests keep their records; every slot goes.
  release_pool();
  queued_.clear();
  active_.clear();
  live_ = 0;
  owed_tokens_ = 0;
  sealed_ = true;  // an aborted replica never accepts again
  return stranded;
}

std::vector<Request> ContinuousBatchScheduler::release_prefilled() {
  std::vector<std::size_t> releasable;
  for (const std::size_t idx : active_) {
    const RequestState& rs = states_[idx];
    // Only requests whose admission step has completed are releasable: the
    // step advanced their decode depth past what they arrived with, which is
    // the same signal abort_unfinished() keys its checkpoint annotation on.
    if (!rs.done && rs.generated > rs.request.resume.decoded) releasable.push_back(idx);
  }
  std::vector<Request> released;
  released.reserve(releasable.size());
  for (const std::size_t idx : in_push_order(std::move(releasable))) {
    RequestState& rs = states_[idx];
    released.push_back(checkpointed(rs));
    // Leaves the batch without a record: the request finishes (and reports)
    // on the decode replica. Only the tokens decoded here count.
    rs.done = true;
    --live_;
    owed_tokens_ -= rs.request.max_new_tokens - rs.generated;
    credited_tokens_ += static_cast<std::uint64_t>(rs.generated - rs.request.resume.decoded);
  }
  retire_done();
  return released;
}

void ContinuousBatchScheduler::finish(RequestState& rs, Duration end) {
  rs.done = true;
  --live_;
  const Request& rq = rs.request;
  credited_tokens_ += static_cast<std::uint64_t>(rs.generated - rq.resume.decoded);
  records_.push_back({.id = rq.id,
                      .attempt = rq.attempt,
                      .prompt_len = rq.prompt_len,
                      .generated = rs.generated,
                      .saved_tokens = rs.saved_tokens,
                      .resumed_tokens = rq.resume.decoded,
                      .arrival = rs.arrival,
                      .trace_arrival = rq.arrival,
                      .admitted = rs.admitted,
                      .first_token = rs.first_token,
                      .completion = end});
}

void ContinuousBatchScheduler::release_pool() {
  // Move-assigning an empty vector frees the storage; `v = {}` would pick
  // the initializer-list assignment and keep the capacity.
  states_ = std::vector<RequestState>{};
  free_ = std::vector<std::size_t>{};
  pending_ = std::vector<std::size_t>{};
  pending_head_ = 0;
}

void ContinuousBatchScheduler::retire_done() {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const std::size_t idx = active_[i];
    if (states_[idx].done) {
      free_.push_back(idx);
    } else {
      active_[kept++] = idx;
    }
  }
  active_.resize(kept);
}

std::vector<RequestMetrics> ContinuousBatchScheduler::take_records() {
  MONDE_REQUIRE(drained(), "take_records() before the scheduler drained");
  // Drained, every slot is free: hand the pool back before the caller
  // builds anything from the records.
  release_pool();
  // Push order is (queue-join instant, id) order, and those keys are unique.
  std::sort(records_.begin(), records_.end(), arrival_order<RequestMetrics>);
  records_.shrink_to_fit();
  return std::exchange(records_, {});
}

const StepOutcome& ContinuousBatchScheduler::complete_step(Duration end) {
  StepOutcome& out = outcome_;
  out.advanced.clear();
  out.finished.clear();
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
      finish(rs, end);
      out.finished.push_back(rs.request.id);
    }
    all_done = all_done && rs.done;
  }
  // Padded fixed-mode slots keep running until the whole batch drains.
  if (cfg_.mode != BatchingMode::kFixed || all_done) retire_done();
  return out;
}

}  // namespace monde::serve
