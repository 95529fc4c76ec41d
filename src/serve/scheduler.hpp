// Request admission and batch composition for the serving simulator.
//
// The scheduler owns the request lifecycle (pending -> queued -> active ->
// done) and decides, at every step boundary, which queued requests join the
// shared decode batch:
//
//   * kContinuous -- requests are admitted as soon as the per-step token
//     budget (prefill tokens admitted this step + one decode token per
//     active slot) allows, and leave the batch the moment they finish. This
//     is vLLM/Orca-style continuous batching. Admission order is FIFO by
//     default; `size_aware_admission` switches to fewest-remaining-tokens
//     first (the cluster's least-outstanding-tokens signal applied inside
//     the replica), with a bypass cap as a starvation guard. On a bimodal
//     long/short mix it cuts median TTFT several-fold at a bounded p99
//     cost; bench/serve_cluster_policies fails if it stops doing so.
//   * kFixed -- the classic baseline: requests are grouped into fixed-size
//     batches; a batch is admitted only when the previous one fully drains,
//     and finished requests keep occupying padded slots until the whole
//     batch completes.
//
// Prefix-cache integration: a request may carry resumed progress
// (Request::resume -- prompt tokens already prefilled elsewhere, decode
// tokens already generated) and the server may register a prefill-discount
// hook (the prefix cache's shared-prefix lookup). Both shrink the prefill
// the admission budget charges for; the discount actually applied is frozen
// into RequestState::saved_tokens at admission so the server prices the
// step with exactly the tokens admission budgeted.
//
// Memory follows in-flight work, not trace length: a request holds one slot
// of a recycled state pool from push() until it completes, is handed off or
// is aborted; a completed request leaves only its 88-B RequestMetrics
// record, which take_records() hands over in push order.
//
// Requests enter one at a time through push(), in (queue-join instant, id)
// order; seal() declares that no further requests will arrive, which is
// what lets the fixed-mode batch-fill wait distinguish "more arrivals are
// due" from "the trace is exhausted".
//
// The scheduler also merges the per-request, step-indexed gating draws from
// moe::WorkloadGenerator into the per-layer MoeLayerWork a shared decode
// step executes, which is what makes per-request routing (and therefore
// latency) independent of admission order.
//
// Units: every quantity named *_tokens / *_budget / *_batch counts tokens
// (or decode slots, which consume one token of budget each); every instant
// or span is a `Duration` of simulated time (nanosecond-resolution double --
// DRAM-level cycle counts never surface here, the engine converts them).
// The scheduler owns no hardware state: it can be driven standalone with
// hand-written complete_step() times, which is how its unit tests run.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "moe/workload.hpp"
#include "serve/request.hpp"

namespace monde::serve {

enum class BatchingMode {
  kFixed,       ///< fixed-size batches, padded until the whole batch drains
  kContinuous,  ///< per-step join/leave under a token budget
};

[[nodiscard]] std::string to_string(BatchingMode mode);

/// Starvation guard for size-aware admission: a queued request that has
/// seen junior (later-arrived) peers admitted past it this many times is
/// admitted before any of them (its next fitting step takes it first).
inline constexpr std::int64_t kAdmissionBypassLimit = 8;

/// Batch size for kFixed; must not exceed the token budget so the two modes
/// are comparable under one config.
inline constexpr std::int64_t kFixedBatch = 8;

struct SchedulerConfig {
  BatchingMode mode = BatchingMode::kContinuous;
  /// Per-step token cap for continuous batching: prompt tokens prefilled in
  /// the step plus one decode token per active slot. A request whose prompt
  /// alone exceeds the budget is admitted once the server is otherwise empty
  /// (it can never fit, and starving it forever would deadlock the queue).
  std::int64_t token_budget = 256;
  /// Continuous-mode admission order: false = FIFO (the classic behavior),
  /// true = fewest-remaining-tokens first, so short requests slip past a
  /// head-of-line giant instead of queueing behind it (shortest-job-first
  /// under the step budget, guarded by kAdmissionBypassLimit).
  bool size_aware_admission = false;

  void validate() const;
};

/// A request plus its serving-lifecycle bookkeeping: one slot of the
/// scheduler's state pool, held from push() until the request completes, is
/// handed off or is aborted, then recycled. The request's decode depth IS
/// its generated count: padded fixed-mode slots surface no tokens and so
/// stay frozen at their final depth. A resumed request starts with
/// `generated = resume.decoded` (its decode depth carries over) and keeps
/// the original attempt's `first_token`.
struct RequestState {
  Request request;
  std::int64_t generated = 0;  ///< tokens produced across attempts (= decode depth)
  std::int64_t saved_tokens = 0;  ///< prefill tokens skipped at admission
  /// Completed or released. A completed fixed-mode slot keeps padding the
  /// batch until the whole batch drains.
  bool done = false;
  std::int64_t bypassed = 0;   ///< size-aware admissions that skipped past this
  Duration arrival = Duration::zero();  ///< when it joined this queue (see push())
  Duration admitted = Duration::zero();
  Duration first_token = Duration::zero();
};

/// What one completed step did to the batch, for residency layers above
/// (the server feeds its prefix cache from this).
struct StepOutcome {
  std::vector<std::uint64_t> advanced;  ///< requests that surfaced a token
  std::vector<std::uint64_t> finished;  ///< subset that completed
};

/// Admission control + batch composition over one request trace.
class ContinuousBatchScheduler {
 public:
  /// Prompt tokens of a request that need no prefill here (the prefix
  /// cache's lookup). Must be pure w.r.t. the scheduler and stay in
  /// [resume.prefilled, prompt_len].
  using PrefillDiscount = std::function<std::int64_t(const Request&)>;

  explicit ContinuousBatchScheduler(SchedulerConfig cfg);

  /// Register the prefill-discount hook. Without one, a request's discount
  /// is its own `resume.prefilled`.
  void set_prefill_discount(PrefillDiscount fn) { discount_ = std::move(fn); }

  /// Append one request joining the queue at `at` -- its trace arrival, or
  /// for a re-dispatch the later instant the cluster re-dispatched it.
  /// Pushes must come in (at, id) order -- the order a trace replay or a
  /// cluster dispatcher naturally produces.
  void push(const Request& rq, Duration at);
  /// push() at the request's trace arrival.
  void push(const Request& rq) { push(rq, rq.arrival); }

  /// Declare that no further push() will happen. Fixed-mode admission may
  /// then stop holding under-full batches for arrivals that never come.
  void seal();

  /// Every accepted request has been fully served (vacuously true when no
  /// request was ever pushed).
  [[nodiscard]] bool drained() const;

  /// Arrival time of the next not-yet-released request (infinite if none).
  [[nodiscard]] Duration next_arrival() const;

  /// Move every request with arrival <= now from pending into the queue.
  void release_arrivals(Duration now);

  /// Admit queued requests into the active batch per the configured policy.
  /// Returns the newly admitted requests (they still need their prefill).
  std::vector<RequestState*> admit();

  /// The active decode batch (admission order), as indices into states().
  [[nodiscard]] const std::vector<std::size_t>& active() const { return active_; }
  /// The state pool. A slot is recycled once its request completes, is
  /// handed off or is aborted, so the pool's size is the most requests the
  /// scheduler ever held at once, not the trace length. Empty after
  /// take_records() or abort_unfinished().
  [[nodiscard]] const std::vector<RequestState>& states() const { return states_; }

  /// One record per completed request, in completion order; a handed-off
  /// or aborted request leaves none (it reports where it finishes).
  [[nodiscard]] const std::vector<RequestMetrics>& records() const { return records_; }

  /// The records in push order, moved out. Requires drained(); the
  /// scheduler keeps no records afterwards and releases its state pool.
  [[nodiscard]] std::vector<RequestMetrics> take_records();

  /// Tokens decoded here by requests that completed here or were handed off
  /// (a resumed request's carried-in tokens are not counted; an aborted
  /// request's are not credited either -- they are redone or carried on).
  [[nodiscard]] std::uint64_t credited_tokens() const { return credited_tokens_; }

  /// Would a step run right now? True when a batch is in flight, or when
  /// admit() would accept at least one queued request (fixed mode holds an
  /// under-full batch while more arrivals may come; continuous admission
  /// always accepts a non-empty queue on an idle server).
  [[nodiscard]] bool step_ready() const;

  /// Accepted-but-unfinished requests (pending + queued + active non-done
  /// slots): the queue-depth signal a cluster dispatcher balances on.
  /// O(1) -- a dispatcher snapshots every replica at every arrival.
  [[nodiscard]] std::size_t in_flight() const { return live_; }

  /// Arrival times of every accepted request still waiting for admission
  /// (pending release or queued). The cluster's autoscaler derives its
  /// queue-delay pressure signal (now - arrival, per waiting request) from
  /// this. O(waiting).
  [[nodiscard]] std::vector<Duration> waiting_arrivals() const;

  /// Tokens of work still owed to accepted requests: un-prefilled prompt
  /// tokens plus the remaining decode budget. The size-aware load signal.
  /// O(1), maintained across push/admit/complete_step.
  [[nodiscard]] std::int64_t outstanding_tokens() const { return owed_tokens_; }

  /// One DecodeSlot per active request (its id, depth, and prompt context).
  /// In fixed mode a finished request keeps its padded slot at its final
  /// depth until the whole batch drains (its KV cache stops growing). The
  /// list lives in storage reused by the next call.
  [[nodiscard]] const std::vector<core::DecodeSlot>& slots();

  /// Per-request gating draws for the upcoming step, summed over the active
  /// batch into one MoeLayerWork per decoder MoE layer: merge_layer_works()
  /// of their decoder_step_for() draws, routed in place into storage reused
  /// by the next call.
  [[nodiscard]] const std::vector<moe::MoeLayerWork>& step_works(moe::WorkloadGenerator& gen);

  /// Account one finished decode step ending at `end`: advance depths,
  /// record first-token/completion times, and retire finished requests
  /// (immediately in continuous mode, batch-at-once in fixed mode). The
  /// outcome lists which requests advanced/finished, for the server's
  /// cache residency bookkeeping, in storage reused by the next call.
  const StepOutcome& complete_step(Duration end);

  /// Fail-stop / evacuation support: remove every accepted-but-unfinished
  /// request (pending, queued, or active) and return the original Requests,
  /// in push order, each annotated with its checkpointed progress
  /// (Request::resume): an admitted request whose admission step completed
  /// has its full prompt and `generated` tokens resident; anything else
  /// keeps the resume state it arrived with. Whether a retry may *use* the
  /// annotation is the cluster's policy (surviving- vs lost-cache).
  /// Completed requests keep their metrics and the scheduler is left
  /// drained; push() must not be called afterwards.
  std::vector<Request> abort_unfinished();

  /// Disaggregated-serving support: release every active request whose
  /// admission step has completed (its prompt is fully resident and at least
  /// one decode token surfaced) for handoff to a decode replica. Returns the
  /// original Requests in push order, each annotated with its
  /// checkpointed progress exactly like abort_unfinished(); the released
  /// slots are recycled and no record is kept (their metrics finish on the
  /// decode replica). Unlike abort_unfinished() the scheduler keeps
  /// serving: queued and pending requests are untouched and push() stays
  /// legal.
  std::vector<Request> release_prefilled();

 private:
  /// Admission helpers for the two continuous-mode orders.
  std::vector<RequestState*> admit_fixed();
  std::vector<RequestState*> admit_fifo();
  std::vector<RequestState*> admit_size_aware();
  /// Frozen discount + budget accounting for one admission (shared by every
  /// admission order; queue removal is the caller's).
  void mark_admitted(std::size_t idx, std::int64_t saved,
                     std::vector<RequestState*>& newly);
  /// mark_admitted() plus popping the FIFO head (the fixed/FIFO orders).
  void take_front(std::int64_t saved, std::vector<RequestState*>& newly);
  [[nodiscard]] std::int64_t discount_for(const Request& rq) const;
  [[nodiscard]] bool has_pending() const { return pending_head_ < pending_.size(); }
  /// Slot indices sorted by push order.
  [[nodiscard]] std::vector<std::size_t> in_push_order(std::vector<std::size_t> slots) const;
  /// `rs`'s request annotated with its progress at the last completed step:
  /// the whole prompt resident and `generated` tokens decoded.
  [[nodiscard]] static Request checkpointed(const RequestState& rs);
  /// Mark `rs` done at `end` and append its record.
  void finish(RequestState& rs, Duration end);
  /// Drop done requests from the batch and recycle their slots.
  void retire_done();
  /// Free the state pool and the pending list (every slot must be free).
  void release_pool();

  SchedulerConfig cfg_;
  PrefillDiscount discount_;
  std::vector<RequestState> states_;   ///< slot pool (see states())
  std::vector<std::size_t> free_;      ///< recycled slots of states_
  std::vector<RequestMetrics> records_;  ///< see records()
  /// (queue-join instant, id) of the latest push, for push()'s order check.
  std::optional<std::pair<Duration, std::uint64_t>> last_push_;
  /// Pushed but not yet arrived, in push order from pending_head_ on; the
  /// released prefix is erased once it is at least half the vector.
  std::vector<std::size_t> pending_;
  std::size_t pending_head_ = 0;
  std::deque<std::size_t> queued_;    ///< arrived, awaiting admission (FIFO)
  std::vector<std::size_t> active_;   ///< in the decode batch
  std::vector<core::DecodeSlot> slots_;   ///< slots()'s reused storage
  std::vector<moe::MoeLayerWork> works_;  ///< step_works()'s reused storage
  StepOutcome outcome_;                   ///< complete_step()'s reused storage
  bool sealed_ = false;               ///< no further push() calls
  std::size_t live_ = 0;              ///< accepted, not yet done
  std::int64_t owed_tokens_ = 0;      ///< un-prefilled prompt + remaining decode
  std::uint64_t credited_tokens_ = 0;  ///< see credited_tokens()
};

}  // namespace monde::serve
