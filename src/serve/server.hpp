// The serving simulator: a request trace in, per-request latency and
// aggregate throughput out.
//
// ServerSim drives the engine's step primitives under a batching scheduler.
// It exposes an incremental event API so a cluster of replicas can be
// interleaved in simulated time by an outside driver (serve/cluster.hpp):
//
//   enqueue(rq, at)   hand the server one request; it lands in this
//                     server's queue at `at` (its trace arrival by default,
//                     a later instant for a re-dispatch);
//   advance_to(t)     run every scheduler step that starts strictly before
//                     t. A step that would start at or after t is deferred,
//                     because the caller may still enqueue arrivals in the
//                     gap; a step that starts before t runs to completion
//                     even if it ends after t (steps are atomic).
//   next_event_time() earliest time at which advance_to() would do work;
//   evacuate()        leave service: hand every unfinished request back,
//                     with its checkpoint, for re-dispatch elsewhere;
//   drain()           declare the trace complete and run everything left;
//   report()          per-request metrics + aggregates, after drain(); the
//                     step history and records move out with it.
//
// The classic one-shot run(trace) is a thin wrapper: enqueue the sorted
// trace, drain, report. Queue-state accessors (in_flight(),
// outstanding_tokens()) expose the live load dispatch policies balance on;
// note they reflect the last completed step boundary, which may sit up to
// one step past the dispatcher's clock (steps are atomic).
//
// Steps execute eagerly (the engine prices the whole step when it starts)
// but their scheduler effects -- token counts, completions, retirements --
// are applied lazily, once the clock passes the step's end. A dispatcher
// advancing the server to an instant that falls inside a step therefore
// observes the queue as it stands mid-step, not the step's future outcome.
//
// Metric conventions (all measured from request arrival):
//
//   TTFT  time to first token  -- completion of the request's first decode
//         step (this simulator models encoder-decoder stacks, so the first
//         token lands one decode step after the prefill);
//   TPOT  time per output token -- (completion - first token) / (n - 1),
//         the steady-state decode cadence;
//   E2E   end-to-end latency    -- completion of the last token.
//
// Aggregate throughput is useful (non-padding) generated tokens divided by
// the simulated makespan.
//
// Replica lifecycle (cluster serving): a server may boot late (`start_at` --
// an autoscaled replica's cold-start: it accepts enqueues immediately but
// runs no step before `start_at`) and may carry a FaultSpec (fault.hpp). A
// slow-down fault stretches affected steps' spans about their start; a
// fail-stop freezes the server at `fail_at`, and the step in flight at the
// instant of death loses its effects. A replica leaves service one way:
// evacuate() hands its accepted-but-unfinished requests back to the cluster,
// annotated with their last-checkpointed progress -- a live (retiring)
// server first completes the step in flight, a dead one has nothing left
// to complete.
//
// Prefix/KV cache (kvcache.hpp): when enabled, an admitted request's
// prompt tokens already resident (its resumed prefix, or the shared prefix
// of its `prefix_id` group) skip the prefill, so the step prices only the
// un-cached tokens; per-step `cached_tokens` and the report's cache stats
// make the savings auditable. Disabled (the default), the server is
// bit-identical to the cache-less behavior.
//
// Units: token counts are tokens; all instants/spans are simulated-time
// `Duration`s (nanosecond-resolution doubles; cycle counts never surface at
// this layer). The engine reference passed to the constructor must outlive
// the server, and one engine must not be shared by two concurrently-driven
// servers (each run threads its own EngineState but draws from the engine's
// per-request workload streams).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "core/engine.hpp"
#include "core/expert_cache.hpp"
#include "interconnect/link.hpp"
#include "serve/expert.hpp"
#include "serve/fault.hpp"
#include "serve/kvcache.hpp"
#include "serve/scheduler.hpp"

namespace monde::serve {

/// What one scheduler step processed (for budget audits and utilization).
struct StepRecord {
  std::int64_t index = 0;
  Duration start = Duration::zero();
  Duration end = Duration::zero();
  std::int64_t prefill_tokens = 0;  ///< prompt tokens prefilled this step
  std::int64_t decode_tokens = 0;   ///< decode slots (incl. fixed-mode padding)
  std::int64_t cached_tokens = 0;   ///< prompt tokens served from the prefix cache
  std::int64_t expert_misses = 0;   ///< expert fetches priced into this step
  Duration expert_fetch = Duration::zero();  ///< fetch time added to the step span
  /// KV handoff shipments (disaggregated serving) charged to this step: the
  /// outbound DMA of the previous step's releases contends with compute, so
  /// the next step synchronizes on it -- same model as rebalance preloads.
  Duration handoff_ship = Duration::zero();
};

/// Everything one serving run produced.
struct ServeReport {
  std::string strategy;
  std::string mode;  ///< "fixed" or "continuous"
  std::vector<RequestMetrics> requests;
  std::vector<StepRecord> steps;
  Duration makespan = Duration::zero();
  Duration busy = Duration::zero();  ///< sum of step spans (utilization numerator)
  /// Tokens decoded BY THIS SERVER (a resumed request's carried-in tokens
  /// are credited to the replica that produced them, not re-counted here).
  std::uint64_t generated_tokens = 0;
  double tokens_per_s = 0.0;
  Percentiles ttft_ms;
  /// All-zero when no request generated more than one token (TPOT is
  /// undefined for single-token responses).
  Percentiles tpot_ms;
  Percentiles e2e_ms;
  PrefixCacheStats cache;  ///< prefix-cache counters (all-zero when disabled)
  // Expert residency (all-zero when expert-aware serving is disabled):
  std::uint64_t expert_hits = 0;    ///< profile experts found resident at step time
  std::uint64_t expert_misses = 0;  ///< profile experts fetched (priced into steps)
  double expert_hit_rate = 0.0;     ///< hits / (hits + misses), 0 with no accesses
  std::size_t resident_experts = 0; ///< experts hot at the end of the run
  // Disaggregated serving (all-zero unless this replica runs the prefill
  // role): prefill-complete releases handed to the decode pool. A handed-off
  // request does not appear in `requests` (it finishes on a decode replica);
  // only its locally decoded tokens count into generated_tokens.
  std::uint64_t handoffs = 0;              ///< requests released to decode replicas
  std::int64_t handoff_tokens = 0;         ///< KV tokens shipped with those releases
  Duration handoff_transfer = Duration::zero();  ///< summed handoff-link time
};

/// One prefill-complete release (disaggregated serving): the request leaves a
/// prefill replica annotated for checkpointed resume -- prompt fully
/// prefilled, decode progress and first-token instant carried along -- and
/// the cluster re-dispatches it to a decode replica once the KV frontier has
/// crossed the handoff link (at `release + transfer`).
struct HandoffRecord {
  Request request;
  Duration release = Duration::zero();   ///< step boundary of the release
  Duration transfer = Duration::zero();  ///< handoff-link span for the KV frontier
};

/// Drives one InferenceEngine through a request trace under one scheduler.
class ServerSim {
 public:
  /// `engine` must outlive the server and must not be driven by anything
  /// else concurrently. `start_at` is the boot instant (no step starts
  /// earlier; enqueues are accepted at any time); `fault` is the replica's
  /// fault plan -- a fail-stop must lie strictly after `start_at`; `cache`
  /// configures the replica's prefix/KV cache (disabled by default, which
  /// keeps the server bit-identical to the cache-less behavior); `expert`
  /// configures the replica's expert residency (serve/expert.hpp) -- also
  /// disabled by default with the same bit-identity guarantee. A
  /// `handoff_link` makes the replica a prefill specialist of disaggregated
  /// serving (serve/disagg.hpp): it releases every request at its
  /// admission-step boundary, shipping the KV frontier over that link,
  /// instead of decoding it to completion. The link must validate, and the
  /// role requires continuous batching (a fixed batch cannot release
  /// mid-batch).
  ServerSim(core::InferenceEngine& engine, SchedulerConfig cfg,
            Duration start_at = Duration::zero(), FaultSpec fault = {},
            PrefixCacheConfig cache = {}, ExpertServingConfig expert = {},
            std::optional<interconnect::LinkSpec> handoff_link = std::nullopt);

  // --- Incremental event API (what a cluster dispatcher drives) -----------

  /// Hand the server one request; it joins the queue at `at` (dispatch is
  /// zero-latency): its trace arrival, or a re-dispatch's later instant.
  /// Requests must arrive in (at, id) order, before drain(), and never
  /// after evacuate().
  void enqueue(const Request& rq, Duration at);
  /// enqueue() at the request's trace arrival.
  void enqueue(const Request& rq) { enqueue(rq, rq.arrival); }

  /// Run every scheduler step that starts strictly before `t`; idle gaps
  /// fast-forward through queued arrivals. See the file comment for the
  /// strict-before contract. Advancing to or past a fail-stop instant kills
  /// the server: the step in flight at death loses its effects and no
  /// further work ever runs. Advancing to a past timestamp is a no-op.
  void advance_to(Duration t);

  /// Earliest time at which advance_to() can do work: the current boundary
  /// when a step can run there (one in flight, or admission would fire),
  /// else the next queued arrival, else infinite -- the server then waits
  /// on enqueue()/drain() (e.g. a fixed-mode batch still filling). Because
  /// advance_to() is strict-before, pass a time strictly greater than this
  /// to run the work. O(1) and side-effect free, so a cluster driver may
  /// poll it freely.
  [[nodiscard]] Duration next_event_time() const;

  /// No further enqueue(): finish every request still in the system. On an
  /// empty queue this is a harmless no-op (the server reports zero
  /// requests). On a failed server every stranded request must have been
  /// evacuated first.
  void drain();

  /// End of the last completed step (the server's simulated clock); equals
  /// `start_at` until the first step runs, and freezes at the fail-stop
  /// instant once the server dies.
  [[nodiscard]] Duration now() const { return st_.now; }
  [[nodiscard]] bool drained() const { return sched_.drained(); }
  [[nodiscard]] Duration start_at() const { return start_at_; }
  [[nodiscard]] const FaultSpec& fault() const { return fault_; }

  /// The server reached its fail-stop instant and is permanently frozen.
  [[nodiscard]] bool failed() const { return failed_; }

  /// The replica leaves service: remove and return every accepted-but-
  /// unfinished request (in enqueue order) so the cluster can re-dispatch
  /// them, each annotated with its checkpointed progress (Request::resume).
  /// A live server stops at the current step boundary -- the step in flight
  /// completes and its effects are part of the checkpoint, unless a
  /// scheduled fail-stop lands inside it. On a dead server the checkpoint is
  /// the last step completed before the death. Whether a re-dispatch honors
  /// the checkpoint is the cluster's policy (migration, or the cache-survival
  /// mode of a fail-stop retry). Call at most once; enqueue() is invalid
  /// afterwards and drain()/report() then cover only completed requests.
  [[nodiscard]] std::vector<Request> evacuate();
  /// evacuate() already handed the unfinished work away.
  [[nodiscard]] bool evacuated() const { return evacuated_; }

  /// Live load, for dispatch decisions (see ContinuousBatchScheduler).
  /// Requests retired by a step still in flight at the last advance_to()
  /// instant are still counted (their completion lies in the future).
  [[nodiscard]] std::size_t in_flight() const { return sched_.in_flight(); }
  [[nodiscard]] std::int64_t outstanding_tokens() const {
    return sched_.outstanding_tokens();
  }

  /// Arrival times of accepted requests still awaiting admission (the
  /// autoscaler's queue-delay signal). O(waiting).
  [[nodiscard]] std::vector<Duration> waiting_arrivals() const {
    return sched_.waiting_arrivals();
  }

  /// Steps executed so far (including one whose completion is still
  /// pending); the cluster folds their spans into its health EWMA.
  [[nodiscard]] const std::vector<StepRecord>& steps() const { return steps_; }

  /// The request scheduler (its state pool and records), for inspection.
  [[nodiscard]] const ContinuousBatchScheduler& scheduler() const { return sched_; }

  /// The replica's expert residency (empty when expert serving is disabled).
  [[nodiscard]] const core::ExpertCache& expert_cache() const { return expert_cache_; }

  /// Compact residency summary for dispatch snapshots: the expert cache's
  /// 64-bit signature, 0 while nothing is resident (or serving disabled).
  [[nodiscard]] std::uint64_t expert_signature() const { return expert_cache_.signature(); }

  /// Compact shared-prefix residency for dispatch snapshots: the KV cache's
  /// 64-bit signature, 0 while no shared prefix is resident (or disabled).
  [[nodiscard]] std::uint64_t prefix_signature() const { return cache_.prefix_signature(); }

  /// Cross-replica rebalancing entry point: make `ids` resident, evicting
  /// LRU experts as needed. Each newly fetched expert's transfer time is
  /// accumulated and charged to the NEXT step this replica runs (the
  /// preload rides the link while the replica keeps serving; the step that
  /// wants the weights synchronizes on them). Returns the number fetched;
  /// a no-op on a failed/evacuated server or with expert serving disabled.
  std::size_t preload_experts(const std::vector<core::ExpertId>& ids);

  /// Drain the buffered prefill-complete releases, in release order: those
  /// of every step completion applied so far (by advance_to(), evacuate() or
  /// drain()). Prefill specialists only.
  [[nodiscard]] std::vector<HandoffRecord> take_handoffs();

  /// Metrics for everything served so far. Requires drained(). The step
  /// history and the per-request records move into the report, so call it
  /// once; steps() is empty afterwards.
  [[nodiscard]] ServeReport report();

  // --- One-shot entry point ------------------------------------------------

  /// Simulate the whole trace to completion on a fresh server: enqueue it in
  /// (arrival, id) order, drain, report. Deterministic given the engine's
  /// seed and the trace. Throws on an empty trace or a used server.
  [[nodiscard]] ServeReport run(std::vector<Request> trace);

 private:
  /// Prefill `newly`, run one shared decode step, account it. The step's
  /// scheduler completion is deferred until the clock passes its end.
  void step(const std::vector<RequestState*>& newly);

  /// Apply the deferred complete_step() of the last executed step.
  void apply_pending_completion();

  /// Freeze at the fail-stop instant: apply a pending completion that
  /// landed in time, discard one that did not, clamp the clock.
  void fail_now();

  /// Departure eviction at evacuation: the in-flight requests (the
  /// active, not-done slots) take their expert demand with them, so every
  /// expert of their profiles leaves the cache and re-homes on whichever
  /// replica the cluster re-dispatches them to. Completing and handed-off
  /// requests leave their experts warm; nothing protects an expert from
  /// ordinary LRU pressure. Call before abort_unfinished() empties the
  /// batch.
  void evict_in_flight_experts();

  core::InferenceEngine& engine_;
  SchedulerConfig cfg_;
  ContinuousBatchScheduler sched_;
  core::EngineState st_;
  Duration start_at_ = Duration::zero();
  FaultSpec fault_;
  KvCache cache_;
  ExpertServingConfig expert_;
  core::ExpertCache expert_cache_;  ///< capacity 0 (inert) when disabled
  Duration expert_fetch_time_ = Duration::zero();  ///< per-expert miss cost
  Duration pending_preload_ = Duration::zero();    ///< rebalance fetches awaiting a step
  // Disaggregated serving (inert unless a prefill specialist):
  std::optional<interconnect::LinkSpec> handoff_link_;
  std::vector<HandoffRecord> handoffs_out_;  ///< releases awaiting take_handoffs()
  Duration pending_handoff_ship_ = Duration::zero();  ///< DMA time awaiting a step
  std::uint64_t handoff_count_ = 0;
  std::int64_t handoff_tokens_ = 0;
  Duration handoff_transfer_ = Duration::zero();
  /// Admissions of the in-flight step, held back until its completion
  /// applies: a fail-stop that discards the step must not credit the cache
  /// with hits (or pin state) for work that died with the node.
  std::vector<std::pair<Request, std::int64_t>> pending_admits_;
  std::vector<StepRecord> steps_;
  Duration busy_ = Duration::zero();
  bool completion_pending_ = false;     ///< the last step's effects not yet applied
  Duration pending_end_ = Duration::zero();
  bool failed_ = false;     ///< fail-stop instant reached; frozen forever
  bool evacuated_ = false;  ///< unfinished requests already handed back
  bool reported_ = false;   ///< report() moved the history out
};

}  // namespace monde::serve
