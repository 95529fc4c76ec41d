// Multi-replica cluster serving: an elastic fleet of replica servers behind
// one health-checked dispatcher.
//
// The paper argues MoNDE makes sparse-MoE serving cost-effective per node;
// a production deployment then scales out by putting a fleet of such nodes
// behind a load balancer. ClusterSim models exactly that: each replica is a
// full ServerSim (its own InferenceEngine, expert-execution strategy,
// scheduler, and routing seed -- replicas may be heterogeneous, e.g. some
// MD+LB and some GPU+PM), and a pluggable Dispatcher (dispatch.hpp) routes
// every request at its arrival instant against the replicas' live queue
// state. Replicas are interleaved in simulated time through ServerSim's
// incremental event API: before each dispatch decision every replica with
// work before the arrival instant is advanced to it, so the snapshots the
// policy sees reflect every completion up to that point.
//
// The fleet is elastic and failure-aware:
//
//   * Autoscaling -- pass an Autoscaler (autoscale.hpp) to run() and the
//     fleet is resized against queue pressure at a fixed evaluation cadence.
//     Scale-ups spawn replicas of `growth` (default: specs[0], faults
//     cleared) with a modelled cold start: the new replica accepts and
//     queues requests immediately but runs no step until spawn + warmup.
//     Scale-downs retire the accepting replica owing the fewest tokens; it
//     drains its queue and then idles, excluded from dispatch.
//   * Failure injection -- each ReplicaSpec may carry a FaultSpec
//     (fault.hpp): fail-stop at an instant, or a slow-down window priced
//     through ServerSim's steps. Fail-stop detection is heartbeat-based:
//     the dispatcher keeps feeding a dead replica until its heartbeat goes
//     stale, then the replica is excluded permanently and its stranded
//     requests are re-dispatched after kRetryTimeout (fleet metrics stay
//     keyed to the original arrival, so the loss lands in the tail).
//   * Prefix caching -- with ClusterConfig::cache enabled, shared prompt
//     prefixes skip their prefill, fail-stop retries may resume from the
//     last checkpointed step, and retirement may live-migrate a retiree's
//     unfinished requests, both priced per resident KV token.
//
// With no autoscaler, no faults, and the cache disabled, run() is the
// classic dispatch loop -- pinned bit-identical by tests/test_cluster.cpp.
//
// Structure: run() is a short loop over one object per cluster concern --
// failure recovery, elasticity, the expert rebalance tick and dispatch --
// each owning its state and its next instant; the loop fires the earliest
// (ties in that order), unless the disaggregated prefill pool's next event
// is earlier, in which case the pool alone runs ahead. All of them advance
// replicas through one batch-advance-and-commit path over a FleetView: the
// indexed event calendar (a lazy-deletion min-heap keyed (time, replica),
// fail-stop and detection cursors, an accepting-snapshot index written
// through at each mutation) or the scan-everything reference loop
// (ClusterConfig::reference_loop), the oracle the diff tests pin the
// calendar against. Arrivals may stream lazily from an ArrivalStream, so a
// million-request trace is never materialized. See ARCHITECTURE.md's "Run
// structure".
//
// Parallelism: with ClusterConfig::threads > 1 each advancement batch fans
// out to a common::TaskPool. Replica servers share only the NdpCoreSim,
// whose shape memo is one mutex-guarded map with canonical values; the
// per-replica write-backs then commit sequentially in ascending replica
// order, so runs are bit-identical across thread counts (pinned by
// tests/test_calendar_diff.cpp at 1-8 threads).
//
// The report carries per-replica ServeReports and fleet-wide aggregates:
// latency percentiles over the union of all requests (re-based to original
// arrivals), total tokens/s over the fleet makespan, alive-time-weighted
// per-replica and fleet utilization, a max-over-mean busy-time imbalance
// factor (1.0 = perfectly balanced), and the scaling/failure event log.
//
// Ownership: ClusterSim copies the platform/model/profile configuration and
// owns every replica's engine and server. All replicas (including ones
// spawned mid-run) share one NdpCoreSim so expert-shape latencies memoize
// across the fleet; the shared_ptr keeps it alive for the cluster's
// lifetime, and the sharing is timing-neutral (see test_fastpath_diff).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "moe/workload.hpp"
#include "serve/arrivals.hpp"
#include "serve/autoscale.hpp"
#include "serve/disagg.hpp"
#include "serve/dispatch.hpp"
#include "serve/expert.hpp"
#include "serve/server.hpp"

namespace monde::serve {

/// What distinguishes one replica from another. The platform (SystemConfig),
/// model, and skew profile are cluster-wide; strategy, scheduler, routing
/// seed, and fault plan are per replica.
struct ReplicaSpec {
  core::StrategyKind strategy = core::StrategyKind::kMondeLoadBalanced;
  SchedulerConfig sched;
  std::uint64_t seed = 42;  ///< workload-routing seed; give replicas distinct seeds
  FaultSpec fault;          ///< injected fault plan (default: healthy)
};

/// Homogeneous fleet helper: `n` replicas of one strategy/scheduler with
/// seeds seed0, seed0+1, ... (distinct seeds decorrelate the replicas'
/// routing draws, as distinct traffic would).
[[nodiscard]] std::vector<ReplicaSpec> uniform_fleet(std::size_t n,
                                                     core::StrategyKind strategy,
                                                     SchedulerConfig sched,
                                                     std::uint64_t seed0 = 1);

/// Delay between detecting a replica failure and re-dispatching its
/// stranded requests (the client/LB retry backoff).
inline constexpr Duration kRetryTimeout = Duration::millis(2);

/// Cluster-wide behavior knobs (health checking, elasticity, prefix
/// caching). The defaults are inert for a fault-free, autoscaler-less run.
struct ClusterConfig {
  HealthConfig health;
  /// Cold-start span of an autoscaled replica: it accepts requests from the
  /// spawn instant but runs no step until spawn + warmup (expert placement).
  Duration warmup = Duration::millis(10);
  /// Autoscaler evaluation cadence: ticks at k * period while arrivals or
  /// retries remain, and keeps ticking through the drain phase while any
  /// replica still holds work -- drain-phase ticks may only scale DOWN
  /// (spawning capacity no arrival will ever reach is pure waste), which is
  /// what lets late scale-downs release idle replicas before the fleet
  /// makespan bills them.
  Duration autoscale_period = Duration::millis(5);
  /// Per-replica prefix/KV cache (kvcache.hpp). Disabled by default, which
  /// pins the cache-less behavior bit-identically. When enabled it also
  /// governs re-dispatch: `survive_failstop` resumes fail-stop retries from
  /// the last checkpoint, and `migrate_on_retire` live-migrates a retiring
  /// replica's unfinished requests -- both priced at the configured
  /// transfer cost per resident token.
  PrefixCacheConfig cache;
  /// Expert-aware serving (serve/expert.hpp). Disabled by default, which
  /// pins the expert-oblivious behavior bit-identically. When enabled,
  /// every dispatched request gets an ExpertProfile from a cluster-level
  /// profiling WorkloadGenerator (seeded by `expert.profile_seed`), every
  /// replica prices expert-miss fetches into its steps, gating-aware
  /// dispatchers read the residency signatures, hot experts are rebalanced
  /// across the fleet at `expert.rebalance_period`, and the pruned-expert
  /// degraded mode truncates profiles dispatched onto overloaded replicas.
  ExpertServingConfig expert;
  /// Disaggregated prefill/decode serving (serve/disagg.hpp). Disabled by
  /// default, which pins the unified-fleet behavior bit-identically. When
  /// enabled, boot replicas [0, disagg.prefill_replicas) take the prefill
  /// role, their servers built with `disagg.handoff_link`: new arrivals are
  /// dispatched to the prefill pool only; the moment a request's prefill
  /// completes it is handed off -- its KV frontier ships over that link,
  /// priced per resident token -- and re-enters dispatch as a checkpointed
  /// resume routed to the decode pool (Request::decode_phase()). Autoscaling
  /// grows the pool furthest below its boot share and never retires a
  /// pool's last member; a decode replica's fail-stop re-homes its in-flight
  /// handoffs within the decode pool when the checkpoint survives
  /// (ClusterConfig::cache). Requires continuous batching on every replica.
  DisaggConfig disagg;
  /// Measure per-phase wall-clock (advance / dispatch / commit) into the
  /// report's phase_*_s fields, for the perf-trend dashboard: the
  /// advancement phase parallelizes across threads while dispatch and
  /// commit stay sequential, and these counters show which dominates.
  /// Off by default -- the steady_clock reads are pure overhead otherwise.
  /// Simulated results are identical either way.
  bool measure_phases = false;
  /// Record the scaling/failure timeline (ClusterReport::events), detail
  /// strings included. Off, events are not built at all -- the counters
  /// (retries, migrations, peak_replicas) and every other report field are
  /// unaffected -- which large sweeps (bench/serve_scale) want: the detail
  /// strings are pure allocation cost when nobody reads them.
  bool event_log_enabled = true;
  /// Run the classic O(replicas)-per-event loop instead of the indexed
  /// event calendar. The two are bit-identical (pinned by
  /// tests/test_calendar_diff.cpp); the reference loop is the oracle those
  /// diff tests check the calendar against.
  bool reference_loop = false;
  /// Worker threads for the parallel advancement phase (the calling thread
  /// counts, so 1 = fully sequential, no worker thread, no behavior risk). Results
  /// are bit-identical across thread counts (see the file comment); only
  /// wall-clock changes. Ignored by the reference loop, which stays
  /// single-threaded by design.
  std::size_t threads = 1;

  void validate() const;
};

/// One entry of the cluster's scaling/failure timeline.
struct ClusterEvent {
  enum class Kind {
    kScaleUp,          ///< autoscaler spawned a replica (warm-up begins)
    kScaleDown,        ///< autoscaler retired a replica (drains, then idles)
    kFailStop,         ///< a replica died (recorded at the instant of death)
    kFailureDetected,  ///< heartbeat monitor declared it dead; evacuate + retry
    kRetry,            ///< a stranded request was re-dispatched
    kMigrate,          ///< an evacuated request landed on its new replica
    kExpertRebalance,  ///< hot experts preloaded across the fleet
    kHandoff,          ///< a prefilled request's KV landed on a decode replica
  };
  Kind kind{};
  Duration time = Duration::zero();
  std::size_t replica = 0;  ///< replica index the event concerns
  std::string detail;
};

[[nodiscard]] std::string to_string(ClusterEvent::Kind kind);

/// One replica's slice of a cluster run.
struct ReplicaReport {
  std::string name;  ///< "replica<i> (<strategy>)"
  ServeReport serve;
  std::size_t dispatched = 0;  ///< requests this replica received (incl. retries)
  Duration spawned_at = Duration::zero();  ///< 0 for boot replicas
  /// End of the replica's alive (provisioned) window: its fail-stop
  /// instant; for a retired replica the later of the retirement decision
  /// and its drain completion (after which the capacity is released); else
  /// the fleet makespan. Utilization is busy time over
  /// [spawned_at, alive_until] -- weighting by the alive window keeps
  /// autoscaled, retired, or failed replicas comparable to ones that lived
  /// the whole run, and makes replica_seconds credit scale-downs.
  Duration alive_until = Duration::zero();
  double utilization = 0.0;
  bool failed = false;   ///< hit its fail-stop instant
  bool retired = false;  ///< scaled down (drained its queue, then idled)
};

/// Everything one cluster run produced.
struct ClusterReport {
  std::string policy;
  std::string autoscaler;  ///< empty when autoscaling was off
  std::vector<ReplicaReport> replicas;
  /// Fleet-wide union of every completed request's metrics, in (arrival,
  /// id) order with arrivals re-based to the input trace (so a retried
  /// request's latency spans its failures). Exactly a permutation of the
  /// input trace's ids.
  std::vector<RequestMetrics> requests;
  Duration makespan = Duration::zero();  ///< latest replica completion
  std::uint64_t generated_tokens = 0;
  double tokens_per_s = 0.0;
  Percentiles ttft_ms;
  Percentiles tpot_ms;  ///< all-zero when no request generated > 1 token
  Percentiles e2e_ms;
  /// Max-over-mean of per-replica busy time: 1.0 = perfectly balanced.
  double imbalance = 0.0;
  /// Sum of busy time over sum of alive windows: the fleet's useful
  /// occupancy of the capacity it actually paid for.
  double fleet_utilization = 0.0;
  /// Sum of alive windows in seconds -- the autoscaling cost metric
  /// (replica-seconds of capacity provisioned).
  double replica_seconds = 0.0;
  std::size_t peak_replicas = 0;  ///< max simultaneously accepting replicas
  std::size_t retries = 0;        ///< failure-driven re-dispatches
  std::size_t migrations = 0;     ///< scale-down-driven re-dispatches
  /// Prefill tokens served from prefix caches fleet-wide (0 when disabled).
  std::int64_t cached_prefill_tokens = 0;
  // Expert-aware serving (all-zero when ClusterConfig::expert is disabled):
  std::uint64_t expert_hits = 0;    ///< fleet-wide resident profile experts at step time
  std::uint64_t expert_misses = 0;  ///< fleet-wide demand expert fetches
  double expert_hit_rate = 0.0;     ///< hits / (hits + misses), 0 with no accesses
  std::size_t expert_migrations = 0;  ///< experts preloaded by rebalance ticks
  std::size_t pruned_requests = 0;    ///< requests served with a truncated profile
  // Disaggregated serving (all-zero when ClusterConfig::disagg is disabled):
  std::size_t handoffs = 0;         ///< prefill-complete releases re-dispatched
  std::int64_t handoff_tokens = 0;  ///< KV tokens shipped across the handoff link
  double handoff_transfer_s = 0.0;  ///< summed handoff-link time, seconds
  /// One pool's slice of a disaggregated run (all-zero when disabled).
  struct PoolReport {
    std::size_t replicas = 0;     ///< replicas that ever held the role
    std::size_t dispatched = 0;   ///< requests the pool received (incl. re-dispatches)
    std::size_t steps = 0;        ///< scheduler steps the pool executed
    double busy_s = 0.0;          ///< summed step time, seconds
    double replica_seconds = 0.0; ///< summed alive windows, seconds
    double utilization = 0.0;     ///< busy_s over replica_seconds
    double mean_step_ms = 0.0;    ///< busy_s / steps, milliseconds
  };
  PoolReport prefill_pool;
  PoolReport decode_pool;
  // Per-phase wall-clock (0 unless ClusterConfig::measure_phases):
  double phase_advance_s = 0.0;   ///< replica advancement (parallelizes)
  double phase_dispatch_s = 0.0;  ///< snapshot refresh + pick + enqueue (sequential)
  double phase_commit_s = 0.0;    ///< EWMA/index/calendar write-backs (sequential)
  std::vector<ClusterEvent> events;  ///< scaling/failure timeline, time order
};

/// A fleet of replica servers interleaved in simulated time.
class ClusterSim {
 public:
  ClusterSim(const core::SystemConfig& sys, const moe::MoeModelConfig& model,
             const moe::SkewProfile& profile, const std::vector<ReplicaSpec>& specs,
             ClusterConfig cfg = {});

  /// Currently instantiated replicas (grows under autoscaling).
  [[nodiscard]] std::size_t size() const { return replicas_.size(); }

  /// Serve `trace` (sorted by (arrival, id) internally; ids must be
  /// unique), dispatching each request at its arrival instant via
  /// `dispatcher`. Pass an `autoscaler` to resize the fleet against queue
  /// pressure. Call once. Throws if every replica fails or retires while
  /// requests remain.
  [[nodiscard]] ClusterReport run(std::vector<Request> trace, Dispatcher& dispatcher,
                                  Autoscaler* autoscaler = nullptr);

  /// Streaming variant: consume requests lazily from `arrivals` (must yield
  /// them in (arrival, id) order with unique ids) so the trace is never
  /// materialized -- O(1) arrival memory regardless of trace length. For the
  /// same requests this is bit-identical to the vector overload (which is
  /// now a thin adapter over it).
  [[nodiscard]] ClusterReport run(ArrivalStream& arrivals, Dispatcher& dispatcher,
                                  Autoscaler* autoscaler = nullptr);

 private:
  struct Replica {
    std::string name;
    std::unique_ptr<core::InferenceEngine> engine;
    std::unique_ptr<ServerSim> server;
    std::size_t dispatched = 0;
    Duration spawned_at = Duration::zero();
    Duration detect_at = Duration::infinite();  ///< fail-stop detection instant
    Duration retired_at = Duration::zero();     ///< scale-down decision instant
    bool detected = false;  ///< failure detected (excluded, evacuated)
    bool retired = false;   ///< scaled down (excluded from dispatch)
    bool prefill = false;   ///< disaggregated-serving role (false = decode/unified)
    std::size_t steps_seen = 0;  ///< steps folded into the EWMA so far
    double ewma_ms = 0.0;        ///< step-duration EWMA (health signal)
    [[nodiscard]] bool accepting() const { return !detected && !retired; }
  };

  // The run (cluster.cpp): the concern objects share one ClusterRun, which
  // holds the intake and a FleetView -- ScanView (the reference oracle) or
  // CalendarView (the indexed calendar).
  class FleetView;
  class ScanView;
  class CalendarView;
  class Intake;
  struct ClusterRun;
  class Concern;
  class Recovery;
  class Elasticity;
  class PrefillPool;
  class Rebalance;
  class Dispatch;

  void add_replica(const ReplicaSpec& spec, Duration spawned_at, Duration start_at,
                   bool prefill = false);
  [[nodiscard]] ReplicaSnapshot snapshot(std::size_t i) const;
  /// The report of a drained run: the replicas' records plus the run's
  /// counters and events (`rep`); `taken` requests came from the stream.
  [[nodiscard]] ClusterReport assemble_report(ClusterReport rep, std::size_t taken);

  core::SystemConfig sys_;
  moe::MoeModelConfig model_;
  moe::SkewProfile profile_;
  ClusterConfig cfg_;
  std::shared_ptr<ndp::NdpCoreSim> shared_sim_;
  /// Cluster-level profiling generator (expert-aware serving only): derives
  /// each request's ExpertProfile on the request's own stream, independent
  /// of every replica's routing seed so profiles are fleet-global.
  std::unique_ptr<moe::WorkloadGenerator> profiler_;
  std::vector<Replica> replicas_;
  ReplicaSpec growth_;        ///< template for autoscaled replicas (no faults)
  std::uint64_t next_seed_ = 0;  ///< routing seed for the next spawned replica
  bool used_ = false;
};

}  // namespace monde::serve
