// Pluggable request-dispatch policies for the cluster simulator.
//
// A ClusterSim (cluster.hpp) fronts N replica servers with one dispatcher:
// at every request's arrival instant the dispatcher sees a load snapshot of
// each replica and picks where the request goes. Four classic load-only
// policies:
//
//   * round-robin             -- rotate through replicas, load-oblivious;
//     the baseline every load balancer starts from.
//   * join-shortest-queue     -- send to the replica with the fewest
//     accepted-but-unfinished requests; the canonical load-aware policy.
//   * least-outstanding-tokens -- like JSQ but weighs each request by the
//     tokens it still owes (un-prefilled prompt + remaining decode budget),
//     so one long request counts for more than several short ones.
//   * power-of-two-choices    -- sample two random replicas, keep the
//     shorter queue; near-JSQ tail latency while probing O(1) replicas
//     (Mitzenmacher's "power of two choices").
//
// plus two residency-aware policies that additionally read what is already
// *resident* on each replica -- expert weights (kExpertAffinity,
// serve/expert.hpp) or shared KV prefixes (kPrefixAffinity,
// serve/kvcache.hpp). docs/DISPATCH.md is the reference page: the full
// policy matrix, each policy's snapshot-field dependencies, and the
// tie-break rules.
//
// Policies are deterministic given their seed; ties break toward the lowest
// replica index.
//
// Health-checked dispatch: the cluster never hands a policy the raw fleet.
// Detected-dead and retired replicas get no snapshot at all (the cluster's
// accepting list excludes them), and (through eligible_snapshots())
// replicas whose step-duration EWMA marks them as pathologically slow are
// skipped while a faster peer exists. A policy's pick() therefore indexes
// into the filtered vector; the caller maps back through
// ReplicaSnapshot::replica. With every replica healthy the filter is
// the identity, so fault-free dispatch is bit-identical to the pre-health
// behavior. The slow filter is off by default (infinite slow_ewma_factor);
// bench/serve_cluster_policies fails unless it beats filter-free dispatch
// on E2E p99 with one replica slowed 4x.
//
// Snapshot maintenance: by default the cluster maintains the accepting list
// incrementally -- one snapshot per accepting replica, rebuilt when that
// replica's server mutates, membership adjusted on spawn/detection/
// retirement -- so a dispatch costs O(changed replicas), not O(fleet). With
// a finite slow_ewma_factor the cluster applies eligible_snapshots() below
// to that list per dispatch. Every snapshot field is a function of server
// state, so the maintained list equals one rebuilt from scratch at the
// dispatch instant -- which is what the reference loop does.
//
// Units: `outstanding_tokens` counts tokens, `step_ewma_ms` is simulated
// milliseconds. Snapshots are plain values -- policies never touch a server
// and are unit-testable without an engine.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/request.hpp"

namespace monde::serve {

/// Which dispatcher make_dispatcher() builds. Every enumerator is documented
/// in docs/DISPATCH.md (policy matrix, snapshot-field dependencies,
/// tie-break rules); the residency-aware ones are opt-in and reduce to
/// kLeastOutstandingTokens when the state they route on is absent.
enum class DispatchPolicy {
  kRoundRobin,              ///< rotate through replicas, load-oblivious
  kJoinShortestQueue,       ///< fewest in-flight requests wins
  kLeastOutstandingTokens,  ///< fewest still-owed tokens wins
  kPowerOfTwoChoices,       ///< two random probes, lighter queue wins
  // Gating-aware policy (expert-aware serving, serve/expert.hpp). It reads
  // the request's ExpertProfile and the replicas' expert residency
  // signatures; with the profile absent it reduces to
  // least-outstanding-tokens.
  kExpertAffinity,  ///< best hot-set overlap, power-of-two load spill-over
  // Prefix-locality policy (KV-cache-aware serving, serve/kvcache.hpp). It
  // routes on the request's shared `prefix_id` so group members land where
  // the group's prefix KV is already resident; requests without a shared
  // prefix -- and decode-phase work, which has no prefill left to save --
  // fall back to least-outstanding-tokens.
  kPrefixAffinity,  ///< power-of-two choices among resident prefix-holders
};

/// Canonical policy name ("round-robin", "prefix-affinity", ...), used in
/// bench banners and docs; docs/DISPATCH.md keys its matrix on these.
[[nodiscard]] std::string to_string(DispatchPolicy policy);

/// The four classic load-only policies, in enum order (for benches and tests
/// that sweep them; the budget-pinned sweeps rely on this set staying
/// fixed). The residency-aware policies are opted into explicitly.
[[nodiscard]] std::vector<DispatchPolicy> all_dispatch_policies();

/// One replica's live load and health as the dispatcher sees it at a
/// dispatch instant.
struct ReplicaSnapshot {
  std::size_t replica = 0;             ///< index into the cluster's replica list
  std::size_t in_flight = 0;           ///< accepted, not yet finished requests
  std::int64_t outstanding_tokens = 0; ///< un-prefilled prompt + remaining decode tokens
  // Health (filled by the cluster; the default describes a healthy replica
  // so hand-built snapshots keep working). Only accepting replicas -- not
  // detected dead, not retired -- ever get a snapshot.
  double step_ewma_ms = 0;  ///< step-duration EWMA, newest weight 0.25 (0 = no steps)
  /// Compact residency summary: the replica's ExpertCache signature
  /// (core/expert_cache.hpp), 0 when expert-aware serving is disabled.
  /// Gating-aware policies AND it with the request's profile signature to
  /// estimate hot-set overlap in one popcount.
  std::uint64_t expert_sig = 0;
  /// Compact shared-prefix residency: the replica's KvCache signature
  /// (serve/kvcache.hpp, `prefix_signature()`), 0 when the prefix cache is
  /// disabled or empty. kPrefixAffinity tests the request's
  /// `prefix_signature_bit` against it to find prefix-holders; a set bit is
  /// Bloom-approximate (possible false positive, never a false negative).
  std::uint64_t prefix_sig = 0;
  /// Disaggregated serving (serve/disagg.hpp): true for a prefill-specialist
  /// replica. False when disaggregation is disabled (the whole fleet is then
  /// one unified decode-capable pool), so hand-built snapshots keep working.
  bool prefill_pool = false;
};

/// A dispatch policy. pick() is called once per request, in arrival order;
/// implementations may carry state (rotation counter, RNG stream), so picks
/// are deterministic in the *sequence* of (snapshots, request) pairs seen
/// since construction.
class Dispatcher {
 public:
  virtual ~Dispatcher() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Chooses the replica for `rq`. `snapshots` holds one entry per replica,
  /// in replica order; the returned index refers into it. Load-only
  /// policies ignore the request; residency-aware ones read its expert
  /// profile or shared prefix id.
  [[nodiscard]] virtual std::size_t pick(const std::vector<ReplicaSnapshot>& snapshots,
                                         const Request& rq) = 0;
};

/// Builds a fresh dispatcher. `seed` feeds the randomized policies
/// (power-of-two choices and both residency-aware policies' load spill-over
/// probes); everything is deterministic given it.
[[nodiscard]] std::unique_ptr<Dispatcher> make_dispatcher(DispatchPolicy policy,
                                                          std::uint64_t seed = 42);

/// The slow-replica filter (the cluster runs it per dispatch, on its
/// accepting list, with a finite `slow_ewma_factor`): drops replicas whose
/// step EWMA exceeds factor x the median EWMA of `all` -- unless that would
/// empty it (a soft deprioritization). An infinite factor keeps everything.
///
/// Cold-starting replicas stay eligible (a warming replica accepts and
/// queues; that *is* the modelled warm-up cost). Order and `replica`
/// indices are preserved, so with an all-healthy fleet the result equals
/// the input.
[[nodiscard]] std::vector<ReplicaSnapshot> eligible_snapshots(
    const std::vector<ReplicaSnapshot>& all, double slow_ewma_factor);

/// Disaggregated-serving pool filter, applied after eligible_snapshots():
/// keeps the replicas of the requested role (`prefill` true = prefill pool,
/// false = decode pool). May return empty -- the caller decides whether to
/// fall back to a less-filtered view before declaring the pool gone. Order
/// and `replica` indices are preserved.
[[nodiscard]] std::vector<ReplicaSnapshot> pool_snapshots(
    const std::vector<ReplicaSnapshot>& all, bool prefill);

}  // namespace monde::serve
