// Prefix/KV-cache model for the serving layer.
//
// MoNDE's core argument is that state already resident near the data should
// not be moved again; the serving-side counterpart is the KV cache: the
// attention state of every prefilled prompt token and every generated token
// is resident on the replica that computed it. This module models that
// residency as *token counts* (no tensors are simulated):
//
//   * per-request state -- an admitted request pins the resident tokens
//     unique to it (its prompt beyond any shared prefix, plus one more per
//     decoded token) until it completes or aborts. Its whole frontier --
//     prompt + decoded -- is what partial-progress retry/migration moves.
//   * shared prefixes   -- requests carrying the same `Request::prefix_id`
//     share their first `shared_prefix_len` prompt tokens (a system prompt,
//     a few-shot header). The prefix is one physical copy, counted once no
//     matter how many requests reference it. Once one of them has
//     prefilled, the shared entry is retained after completion, and later
//     arrivals skip the prefill of the resident part (a cache *hit*).
//     Unreferenced retained entries are evicted in LRU order when the
//     configured token capacity is exceeded; pinned per-request state and
//     in-use prefixes are never evicted (a replica cannot drop the KV of a
//     request it is actively serving).
//
// The cache is priced into ServerSim::step(): a request admitted with
// `saved` cached tokens runs a prefill over only `prompt_len - saved`
// tokens. With `enabled = false` (the default) every lookup returns the
// request's own `resume.prefilled` and no state is tracked, which keeps the
// serving stack bit-identical to the cache-less behavior.
//
// Transfer pricing: checkpointed retry and scale-down migration move
// `resident_tokens` of KV state between replicas; `transfer_time_for()`
// prices that at `kv_bytes_per_token / migration_bw` per token. The cluster
// (cluster.hpp) applies the span to the re-dispatch instant.
//
// Units: every quantity named *_tokens counts tokens; sizes are `Bytes`,
// rates `Bandwidth`, spans `Duration`. Deterministic, engine-free, and
// unit-tested standalone (tests/test_kvcache.cpp).
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "common/counting_signature.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "serve/request.hpp"

namespace monde::serve {

/// Signature bit a shared prefix occupies in the 64-bit residency summary
/// (see KvCache::prefix_signature). Same murmur-finalizer family as
/// moe::expert_signature_bit so both residency views hash comparably well.
/// Deterministic in `prefix_id` alone -- dispatchers and caches agree on
/// the bit without sharing state. `prefix_id` 0 ("no shared prefix") is
/// never inserted, so its bit value is irrelevant.
[[nodiscard]] inline int prefix_signature_bit(std::uint64_t prefix_id) {
  std::uint64_t x = prefix_id;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 29;
  return static_cast<int>(x & 63);
}

/// Per-replica prefix-cache knobs. The default (`enabled = false`) is inert:
/// no residency tracking, no prefill savings, retries restart from scratch.
struct PrefixCacheConfig {
  bool enabled = false;

  /// Resident-KV capacity of one replica, in tokens. Pinned (active-request)
  /// state always fits conceptually -- it is never evicted, even when it
  /// alone exceeds the capacity -- but retained shared prefixes are evicted
  /// LRU-first while the total resident count is above this cap.
  std::int64_t capacity_tokens = 1 << 18;

  /// Modelled KV footprint of one token (all layers, K+V), used only to
  /// price state transfers between replicas.
  Bytes kv_bytes_per_token = Bytes::kib(128);

  /// Link rate for checkpoint restore / live migration of KV state.
  Bandwidth migration_bw = Bandwidth::gbps(16.0);

  /// Fail-stop retry mode. `true` = surviving-cache: prefixes are
  /// continuously checkpointed off-node, so a stranded request resumes from
  /// its last completed step on the retry replica (after a transfer span).
  /// `false` = lost-cache: the KV state dies with the node and retries
  /// restart from scratch (the pre-cache behavior).
  bool survive_failstop = false;

  /// Scale-down mode. `true` = a retired replica stops at its current step
  /// boundary and live-migrates every unfinished request (with its resident
  /// state, at the modelled transfer cost) to the surviving fleet, releasing
  /// its capacity immediately. `false` = the retiree drains its own queue to
  /// completion first (the pre-cache behavior).
  bool migrate_on_retire = false;

  /// Span of moving `tokens` of KV state over the migration link.
  [[nodiscard]] Duration transfer_time_for(std::int64_t tokens) const {
    MONDE_REQUIRE(tokens >= 0, "cannot transfer a negative token count");
    return transfer_time(kv_bytes_per_token * static_cast<std::uint64_t>(tokens),
                         migration_bw);
  }

  void validate() const;
};

/// Counters one replica's cache accumulated over a run.
struct PrefixCacheStats {
  std::uint64_t lookups = 0;     ///< admissions that consulted the cache
  std::uint64_t hits = 0;        ///< lookups that saved at least one token
  std::int64_t saved_tokens = 0; ///< prefill tokens skipped in total
  std::uint64_t evictions = 0;   ///< retained shared-prefix entries evicted
  std::int64_t resident_peak = 0;///< max resident tokens observed

  [[nodiscard]] double hit_rate() const {
    return lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
  }
};

/// One replica's resident-KV bookkeeping. All mutators are O(1) amortized
/// (hash lookups plus LRU splices); eviction is O(evicted).
class KvCache {
 public:
  explicit KvCache(PrefixCacheConfig cfg);

  [[nodiscard]] bool enabled() const { return cfg_.enabled; }
  [[nodiscard]] const PrefixCacheConfig& config() const { return cfg_; }

  /// Prompt tokens of `rq` that need no prefill on this replica: the longer
  /// of the request's own resumed prefix and the resident part of its shared
  /// prefix, capped at the prompt. Pure -- no stats, no LRU touch -- so
  /// admission-control can probe it freely. When the cache is disabled this
  /// degenerates to `rq.resume.prefilled`.
  [[nodiscard]] std::int64_t saved_tokens(const Request& rq) const;

  /// Account one admission: pin the request's resident state (its prompt
  /// beyond the shared prefix, plus already-resumed decode tokens -- the
  /// shared prefix is counted once in its own entry), record the lookup
  /// with `saved` tokens skipped (as admission computed it), make the
  /// request's shared prefix resident and referenced, and evict
  /// over-capacity unreferenced retained entries.
  void admit(const Request& rq, std::int64_t saved);

  /// One more decoded token is resident for request `id`.
  void decode_token(std::uint64_t id);

  /// The request finished: unpin its state. Its shared prefix (if any)
  /// stays retained for future arrivals, freshest in LRU order.
  void complete(std::uint64_t id);

  /// Unpin everything at once (an evacuation took every unfinished
  /// request away with it). Retained shared prefixes stay.
  void drop_pinned();

  /// Tokens currently resident (pinned + retained shared prefixes).
  [[nodiscard]] std::int64_t resident_tokens() const { return pinned_tokens_ + shared_tokens_; }
  [[nodiscard]] const PrefixCacheStats& stats() const { return stats_; }

  /// Compact residency view for dispatch snapshots: the OR of
  /// `prefix_signature_bit` over every resident shared prefix, maintained
  /// incrementally alongside the LRU (per-bit reference counts, so two
  /// prefixes colliding on a bit keep it set until *both* leave). A set bit
  /// means "some prefix hashing there is resident" -- a Bloom-style
  /// approximation with false positives but no false negatives, which is
  /// the right direction for affinity routing: a spurious hit costs one
  /// ordinary prefill, a missed resident prefix would waste the cache.
  /// 0 whenever nothing is resident (and always, when disabled).
  [[nodiscard]] std::uint64_t prefix_signature() const { return signature_.bits(); }

 private:
  struct SharedEntry {
    std::uint64_t prefix_id = 0;
    std::int64_t tokens = 0;  ///< resident length of the shared prefix
    std::int64_t in_use = 0;  ///< active requests referencing it (pinned while > 0)
  };
  struct Pinned {
    /// Resident tokens UNIQUE to the request: prompt beyond its shared
    /// prefix, plus decoded tokens. The shared prefix itself is counted
    /// once, in its SharedEntry, no matter how many requests reference it.
    std::int64_t tokens = 0;
    std::uint64_t prefix_id = 0;  ///< for refcounting + LRU refresh on release
  };

  void evict_over_capacity();
  void note_resident_peak();

  PrefixCacheConfig cfg_;
  PrefixCacheStats stats_;
  /// Pinned per-request resident state, keyed by request id.
  std::unordered_map<std::uint64_t, Pinned> pinned_;
  std::int64_t pinned_tokens_ = 0;
  /// Retained shared prefixes, least-recently-used first.
  std::list<SharedEntry> lru_;
  std::unordered_map<std::uint64_t, std::list<SharedEntry>::iterator> shared_;
  std::int64_t shared_tokens_ = 0;
  /// Residency signature over `shared_` (see prefix_signature()).
  CountingSignature signature_;
};

}  // namespace monde::serve
