// GPU-resident expert cache (extension beyond the paper).
//
// The paper's GPU+PM baseline re-fetches every activated expert on demand
// and evicts it afterwards. Spare GPU memory can instead hold an LRU cache
// of recently used experts; because the routing popularity is heavily
// skewed and stable across decode steps (Figure 3), the hot experts hit
// almost always. This is the natural "future work" optimization the paper's
// on-demand PMove leaves on the table, and the PMove-side strategies use it
// when SystemConfig::gpu_expert_cache_bytes is non-zero. The serving layer
// reuses it as each replica's expert residency (serve/server.hpp), so the
// cache also maintains a 64-bit residency signature dispatchers can
// intersect with a request's ExpertProfile signature.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/counting_signature.hpp"
#include "core/monde_device.hpp"
#include "moe/expert_profile.hpp"

namespace monde::core {

/// Hash for the unordered LRU index: mixes the packed (layer, expert) pair
/// with the same finalizer family as moe::expert_signature_bit.
struct ExpertIdHash {
  [[nodiscard]] std::size_t operator()(const ExpertId& id) const {
    std::uint64_t x =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(id.layer)) << 32) |
        static_cast<std::uint32_t>(id.expert);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }
};

/// Fixed-capacity LRU set of experts resident in GPU memory. All operations
/// are O(1): the recency list is indexed by an unordered map.
class ExpertCache {
 public:
  /// `capacity` experts; 0 disables caching (every access misses).
  explicit ExpertCache(std::size_t capacity);

  /// Look up an expert; a hit refreshes its recency. Returns hit/miss.
  bool access(ExpertId id);

  /// Insert after a miss fetch; evicts the least-recently-used expert when
  /// full. Inserting an already-present expert only refreshes recency.
  void insert(ExpertId id);

  [[nodiscard]] bool contains(ExpertId id) const { return index_.count(id) > 0; }
  /// Resident experts, most recently used first (the eviction order reversed).
  [[nodiscard]] std::vector<ExpertId> recency_order() const { return {lru_.begin(), lru_.end()}; }
  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] double hit_rate() const {
    const auto total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
  }

  /// 64-bit Bloom-style summary of the resident set: the OR of
  /// moe::expert_signature_bit over every cached expert, maintained
  /// incrementally (per-bit reference counts absorb collisions and
  /// evictions). A dispatcher ANDs this with a request's profile signature
  /// to estimate hot-set overlap without walking the cache.
  [[nodiscard]] std::uint64_t signature() const { return signature_.bits(); }

  /// Drop one expert outright -- no recency refresh, no hit/miss accounting.
  /// A harvested or evacuated serving replica (serve/server.hpp) uses this
  /// to evict every expert its in-flight requests reference, so the demand
  /// re-homes with the requests. No-op when absent.
  void erase(ExpertId id);

  /// Zero the hit/miss counters without touching the resident set, so a
  /// steady-state window can be measured after warmup.
  void stats_reset();

  void clear();

 private:
  std::size_t capacity_;
  std::list<ExpertId> lru_;  ///< front = most recent
  std::unordered_map<ExpertId, std::list<ExpertId>::iterator, ExpertIdHash> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  CountingSignature signature_;  ///< over moe::expert_signature_bit
};

}  // namespace monde::core
