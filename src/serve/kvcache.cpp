#include "serve/kvcache.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace monde::serve {

void PrefixCacheConfig::validate() const {
  if (!enabled) return;
  MONDE_REQUIRE(capacity_tokens > 0, "prefix cache needs capacity_tokens > 0");
  MONDE_REQUIRE(kv_bytes_per_token.count() > 0, "prefix cache needs kv_bytes_per_token > 0");
  MONDE_REQUIRE(migration_bw.as_bytes_per_sec() > 0.0,
                "prefix cache needs a positive migration bandwidth");
}

KvCache::KvCache(PrefixCacheConfig cfg) : cfg_{cfg} { cfg_.validate(); }

std::int64_t KvCache::saved_tokens(const Request& rq) const {
  std::int64_t saved = rq.resume.prefilled;
  if (cfg_.enabled && rq.prefix_id != 0) {
    const auto it = shared_.find(rq.prefix_id);
    if (it != shared_.end()) {
      // Only the part of the shared prefix this request actually carries.
      saved = std::max(saved, std::min(it->second->tokens, rq.shared_prefix_len));
    }
  }
  return std::min(saved, rq.prompt_len);
}

void KvCache::admit(const Request& rq, std::int64_t saved) {
  if (!cfg_.enabled) return;
  ++stats_.lookups;
  if (saved > 0) ++stats_.hits;
  stats_.saved_tokens += saved;
  // After the admission step the request's whole frontier is resident
  // (prefilled or cache-served) -- but its shared prefix is one physical
  // copy counted in the SharedEntry below, so the request pins only the
  // tokens unique to it: the prompt beyond the prefix plus resumed decode.
  const bool has_prefix = rq.prefix_id != 0 && rq.shared_prefix_len > 0;
  const std::int64_t unique =
      rq.prompt_len - (has_prefix ? rq.shared_prefix_len : 0) + rq.resume.decoded;
  MONDE_REQUIRE(
      pinned_.emplace(rq.id, Pinned{unique, has_prefix ? rq.prefix_id : 0}).second,
      "request " << rq.id << " admitted to the prefix cache twice");
  pinned_tokens_ += unique;
  // The request's shared prefix becomes (or stays) resident and referenced;
  // later arrivals of the same group hit it. Touch it freshest either way.
  if (has_prefix) {
    const auto it = shared_.find(rq.prefix_id);
    if (it == shared_.end()) {
      lru_.push_back(SharedEntry{rq.prefix_id, rq.shared_prefix_len, /*in_use=*/1});
      shared_.emplace(rq.prefix_id, std::prev(lru_.end()));
      shared_tokens_ += rq.shared_prefix_len;
      signature_.add(prefix_signature_bit(rq.prefix_id));
    } else {
      if (rq.shared_prefix_len > it->second->tokens) {
        shared_tokens_ += rq.shared_prefix_len - it->second->tokens;
        it->second->tokens = rq.shared_prefix_len;
      }
      ++it->second->in_use;
      lru_.splice(lru_.end(), lru_, it->second);
    }
  }
  evict_over_capacity();
  note_resident_peak();
}

void KvCache::decode_token(std::uint64_t id) {
  if (!cfg_.enabled) return;
  const auto it = pinned_.find(id);
  MONDE_REQUIRE(it != pinned_.end(), "decode token for request " << id << " not in the cache");
  ++it->second.tokens;
  ++pinned_tokens_;
  evict_over_capacity();
  note_resident_peak();
}

void KvCache::complete(std::uint64_t id) {
  if (!cfg_.enabled) return;
  const auto it = pinned_.find(id);
  MONDE_REQUIRE(it != pinned_.end(), "request " << id << " released but never admitted");
  if (it->second.prefix_id != 0) {
    const auto shared = shared_.find(it->second.prefix_id);
    // The entry cannot have been evicted while referenced.
    MONDE_ASSERT(shared != shared_.end(),
                 "shared prefix " << it->second.prefix_id << " vanished while in use");
    --shared->second->in_use;
    // The prefix was in active use until this instant: refresh it.
    lru_.splice(lru_.end(), lru_, shared->second);
  }
  pinned_tokens_ -= it->second.tokens;
  pinned_.erase(it);
  // Dropping a reference can unlock eviction of an over-capacity entry.
  evict_over_capacity();
}

void KvCache::drop_pinned() {
  pinned_.clear();
  pinned_tokens_ = 0;
  for (SharedEntry& entry : lru_) entry.in_use = 0;
}

void KvCache::evict_over_capacity() {
  // Pinned state is never evicted, and neither is a shared prefix an active
  // request references; unreferenced retained prefixes go LRU-first until
  // the total fits (or nothing evictable is left).
  auto it = lru_.begin();
  while (pinned_tokens_ + shared_tokens_ > cfg_.capacity_tokens && it != lru_.end()) {
    if (it->in_use > 0) {
      ++it;
      continue;
    }
    shared_tokens_ -= it->tokens;
    shared_.erase(it->prefix_id);
    signature_.remove(prefix_signature_bit(it->prefix_id));
    it = lru_.erase(it);
    ++stats_.evictions;
  }
}

void KvCache::note_resident_peak() {
  stats_.resident_peak = std::max(stats_.resident_peak, resident_tokens());
}

}  // namespace monde::serve
