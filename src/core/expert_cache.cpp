#include "core/expert_cache.hpp"

#include "common/error.hpp"

namespace monde::core {

namespace {

int signature_bit(ExpertId id) { return moe::expert_signature_bit(id.layer, id.expert); }

}  // namespace

ExpertCache::ExpertCache(std::size_t capacity) : capacity_{capacity} {}

bool ExpertCache::access(ExpertId id) {
  const auto it = index_.find(id);
  if (it == index_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return true;
}

void ExpertCache::insert(ExpertId id) {
  if (capacity_ == 0) return;
  const auto it = index_.find(id);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (index_.size() >= capacity_) {
    MONDE_ASSERT(!lru_.empty(), "cache index/list inconsistency");
    signature_.remove(signature_bit(lru_.back()));
    index_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(id);
  index_.emplace(id, lru_.begin());
  signature_.add(signature_bit(id));
}

void ExpertCache::erase(ExpertId id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return;
  signature_.remove(signature_bit(id));
  lru_.erase(it->second);
  index_.erase(it);
}

void ExpertCache::stats_reset() {
  hits_ = 0;
  misses_ = 0;
}

void ExpertCache::clear() {
  lru_.clear();
  index_.clear();
  signature_.clear();
}

}  // namespace monde::core
