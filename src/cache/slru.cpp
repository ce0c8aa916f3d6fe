#include "cache/slru.hpp"

#include <algorithm>
#include <cmath>

namespace dcache::cache {

namespace {

/// The protected segment's share of `capacity`. Clamped to the total:
/// `capacity * fraction` goes through a double, so for huge capacities
/// rounding could overshoot it and leave the probation segment with a
/// wrapped (or zero) capacity.
[[nodiscard]] util::Bytes protectedShare(util::Bytes capacity,
                                         double protectedFraction) {
  const double fraction = std::isfinite(protectedFraction)
                              ? std::clamp(protectedFraction, 0.0, 1.0)
                              : 0.8;
  return std::min(capacity * fraction, capacity);
}

}  // namespace

SlruCache::SlruCache(util::Bytes capacity, double protectedFraction)
    : capacity_(capacity),
      probation_(FlatMode::kLru,
                 capacity - protectedShare(capacity, protectedFraction)),
      protected_(FlatMode::kLru, protectedShare(capacity, protectedFraction)) {}

const CacheEntry* SlruCache::get(std::string_view key) {
  // Protected first: the hot set lives there.
  if (const CacheEntry* hit = protected_.peek(key)) {
    const CacheEntry* refreshed = protected_.get(key);  // bump recency
    ++stats_.hits;
    return refreshed ? refreshed : hit;
  }
  if (const CacheEntry* hit = probation_.peek(key)) {
    ++stats_.hits;
    // Second touch: promote to protected. Protected may evict its own LRU
    // victim; the demoted key falls out entirely (standard SLRU variant).
    // Entries too large for the protected segment stay in probation.
    if (chargedSize(key, *hit) > protected_.capacity().count()) {
      return probation_.get(key);  // refresh recency in place
    }
    CacheEntry copy = *hit;
    probation_.erase(key);
    protected_.put(key, std::move(copy));
    return protected_.peek(key);
  }
  ++stats_.misses;
  return nullptr;
}

const CacheEntry* SlruCache::peek(std::string_view key) const {
  if (const CacheEntry* hit = protected_.peek(key)) return hit;
  return probation_.peek(key);
}

void SlruCache::put(std::string_view key, CacheEntry entry) {
  const std::uint64_t need = chargedSize(key, entry);
  if (protected_.peek(key) != nullptr) {
    // Update in place. The segment rejects entries larger than its whole
    // capacity, leaving the old entry resident — that counts as neither
    // insertion nor overwrite (see CacheStats).
    if (need <= protected_.capacity().count()) ++stats_.overwrites;
    protected_.put(key, std::move(entry));
    return;
  }
  const bool resident = probation_.peek(key) != nullptr;
  // New entries go to probation; entries the probation segment cannot hold
  // (tiny split, large object) are admitted straight to protected rather
  // than silently dropped.
  if (need > probation_.capacity().count()) {
    probation_.erase(key);
    if (need <= protected_.capacity().count()) {
      resident ? ++stats_.overwrites : ++stats_.insertions;
    }
    protected_.put(key, std::move(entry));
    return;
  }
  resident ? ++stats_.overwrites : ++stats_.insertions;
  probation_.put(key, std::move(entry));
}

bool SlruCache::erase(std::string_view key) {
  const bool a = protected_.erase(key);
  const bool b = probation_.erase(key);
  return a || b;
}

void SlruCache::clear() {
  probation_.clear();
  protected_.clear();
}

void SlruCache::forEachEntry(
    const std::function<void(std::string_view, const CacheEntry&)>& fn)
    const {
  probation_.forEachEntry(fn);
  protected_.forEachEntry(fn);
}

}  // namespace dcache::cache
