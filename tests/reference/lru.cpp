#include "reference/lru.hpp"

namespace dcache::cache {

const CacheEntry* LruCache::get(std::string_view key) {
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  list_.splice(list_.begin(), list_, it->second);
  ++stats_.hits;
  return &it->second->entry;
}

const CacheEntry* LruCache::peek(std::string_view key) const {
  const auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second->entry;
}

void LruCache::put(std::string_view key, CacheEntry entry) {
  const std::uint64_t need = chargedSize(key, entry);
  if (need > capacity_.count()) return;  // cannot ever fit; not admitted

  if (const auto it = map_.find(key); it != map_.end()) {
    used_ -= chargedSize(key, it->second->entry);
    used_ += need;
    it->second->entry = std::move(entry);
    list_.splice(list_.begin(), list_, it->second);
    ++stats_.overwrites;
  } else {
    list_.push_front(Item{std::string(key), std::move(entry)});
    // string_view key points into the Item's own string: stable address.
    map_.emplace(std::string_view(list_.front().key), list_.begin());
    used_ += need;
    ++stats_.insertions;
  }
  while (used_ > capacity_.count()) evictOne();
}

bool LruCache::erase(std::string_view key) {
  const auto it = map_.find(key);
  if (it == map_.end()) return false;
  used_ -= chargedSize(key, it->second->entry);
  list_.erase(it->second);
  map_.erase(it);
  return true;
}

void LruCache::clear() {
  map_.clear();
  list_.clear();
  used_ = 0;
}

void LruCache::forEachEntry(
    const std::function<void(std::string_view, const CacheEntry&)>& fn)
    const {
  for (const Item& item : list_) fn(item.key, item.entry);
}

std::string_view LruCache::victim() const noexcept {
  return list_.empty() ? std::string_view{} : std::string_view(list_.back().key);
}

void LruCache::evictOne() {
  cacheInvariant(!list_.empty(), "lru",
                 "evictOne with no resident entries: accounted bytes "
                 "drifted from the entry set");
  const Item& last = list_.back();
  used_ -= chargedSize(last.key, last.entry);
  map_.erase(std::string_view(last.key));
  list_.pop_back();
  ++stats_.evictions;
}

}  // namespace dcache::cache
