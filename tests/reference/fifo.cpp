#include "reference/fifo.hpp"

namespace dcache::cache {

const CacheEntry* FifoCache::get(std::string_view key) {
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;  // no reordering: FIFO ignores recency
  return &it->second->entry;
}

const CacheEntry* FifoCache::peek(std::string_view key) const {
  const auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second->entry;
}

void FifoCache::put(std::string_view key, CacheEntry entry) {
  const std::uint64_t need = chargedSize(key, entry);
  if (need > capacity_.count()) return;

  if (const auto it = map_.find(key); it != map_.end()) {
    used_ -= chargedSize(key, it->second->entry);
    used_ += need;
    it->second->entry = std::move(entry);  // overwrite keeps queue position
    ++stats_.overwrites;
  } else {
    list_.push_front(Item{std::string(key), std::move(entry)});
    map_.emplace(std::string_view(list_.front().key), list_.begin());
    used_ += need;
    ++stats_.insertions;
  }
  while (used_ > capacity_.count()) evictOne();
}

bool FifoCache::erase(std::string_view key) {
  const auto it = map_.find(key);
  if (it == map_.end()) return false;
  used_ -= chargedSize(key, it->second->entry);
  list_.erase(it->second);
  map_.erase(it);
  return true;
}

void FifoCache::clear() {
  map_.clear();
  list_.clear();
  used_ = 0;
}

void FifoCache::forEachEntry(
    const std::function<void(std::string_view, const CacheEntry&)>& fn)
    const {
  for (const Item& item : list_) fn(item.key, item.entry);
}

void FifoCache::evictOne() {
  cacheInvariant(!list_.empty(), "fifo",
                 "evictOne with no resident entries: accounted bytes "
                 "drifted from the entry set");
  const Item& last = list_.back();
  used_ -= chargedSize(last.key, last.entry);
  map_.erase(std::string_view(last.key));
  list_.pop_back();
  ++stats_.evictions;
}

}  // namespace dcache::cache
