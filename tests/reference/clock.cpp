#include "reference/clock.hpp"

namespace dcache::cache {

const CacheEntry* ClockCache::get(std::string_view key) {
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  Slot& slot = slots_[it->second];
  slot.referenced = true;
  ++stats_.hits;
  return &slot.entry;
}

const CacheEntry* ClockCache::peek(std::string_view key) const {
  const auto it = map_.find(key);
  return it == map_.end() ? nullptr : &slots_[it->second].entry;
}

void ClockCache::put(std::string_view key, CacheEntry entry) {
  const std::uint64_t need = chargedSize(key, entry);
  if (need > capacity_.count()) return;

  if (const auto it = map_.find(key); it != map_.end()) {
    Slot& slot = slots_[it->second];
    used_ -= chargedSize(key, slot.entry);
    used_ += need;
    slot.entry = std::move(entry);
    slot.referenced = true;
    ++stats_.overwrites;
  } else {
    std::size_t index;
    if (!freeList_.empty()) {
      index = freeList_.back();
      freeList_.pop_back();
    } else {
      index = slots_.size();
      slots_.emplace_back();
    }
    Slot& slot = slots_[index];
    slot.key.assign(key);
    slot.entry = std::move(entry);
    slot.referenced = true;
    slot.occupied = true;
    map_.emplace(std::string(key), index);
    used_ += need;
    ++stats_.insertions;
  }
  while (used_ > capacity_.count()) evictOne();
}

bool ClockCache::erase(std::string_view key) {
  const auto it = map_.find(key);
  if (it == map_.end()) return false;
  Slot& slot = slots_[it->second];
  used_ -= chargedSize(slot.key, slot.entry);
  slot.occupied = false;
  slot.entry = CacheEntry{};
  freeList_.push_back(it->second);
  map_.erase(it);
  return true;
}

void ClockCache::clear() {
  map_.clear();
  slots_.clear();
  freeList_.clear();
  hand_ = 0;
  used_ = 0;
}

void ClockCache::forEachEntry(
    const std::function<void(std::string_view, const CacheEntry&)>& fn)
    const {
  // Slot-index order: FlatCache's node indices follow the same
  // LIFO-freelist/bump discipline, so its Clock mode visits identically.
  for (const Slot& slot : slots_) {
    if (slot.occupied) fn(slot.key, slot.entry);
  }
}

void ClockCache::evictOne() {
  cacheInvariant(!map_.empty(), "clock",
                 "evictOne with no resident entries: accounted bytes "
                 "drifted from the entry set");
  for (;;) {
    hand_ = (hand_ + 1) % slots_.size();
    Slot& slot = slots_[hand_];
    if (!slot.occupied) continue;
    if (slot.referenced) {
      slot.referenced = false;  // second chance
      continue;
    }
    used_ -= chargedSize(slot.key, slot.entry);
    map_.erase(map_.find(std::string_view(slot.key)));
    slot.occupied = false;
    slot.entry = CacheEntry{};
    freeList_.push_back(hand_);
    ++stats_.evictions;
    return;
  }
}

}  // namespace dcache::cache
