#include "cache/flat_cache.hpp"

#include <cstring>

#include "util/hash.hpp"

namespace dcache::cache {

namespace {

[[nodiscard]] const char* flatModeName(FlatMode mode) noexcept {
  switch (mode) {
    case FlatMode::kLru: return "flat-lru";
    case FlatMode::kFifo: return "flat-fifo";
    case FlatMode::kClock: return "flat-clock";
  }
  return "flat";
}

}  // namespace

FlatCache::FlatCache(FlatMode mode, util::Bytes capacity)
    : mode_(mode),
      capacity_(capacity),
      table_(kInitialTableSlots),
      mask_(kInitialTableSlots - 1) {}

const CacheEntry* FlatCache::get(std::string_view key) {
  const std::size_t pos = findPos(util::fastHash64(key), key);
  if (pos == kNpos) {
    ++stats_.misses;
    return nullptr;
  }
  Node& node = *table_[pos].node;
  if (mode_ == FlatMode::kLru) {
    moveToFront(node.self);
  } else if (mode_ == FlatMode::kClock) {
    flags_[node.self] |= kReferencedBit;
  }
  ++stats_.hits;
  return &node.entry;
}

const CacheEntry* FlatCache::peek(std::string_view key) const {
  const std::size_t pos = findPos(util::fastHash64(key), key);
  return pos == kNpos ? nullptr : &table_[pos].node->entry;
}

void FlatCache::put(std::string_view key, CacheEntry entry) {
  const std::uint64_t need = chargedSize(key, entry);
  if (need > capacity_.count()) return;  // cannot ever fit; not admitted

  const std::uint64_t hash = util::fastHash64(key);
  bool found = false;
  std::size_t pos = probePos(hash, key, found);
  if (found) {
    Node& node = *table_[pos].node;
    const std::uint32_t index = node.self;
    used_ -= chargedSize(key, node.entry);
    used_ += need;
    node.entry = std::move(entry);
    if (mode_ == FlatMode::kLru) {
      moveToFront(index);
    } else if (mode_ == FlatMode::kClock) {
      flags_[index] |= kReferencedBit;
    }
    ++stats_.overwrites;
  } else {
    if (maybeGrow()) {
      // Table moved: re-derive the insert slot in the grown table.
      pos = probePos(hash, key, found);
    }
    const std::uint32_t index = slab_.acquire();
    ensureSideArrays(index);
    Node& node = slab_[index];
    node.self = index;
    storeKey(node, key);
    node.entry = std::move(entry);
    if (mode_ == FlatMode::kClock) {
      flags_[index] = kOccupiedBit | kReferencedBit;
    } else {
      flags_[index] = kOccupiedBit;
      linkFront(index);
    }
    table_[pos] = TableSlot{hash, &node};
    ++count_;
    used_ += need;
    ++stats_.insertions;
  }
  while (used_ > capacity_.count()) evictOne();
}

bool FlatCache::erase(std::string_view key) {
  const std::size_t pos = findPos(util::fastHash64(key), key);
  if (pos == kNpos) return false;
  const Node& node = *table_[pos].node;
  used_ -= chargedSize(key, node.entry);
  removeNode(pos, node.self);
  return true;
}

void FlatCache::clear() {
  slab_.clear();
  arena_.clear();
  // dcache-lint: allow(hot-path-alloc, clear() resets the whole cache; it is not a per-op path)
  table_.assign(kInitialTableSlots, TableSlot{});
  mask_ = kInitialTableSlots - 1;
  links_.clear();
  flags_.clear();
  head_ = kNil;
  tail_ = kNil;
  hand_ = 0;
  used_ = 0;
  count_ = 0;
}

std::string_view FlatCache::victim() const noexcept {
  return tail_ == kNil ? std::string_view{} : keyOf(slab_[tail_]);
}

void FlatCache::storeKey(Node& node, std::string_view key) {
  node.keyLength = static_cast<std::uint32_t>(key.size());
  if (key.size() <= kInlineKeyBytes) {
    if (!key.empty()) std::memcpy(node.inlineKey, key.data(), key.size());
  } else {
    node.keyRef = arena_.store(key);
  }
}

void FlatCache::releaseKey(Node& node) {
  if (node.keyLength > kInlineKeyBytes) {
    arena_.release(node.keyRef, node.keyLength);
  }
}

std::size_t FlatCache::probePos(std::uint64_t hash, std::string_view key,
                                bool& found) const noexcept {
  std::size_t pos = hash & mask_;
  while (table_[pos].node != nullptr) {
    // Full-hash filter: a node record is only touched when the stored
    // 64-bit hash matches, i.e. at most once per successful lookup.
    if (table_[pos].hash == hash && keyOf(*table_[pos].node) == key) {
      found = true;
      return pos;
    }
    pos = (pos + 1) & mask_;
  }
  found = false;
  return pos;
}

std::size_t FlatCache::findPos(std::uint64_t hash,
                               std::string_view key) const noexcept {
  bool found = false;
  const std::size_t pos = probePos(hash, key, found);
  return found ? pos : kNpos;
}

void FlatCache::tableEraseAt(std::size_t pos) noexcept {
  table_[pos] = TableSlot{};
  std::size_t hole = pos;
  std::size_t i = pos;
  for (;;) {
    i = (i + 1) & mask_;
    if (table_[i].node == nullptr) return;
    const std::size_t ideal = table_[i].hash & mask_;
    // The occupant can move into the hole iff its ideal slot is outside the
    // (hole, i] segment — the standard backward-shift condition.
    if (((i - ideal) & mask_) >= ((i - hole) & mask_)) {
      table_[hole] = table_[i];
      table_[i] = TableSlot{};
      hole = i;
    }
  }
}

bool FlatCache::maybeGrow() {
  // Grow at ~70% load so linear-probe clusters stay short.
  if ((count_ + 1) * 10 <= table_.size() * 7) return false;
  std::vector<TableSlot> old = std::move(table_);
  // dcache-lint: allow(hot-path-alloc, table doubling at 70% load is amortized O(1) per insert)
  table_.assign(old.size() * 2, TableSlot{});
  mask_ = table_.size() - 1;
  for (const TableSlot& slot : old) {
    if (slot.node == nullptr) continue;
    std::size_t pos = slot.hash & mask_;
    while (table_[pos].node != nullptr) pos = (pos + 1) & mask_;
    table_[pos] = slot;
  }
  return true;
}

void FlatCache::growSideArrays(std::uint32_t index) {
  // Amortized growth in whole slab-chunk strides (one resize per 1024
  // inserts, not one per insert); dense vectors keep the per-hit link/flag
  // traffic in cache.
  const std::size_t want = (static_cast<std::size_t>(index) + 1024) & ~std::size_t{1023};
  // dcache-lint: allow(hot-path-alloc, one stride-sized resize per 1024 inserts, tracking the slab high-water mark)
  links_.resize(want);
  flags_.resize(want, 0);  // dcache-lint: allow(hot-path-alloc, grows in lockstep with links_, same amortization)
}

void FlatCache::linkFront(std::uint32_t index) noexcept {
  Links& link = links_[index];
  link.prev = kNil;
  link.next = head_;
  if (head_ != kNil) links_[head_].prev = index;
  head_ = index;
  if (tail_ == kNil) tail_ = index;
}

void FlatCache::unlink(std::uint32_t index) noexcept {
  Links& link = links_[index];
  if (link.prev != kNil) {
    links_[link.prev].next = link.next;
  } else {
    head_ = link.next;
  }
  if (link.next != kNil) {
    links_[link.next].prev = link.prev;
  } else {
    tail_ = link.prev;
  }
  link.prev = kNil;
  link.next = kNil;
}

void FlatCache::moveToFront(std::uint32_t index) noexcept {
  if (head_ == index) return;
  unlink(index);
  linkFront(index);
}

void FlatCache::removeNode(std::size_t pos, std::uint32_t index) {
  Node& node = slab_[index];
  if (mode_ != FlatMode::kClock) unlink(index);
  releaseKey(node);
  flags_[index] = 0;
  tableEraseAt(pos);
  slab_.release(index);
  --count_;
}

void FlatCache::evictOne() {
  if (mode_ == FlatMode::kClock) {
    evictClock();
    return;
  }
  cacheInvariant(tail_ != kNil, flatModeName(mode_),
                 "evictOne with no resident entries: accounted bytes "
                 "drifted from the entry set");
  const std::uint32_t index = tail_;
  const Node& node = slab_[index];
  const std::string_view key = keyOf(node);
  used_ -= chargedSize(key, node.entry);
  const std::size_t pos = findPos(util::fastHash64(key), key);
  removeNode(pos, index);
  ++stats_.evictions;
}

void FlatCache::forEachEntry(
    const std::function<void(std::string_view, const CacheEntry&)>& fn)
    const {
  if (mode_ == FlatMode::kClock) {
    // Node-index order over occupied nodes — index allocation follows the
    // same LIFO-freelist/bump discipline as the reference ClockCache's slot
    // vector, so the visit sequence matches it exactly.
    for (std::uint32_t i = 0; i < slab_.highWater(); ++i) {
      if (flags_[i] & kOccupiedBit) {
        const Node& node = slab_[i];
        fn(keyOf(node), node.entry);
      }
    }
    return;
  }
  for (std::uint32_t index = head_; index != kNil;
       index = links_[index].next) {
    const Node& node = slab_[index];
    fn(keyOf(node), node.entry);
  }
}

void FlatCache::evictClock() {
  cacheInvariant(count_ > 0, "flat-clock",
                 "evictOne with no resident entries: accounted bytes "
                 "drifted from the entry set");
  for (;;) {
    hand_ = (hand_ + 1) % slab_.highWater();
    const auto index = static_cast<std::uint32_t>(hand_);
    const std::uint8_t flags = flags_[index];
    if (!(flags & kOccupiedBit)) continue;
    if (flags & kReferencedBit) {
      flags_[index] = kOccupiedBit;  // second chance
      continue;
    }
    const Node& node = slab_[index];
    const std::string_view key = keyOf(node);
    used_ -= chargedSize(key, node.entry);
    const std::size_t pos = findPos(util::fastHash64(key), key);
    removeNode(pos, index);
    ++stats_.evictions;
    return;
  }
}

}  // namespace dcache::cache
