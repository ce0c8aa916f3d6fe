#include "storage/block_cache.hpp"

#include <bit>

namespace dcache::storage {

BlockCache::BlockCache(util::Bytes capacity) : capacity_(capacity) {
  sizeTable(kInitialSlots);
}

bool BlockCache::touchRead(std::uint64_t keyHash, std::uint64_t rowBytes) {
  const std::uint64_t id = idOf(keyHash);
  bool found = false;
  const std::size_t pos = probe(id, found);
  if (found) {
    flags_[slots_[pos].block] |= kReferencedBit;
    ++stats_.hits;
    return true;
  }
  ++stats_.misses;
  put(id, rowBytes, pos, false);
  return false;
}

void BlockCache::touchWrite(std::uint64_t keyHash, std::uint64_t rowBytes) {
  const std::uint64_t id = idOf(keyHash);
  bool found = false;
  const std::size_t pos = probe(id, found);
  put(id, rowBytes, pos, found);
}

void BlockCache::clear() {
  sizeTable(kInitialSlots);
  blocks_.clear();
  flags_.clear();
  free_.clear();
  hand_ = 0;
  used_ = 0;
  count_ = 0;
}

std::size_t BlockCache::probe(std::uint64_t id, bool& found) const noexcept {
  std::size_t pos = home(id);
  while (slots_[pos].block != kNoBlock) {
    if (slots_[pos].id == id) {
      found = true;
      return pos;
    }
    pos = (pos + 1) & mask_;
  }
  found = false;
  return pos;
}

void BlockCache::put(std::uint64_t id, std::uint64_t rowBytes,
                     std::size_t pos, bool found) {
  const std::uint64_t need = blockSizeFor(rowBytes) + kBookkeepingBytes;
  if (need > capacity_.count()) return;  // cannot ever fit; not admitted
  if (found) {
    const std::uint32_t index = slots_[pos].block;
    used_ = used_ - blocks_[index].charged + need;
    blocks_[index].charged = need;
    flags_[index] |= kReferencedBit;
    ++stats_.overwrites;
  } else {
    if (maybeGrow()) pos = probe(id, found);
    std::uint32_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      index = static_cast<std::uint32_t>(blocks_.size());
      // dcache-lint: allow(hot-path-alloc, once per new block index; the vector doubles, so growth is amortized O(1))
      blocks_.emplace_back();
      flags_.push_back(0);  // dcache-lint: allow(hot-path-alloc, grows in lockstep with blocks_, same amortization)
    }
    blocks_[index] = Block{id, need};
    flags_[index] = kOccupiedBit | kReferencedBit;
    slots_[pos] = Slot{id, index};
    ++count_;
    used_ += need;
    ++stats_.insertions;
  }
  while (used_ > capacity_.count()) evictOne();
}

void BlockCache::sizeTable(std::size_t slots) {
  // dcache-lint: allow(hot-path-alloc, at construction, on clear() and per table doubling at 70% load, amortized O(1) per insert)
  slots_.assign(slots, Slot{});
  mask_ = slots - 1;
  shift_ = 64 - std::countr_zero(slots);
}

void BlockCache::eraseSlot(std::size_t pos) noexcept {
  slots_[pos] = Slot{};
  std::size_t hole = pos;
  for (std::size_t i = (pos + 1) & mask_; slots_[i].block != kNoBlock;
       i = (i + 1) & mask_) {
    // The occupant can move into the hole iff its home is outside the
    // (hole, i] segment — the standard backward-shift condition.
    if (((i - home(slots_[i].id)) & mask_) >= ((i - hole) & mask_)) {
      slots_[hole] = slots_[i];
      slots_[i] = Slot{};
      hole = i;
    }
  }
}

bool BlockCache::maybeGrow() {
  if ((count_ + 1) * 10 <= slots_.size() * 7) return false;
  const std::vector<Slot> old = std::move(slots_);
  sizeTable(old.size() * 2);
  for (const Slot& slot : old) {
    if (slot.block == kNoBlock) continue;
    std::size_t pos = home(slot.id);
    while (slots_[pos].block != kNoBlock) pos = (pos + 1) & mask_;
    slots_[pos] = slot;
  }
  return true;
}

void BlockCache::evictOne() {
  cache::cacheInvariant(count_ > 0, "block-clock",
                        "evictOne with no resident blocks: accounted bytes "
                        "drifted from the block set");
  for (;;) {
    if (++hand_ == blocks_.size()) hand_ = 0;  // (hand + 1) % highWater
    std::uint8_t& flags = flags_[hand_];
    if (!(flags & kOccupiedBit)) continue;
    if (flags & kReferencedBit) {
      flags = kOccupiedBit;  // second chance
      continue;
    }
    const Block& block = blocks_[hand_];
    used_ -= block.charged;
    bool found = false;
    eraseSlot(probe(block.id, found));
    flags = 0;
    // dcache-lint: allow(hot-path-alloc, free-list growth is bounded by the block index high-water mark, then pure reuse)
    free_.push_back(static_cast<std::uint32_t>(hand_));
    --count_;
    ++stats_.evictions;
    return;
  }
}

}  // namespace dcache::storage
