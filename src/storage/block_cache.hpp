// Storage-layer block cache — the "Base" architecture's cache (Fig. 1a).
// TiKV-style: rows live in fixed-granularity blocks; a read that misses
// pays the disk path, a hit pays only a probe. CLOCK eviction, matching the
// lock-free approximation real block caches use. Writes are applied
// write-through (a freshly written row sits in the memtable, so an
// immediately following read is cheap — write-invalidate would overstate
// disk traffic).
//
// A block is an integer id (blockIdFor) in a CLOCK of its own: an
// open-addressing table of {id, block index} slots over a dense {id,
// charged bytes} record and one flag byte per block. Indices are reused
// LIFO and the hand sweeps `(hand + 1) % highWater`, the discipline of
// FlatCache's Clock mode, so hits, misses, insertions, overwrites,
// evictions and bytesUsed() follow the sequence of a string-keyed CLOCK
// that holds each block under its id spelled as 17 characters (the
// differential suite, tests/test_cache_differential.cpp, pins it against
// the reference ClockCache).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "cache/kv_cache.hpp"
#include "util/hash.hpp"

namespace dcache::storage {

class BlockCache {
 public:
  static constexpr std::uint64_t kBlockBytes = 4096;

  explicit BlockCache(util::Bytes capacity);

  // Operations take `keyHash` == util::hashKey(key), which the database
  // already has from picking the node; the key-taking forms hash first.

  /// Probe for the block containing the key (a row of `rowBytes`). On a
  /// miss the block is loaded (inserted); the caller charges the disk path.
  /// Returns true on hit.
  bool touchRead(std::uint64_t keyHash, std::uint64_t rowBytes);
  bool touchRead(std::string_view key, std::uint64_t rowBytes) {
    return touchRead(util::hashKey(key), rowBytes);
  }

  /// Apply a write: the row's block is refreshed in cache.
  void touchWrite(std::uint64_t keyHash, std::uint64_t rowBytes);
  void touchWrite(std::string_view key, std::uint64_t rowBytes) {
    touchWrite(util::hashKey(key), rowBytes);
  }

  /// Drop every block — a storage-node crash/restart comes back cold. The
  /// stats are kept.
  void clear();

  [[nodiscard]] const cache::CacheStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] util::Bytes bytesUsed() const noexcept {
    return util::Bytes::of(used_);
  }
  [[nodiscard]] util::Bytes capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t itemCount() const noexcept { return count_; }

  /// Block identifier for a key: the top 60 bits of its 64-bit hash. Keys
  /// share a block only when those bits agree; with a million keys the
  /// expected number of keys that share one is below 1e-6. So in effect
  /// each block holds one row, and the neighbours a real block read drags
  /// into memory are not modelled.
  [[nodiscard]] static std::uint64_t blockIdFor(std::string_view key) noexcept {
    return idOf(util::hashKey(key));
  }
  /// Bytes charged for a block holding a row of `rowBytes`.
  [[nodiscard]] static std::uint64_t blockSizeFor(std::uint64_t rowBytes) noexcept {
    return rowBytes > kBlockBytes ? rowBytes : kBlockBytes;
  }

 private:
  /// Capacity a block takes beside its bytes: the entry overhead every
  /// cache charges and 17 bytes for its id, the id's length spelled as 'b'
  /// and 16 hex digits, which a string-keyed cache charges as the key.
  static constexpr std::uint64_t kBookkeepingBytes =
      17 + cache::kEntryOverheadBytes;
  static constexpr std::uint32_t kNoBlock = 0xffffffffu;
  static constexpr std::size_t kInitialSlots = 16;
  static constexpr std::uint8_t kOccupiedBit = 1;
  static constexpr std::uint8_t kReferencedBit = 2;

  [[nodiscard]] static constexpr std::uint64_t idOf(
      std::uint64_t keyHash) noexcept {
    return keyHash >> 4;
  }

  struct Slot {
    std::uint64_t id = 0;
    std::uint32_t block = kNoBlock;
  };
  struct Block {
    std::uint64_t id = 0;
    std::uint64_t charged = 0;
  };

  /// The table position of a slot for `id` when nothing collides
  /// (Fibonacci hashing, so every id bit reaches the position).
  [[nodiscard]] std::size_t home(std::uint64_t id) const noexcept {
    return static_cast<std::size_t>((id * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  /// The slot holding `id` (found = true) or the empty slot where it would
  /// go (found = false).
  [[nodiscard]] std::size_t probe(std::uint64_t id, bool& found) const noexcept;
  /// Admit or refresh block `id` of a row of `rowBytes`, then evict down
  /// to capacity. `pos`/`found` are `id`'s probe result.
  void put(std::uint64_t id, std::uint64_t rowBytes, std::size_t pos,
           bool found);
  /// An empty table of `slots` (a power of two) slots.
  void sizeTable(std::size_t slots);
  /// Backward-shift deletion: probe chains stay contiguous without
  /// tombstones.
  void eraseSlot(std::size_t pos) noexcept;
  /// Doubles the table at ~70 % load; returns true if the table moved.
  bool maybeGrow();
  void evictOne();

  util::Bytes capacity_;
  std::uint64_t used_ = 0;
  std::size_t count_ = 0;
  cache::CacheStats stats_;
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;  // 64 - log2(slots_.size())
  /// Per block index, dense so the hand sweep stays in cache.
  std::vector<Block> blocks_;
  std::vector<std::uint8_t> flags_;
  /// Indices of evicted blocks, reused last-in first-out.
  std::vector<std::uint32_t> free_;
  std::size_t hand_ = 0;
};

}  // namespace dcache::storage
