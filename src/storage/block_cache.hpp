// Storage-layer block cache — the "Base" architecture's cache (Fig. 1a).
// TiKV-style: rows live in fixed-granularity blocks; a read that misses
// pays the disk path, a hit pays only a probe. CLOCK eviction, matching the
// lock-free approximation real block caches use. Writes are applied
// write-through (a freshly written row sits in the memtable, so an
// immediately following read is cheap — write-invalidate would overstate
// disk traffic).
//
// Runs on FlatCache's Clock mode (flat_cache.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "cache/flat_cache.hpp"
#include "util/hash.hpp"

namespace dcache::storage {

class BlockCache {
 public:
  static constexpr std::uint64_t kBlockBytes = 4096;

  explicit BlockCache(util::Bytes capacity)
      : cache_(cache::FlatMode::kClock, capacity) {}

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

  /// Drop the block containing the key (compaction, explicit invalidation).
  void invalidate(std::uint64_t keyHash);
  void invalidate(std::string_view key) { invalidate(util::hashKey(key)); }

  /// Drop everything — a storage-node crash/restart comes back cold.
  void clear() { cache_.clear(); }

  [[nodiscard]] const cache::CacheStats& stats() const noexcept {
    return cache_.stats();
  }
  [[nodiscard]] util::Bytes bytesUsed() const noexcept {
    return cache_.bytesUsed();
  }
  [[nodiscard]] util::Bytes capacity() const noexcept {
    return cache_.capacity();
  }

  /// Block identifier for a key: the top 60 bits of its 64-bit hash. Keys
  /// share a block only when those bits agree; with a million keys the
  /// expected number of keys that share one is below 1e-6. So in effect
  /// each block holds one row, and the neighbours a real block read drags
  /// into memory are not modelled.
  [[nodiscard]] static std::string blockIdFor(std::string_view key);
  /// blockIdFor by key hash into a caller-provided scratch buffer.
  static void blockIdTo(std::uint64_t keyHash, std::string& out);
  /// Bytes charged for a block holding a row of `rowBytes`.
  [[nodiscard]] static std::uint64_t blockSizeFor(std::uint64_t rowBytes) noexcept {
    return rowBytes > kBlockBytes ? rowBytes : kBlockBytes;
  }

 private:
  cache::FlatCache cache_;
  /// Per-op block-id scratch; valid only within one touch/invalidate call.
  std::string idScratch_;
};

}  // namespace dcache::storage
