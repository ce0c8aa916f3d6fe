// Byte-capacity-bounded key-value cache interface and the entry/statistics
// types shared by all eviction policies. An entry is an accounted logical
// size and a version, never the value bytes, so a simulation over 1 MB
// values does not need gigabytes of host RAM while the hit/miss behaviour
// stays exact: admission and eviction are driven purely by the accounted
// sizes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>

#include "util/bytes.hpp"

namespace dcache::cache {

/// Cached value: `size` is the logical value size used for capacity math,
/// `version` the storage version it was filled from.
struct CacheEntry {
  std::uint64_t size = 0;
  std::uint64_t version = 0;

  [[nodiscard]] static CacheEntry sized(std::uint64_t size,
                                        std::uint64_t version = 0) {
    return CacheEntry{size, version};
  }
};

/// Counter semantics, shared by every policy so identical op streams
/// produce identical stats:
///   - `hits`/`misses` count `get` calls only; `peek` never touches stats.
///   - `insertions` counts puts admitted as a NEW resident key.
///   - `overwrites` counts puts that replaced an already-resident entry.
///   - A put rejected up front (charged size exceeds total capacity) counts
///     as neither insertion nor overwrite.
///   - `evictions` counts entries removed by capacity pressure; explicit
///     `erase` is not an eviction.
///   - `hitRatio()` and `missRatio()` both return 0.0 before any lookup.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t overwrites = 0;
  std::uint64_t evictions = 0;

  [[nodiscard]] std::uint64_t lookups() const noexcept { return hits + misses; }
  [[nodiscard]] double hitRatio() const noexcept {
    const auto n = lookups();
    return n ? static_cast<double>(hits) / static_cast<double>(n) : 0.0;
  }
  [[nodiscard]] double missRatio() const noexcept {
    const auto n = lookups();
    return n ? static_cast<double>(misses) / static_cast<double>(n) : 0.0;
  }
  void clear() noexcept { *this = CacheStats{}; }
};

/// Fixed per-entry bookkeeping overhead charged against capacity (hash map
/// node, list links, sizes) — matches what production caches account for.
inline constexpr std::uint64_t kEntryOverheadBytes = 80;

[[nodiscard]] inline std::uint64_t chargedSize(std::string_view key,
                                               const CacheEntry& entry) noexcept {
  return entry.size + key.size() + kEntryOverheadBytes;
}

/// Aborts with a diagnostic on stderr. Split out of cacheInvariant so the
/// inlined fast path is a single predictable branch.
[[noreturn]] void cacheInvariantFailure(const char* policy, const char* what);

/// Always-on accounting invariant (active under NDEBUG too: the eviction
/// loops run in RelWithDebInfo benches where a plain assert would vanish).
/// A violation means byte accounting drifted from the resident entries —
/// aborting beats silently re-zeroing `used_` and masking the drift.
inline void cacheInvariant(bool condition, const char* policy,
                           const char* what) {
  if (!condition) [[unlikely]] {
    cacheInvariantFailure(policy, what);
  }
}

class KvCache {
 public:
  virtual ~KvCache() = default;

  KvCache(const KvCache&) = delete;
  KvCache& operator=(const KvCache&) = delete;

  /// Pointer valid until the next mutating call; nullptr on miss.
  [[nodiscard]] virtual const CacheEntry* get(std::string_view key) = 0;
  /// Insert or overwrite. Evicts as needed; an entry larger than the whole
  /// capacity is not admitted.
  virtual void put(std::string_view key, CacheEntry entry) = 0;
  virtual bool erase(std::string_view key) = 0;
  virtual void clear() = 0;

  /// Peek without affecting recency or hit/miss statistics.
  [[nodiscard]] virtual const CacheEntry* peek(std::string_view key) const = 0;

  /// Enumerate every resident entry (bulk operations: membership handoff
  /// snapshots, audits). Like peek, never touches recency or stats. The
  /// visit order is policy-defined but deterministic — membership handoff
  /// migrates keys in this order, so it is part of the golden output. The
  /// callback must not mutate the cache.
  virtual void forEachEntry(
      const std::function<void(std::string_view, const CacheEntry&)>& fn)
      const = 0;

  [[nodiscard]] virtual std::size_t itemCount() const noexcept = 0;
  [[nodiscard]] virtual util::Bytes bytesUsed() const noexcept = 0;
  [[nodiscard]] virtual util::Bytes capacity() const noexcept = 0;

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  void clearStats() noexcept { stats_.clear(); }

 protected:
  KvCache() = default;
  CacheStats stats_;
};

/// Eviction policy selector for the factory.
enum class EvictionPolicy : std::uint8_t {
  kLru,
  kFifo,
  kClock,
  kSlru,
  kLfu,
  kS3Fifo,
};

[[nodiscard]] std::string_view evictionPolicyName(EvictionPolicy p) noexcept;

/// Build a cache of the given policy and byte capacity. LRU, FIFO and Clock
/// are a FlatCache (flat_cache.hpp) and SLRU runs on two flat LRU segments;
/// LFU and S3-FIFO keep their node-based structures.
[[nodiscard]] std::unique_ptr<KvCache> makeCache(EvictionPolicy policy,
                                                 util::Bytes capacity);

}  // namespace dcache::cache
