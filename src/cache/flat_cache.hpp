// MICA-style flat cache: one open-addressing index (power-of-two, linear
// probing, stored 64-bit hashes, backward-shift deletion) over a chunked
// slab of 56-byte nodes (entry size and version, key inline up to 24 bytes)
// with intrusive uint32 recency links — zero per-entry heap allocations on
// the serve path. The simulator's only LRU, FIFO and Clock
// (SLRU runs on two flat LRU segments). The differential fuzz suite
// (tests/test_cache_differential.cpp) drives it in lockstep with the
// textbook list/map oracles in tests/reference/.
//
// Sequence-identity notes:
//  - LRU/FIFO eviction order is carried entirely by the intrusive list, so
//    slot-allocation order cannot affect behaviour.
//  - Clock matches the reference ClockCache exactly: node indices are
//    handed out with the same LIFO-freelist/bump discipline as its slot
//    vector, and the hand sweeps `(hand + 1) % highWater` over occupied
//    nodes with the same second-chance bit.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "cache/kv_cache.hpp"
#include "cache/slab.hpp"

namespace dcache::cache {

/// Which eviction behaviour a FlatCache instance provides.
enum class FlatMode : std::uint8_t {
  kLru,
  kFifo,
  kClock,
};

class FlatCache final : public KvCache {
 public:
  FlatCache(FlatMode mode, util::Bytes capacity);

  [[nodiscard]] const CacheEntry* get(std::string_view key) override;
  void put(std::string_view key, CacheEntry entry) override;
  bool erase(std::string_view key) override;
  void clear() override;
  [[nodiscard]] const CacheEntry* peek(std::string_view key) const override;
  void forEachEntry(
      const std::function<void(std::string_view, const CacheEntry&)>& fn)
      const override;

  [[nodiscard]] std::size_t itemCount() const noexcept override {
    return count_;
  }
  [[nodiscard]] util::Bytes bytesUsed() const noexcept override {
    return util::Bytes::of(used_);
  }
  [[nodiscard]] util::Bytes capacity() const noexcept override {
    return capacity_;
  }

  [[nodiscard]] FlatMode mode() const noexcept { return mode_; }

  /// Next eviction candidate for LRU/FIFO (empty when the cache is empty or
  /// in clock mode) — victim parity with the reference LRU in tests.
  [[nodiscard]] std::string_view victim() const noexcept;

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  static constexpr std::uint32_t kInlineKeyBytes = 24;
  static constexpr std::size_t kInitialTableSlots = 16;

  /// Entry size/version + key storage, 56 bytes. Hot per-probe data lives
  /// elsewhere: the key hash is in the table slot (probes never touch nodes
  /// until the final key verify), recency links are in links_ and clock
  /// bits in flags_ (dense parallel arrays), so the randomly-accessed node
  /// records are touched exactly once per hit.
  struct Node {
    CacheEntry entry;
    KeyArena::Ref keyRef;
    std::uint32_t keyLength = 0;
    /// This node's slab index — links_/flags_ subscript. Kept in the node
    /// so the table can hold direct pointers (one load) and the index is
    /// free once the node is touched.
    std::uint32_t self = 0;
    char inlineKey[kInlineKeyBytes];
  };
  static_assert(sizeof(Node) == 56, "a FlatCache node is no longer 56 bytes");

  /// Open-addressing slot: full stored hash + direct node pointer (slab
  /// chunks never move, so pointers are stable). Storing the whole hash
  /// keeps probe chains, backward-shift deletion and table growth off the
  /// node records entirely; the pointer keeps the hit path at one
  /// dependent load from slot to entry.
  struct TableSlot {
    std::uint64_t hash = 0;
    Node* node = nullptr;
  };

  struct Links {
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  static constexpr std::uint8_t kOccupiedBit = 1;
  static constexpr std::uint8_t kReferencedBit = 2;

  [[nodiscard]] std::string_view keyOf(const Node& node) const noexcept {
    return node.keyLength <= kInlineKeyBytes
               ? std::string_view(node.inlineKey, node.keyLength)
               : arena_.view(node.keyRef, node.keyLength);
  }
  void storeKey(Node& node, std::string_view key);
  void releaseKey(Node& node);

  /// Single probe serving both lookup and insert: returns the matching
  /// slot (found = true) or the first empty slot where `key` would be
  /// inserted (found = false) — callers never probe a cluster twice.
  [[nodiscard]] std::size_t probePos(std::uint64_t hash, std::string_view key,
                                     bool& found) const noexcept;
  /// Table position whose slot references `key`, or kNpos on miss.
  [[nodiscard]] std::size_t findPos(std::uint64_t hash,
                                    std::string_view key) const noexcept;
  /// Ensure links_/flags_ cover node `index` (slab indices are dense).
  void ensureSideArrays(std::uint32_t index) {
    if (index < links_.size()) [[likely]] return;
    growSideArrays(index);
  }
  void growSideArrays(std::uint32_t index);
  /// Backward-shift deletion: keeps probe chains contiguous without
  /// tombstones, so lookups stay O(cluster) under churn.
  void tableEraseAt(std::size_t pos) noexcept;
  /// Doubles the table at ~70% load; returns true if the table moved.
  bool maybeGrow();

  void linkFront(std::uint32_t index) noexcept;
  void unlink(std::uint32_t index) noexcept;
  void moveToFront(std::uint32_t index) noexcept;

  void evictOne();
  void evictClock();
  void removeNode(std::size_t pos, std::uint32_t index);

  FlatMode mode_;
  util::Bytes capacity_;
  std::uint64_t used_ = 0;
  std::size_t count_ = 0;
  NodeSlab<Node> slab_;
  KeyArena arena_;
  std::vector<TableSlot> table_;
  std::size_t mask_ = 0;
  /// Intrusive recency links (LRU/FIFO), indexed by node — dense so a
  /// moveToFront touches ~24 bytes of contiguous memory, not three nodes.
  std::vector<Links> links_;
  /// Clock occupied/referenced bits, indexed by node — dense so the hand
  /// sweep stays in cache.
  std::vector<std::uint8_t> flags_;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::size_t hand_ = 0;
};

}  // namespace dcache::cache
