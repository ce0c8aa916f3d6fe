// MVCC key-value engine — the TiKV stand-in. Each key holds a version chain
// ordered by commit timestamp: reads see the newest version at or below
// their snapshot, writes append, deletes write tombstones, GC trims history.
// Values carry a logical size apart from the optional payload, so simulating
// 1 MB values does not cost 1 MB of host RAM each.
//
// Layout, sized for bulk loads of millions of keys: each key is one 80-byte
// entry in a NodeSlab (entries never move and are never released). The key
// comes first — inline up to 16 bytes, else in a KeyArena — then the newest
// version, so a point read's key compare and version read touch the same
// part of the entry. Older versions live in a side table, one vector per
// key that has any, found through a uint32 in the entry. One
// open-addressing index of 8-byte {32-bit hash, id} slots serves point
// reads: probe positions come from the stored hash, so growth re-places
// slots without re-hashing keys, and a full key compare decides equality.
// The engine keeps no key order: ids are handed out 0, 1, 2, ... and a
// key's bytes never move, so KeyOrder (key_order.hpp) orders the keys of
// every engine of a tier through keyAt/valueAt.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/slab.hpp"
#include "util/bytes.hpp"

namespace dcache::storage {

struct StoredValue {
  std::uint64_t size = 0;       // logical bytes (== payload.size() if present)
  std::uint64_t version = 0;    // commit timestamp that wrote this version
  std::string payload;          // real bytes for functional tables
  bool tombstone = false;

  [[nodiscard]] static StoredValue sized(std::uint64_t size) {
    return StoredValue{size, 0, {}, false};
  }
  [[nodiscard]] static StoredValue of(std::string payload) {
    const auto n = static_cast<std::uint64_t>(payload.size());
    return StoredValue{n, 0, std::move(payload), false};
  }
};

class KvEngine {
 public:
  static constexpr std::uint64_t kLatest = UINT64_MAX;
  /// Longest key put() accepts, so that KeyOrder's 16-bit record size
  /// holds every key; longer keys are rejected.
  static constexpr std::size_t kMaxKeyBytes = UINT16_MAX;

  /// Append a version at `commitTs`. Timestamps must be monotone per key;
  /// out-of-order commits are rejected (returns false) — this is the
  /// guard the delayed-writes scenario probes. So are keys past
  /// kMaxKeyBytes.
  bool put(std::string_view key, StoredValue value, std::uint64_t commitTs);

  /// Tombstone write.
  bool erase(std::string_view key, std::uint64_t commitTs) {
    return put(key, StoredValue{0, 0, {}, true}, commitTs);
  }

  /// Latest visible version at `snapshotTs` (kLatest = newest). Returns
  /// nullptr for missing keys and tombstones. The pointer is valid until
  /// the next write to this key or the next gc().
  [[nodiscard]] const StoredValue* get(std::string_view key,
                                       std::uint64_t snapshotTs = kLatest) const;

  /// Whether `key` holds any version, a tombstone included.
  [[nodiscard]] bool contains(std::string_view key) const noexcept {
    return find(indexHash(key), key) != kNoEntry;
  }

  /// Version of the newest visible value; nullopt if absent/deleted.
  [[nodiscard]] std::optional<std::uint64_t> latestVersion(
      std::string_view key) const {
    const StoredValue* v = get(key);
    return v ? std::optional(v->version) : std::nullopt;
  }

  /// Drop all but the newest `keep` versions of every key. Returns number
  /// of versions reclaimed.
  std::size_t gc(std::size_t keep = 2);

  /// Pre-size the point index for `expectedKeys` keys, so a deployment's
  /// bulk load never regrows it.
  void reserveKeys(std::size_t expectedKeys);

  /// Keys ever written; ids run 0 .. keyCount() - 1 in write order.
  [[nodiscard]] std::size_t keyCount() const noexcept {
    return entries_.highWater();
  }
  /// The key of `id`. Its bytes never move: keys are immutable and neither
  /// entries nor arena chunks are ever freed.
  [[nodiscard]] std::string_view keyAt(std::uint32_t id) const noexcept {
    return entries_[id].key();
  }
  /// The version of `id` visible at `snapshotTs`, as get() finds it.
  [[nodiscard]] const StoredValue* valueAt(
      std::uint32_t id, std::uint64_t snapshotTs) const noexcept {
    return visibleAt(entries_[id], snapshotTs);
  }
  [[nodiscard]] util::Bytes liveBytes() const noexcept {
    return util::Bytes::of(liveBytes_);
  }
  [[nodiscard]] std::uint64_t writeCount() const noexcept { return writes_; }

  /// The 32-bit key hash the point index stores and probes by. Equal
  /// hashes are legal; only the key compare decides a match.
  [[nodiscard]] static std::uint32_t indexHash(std::string_view key) noexcept;

 private:
  static constexpr std::uint32_t kNoEntry = UINT32_MAX;
  static constexpr std::uint32_t kNoHistory = UINT32_MAX;
  static constexpr std::size_t kInlineKeyBytes = 16;

  struct Entry {
    union {
      char inlineKey[kInlineKeyBytes] = {};  // keys up to kInlineKeyBytes
      const char* arenaKey;                  // longer keys, in keys_
    };
    std::uint32_t keySize = 0;
    std::uint32_t history = kNoHistory;  // history_ index of older versions
    StoredValue newest;                  // every entry holds >= 1 version

    [[nodiscard]] std::string_view key() const noexcept {
      return {keySize <= kInlineKeyBytes ? inlineKey : arenaKey, keySize};
    }
  };
  struct Slot { std::uint32_t hash = 0; std::uint32_t id = kNoEntry; };
  static_assert(sizeof(Entry) <= 80, "a KvEngine entry grew past 80 bytes");
  static_assert(sizeof(Slot) == 8, "a KvEngine index slot grew past 8 bytes");

  /// Newest version at or below `snapshotTs`; nullptr if none or tombstone.
  [[nodiscard]] const StoredValue* visibleAt(
      const Entry& entry, std::uint64_t snapshotTs) const noexcept;
  [[nodiscard]] std::uint32_t find(std::uint32_t hash,
                                   std::string_view key) const noexcept;
  void place(std::uint32_t hash, std::uint32_t id) noexcept;
  void growIndex(std::size_t slots);
  void storeKey(Entry& entry, std::string_view key);

  cache::NodeSlab<Entry> entries_;  // ids 0, 1, 2, ...; never released
  cache::KeyArena keys_;            // bytes of keys past kInlineKeyBytes
  /// Older versions of each key that was overwritten, ascending by version.
  std::vector<std::vector<StoredValue>> history_;
  std::vector<Slot> index_;  // power-of-two linear probing, <= 70 % full
  std::size_t indexMask_ = 0;
  std::uint64_t liveBytes_ = 0;  // newest non-tombstone version per key
  std::uint64_t writes_ = 0;
};

}  // namespace dcache::storage
