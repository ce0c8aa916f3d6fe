// Key-value engine — the TiKV stand-in. Each key holds one version, the
// newest: a write replaces it in place, a delete writes a tombstone, and a
// commit at or below the held version is rejected. No simulated path reads
// an older version, so none is kept. Values carry a logical size apart from
// the optional payload, so simulating 1 MB values does not cost 1 MB of
// host RAM each.
//
// Layout, sized for bulk loads of millions of keys: each key is one 80-byte
// entry in a NodeSlab (entries never move and are never released). The key
// comes first — inline up to 16 bytes, else in a KeyArena — then its value,
// so a point read's key compare and value read touch the same part of the
// entry. One open-addressing index of 8-byte {32-bit hash, id} slots serves
// point reads: probe positions come from the stored hash, so growth
// re-places slots without re-hashing keys, and a full key compare decides
// equality. The engine keeps no key order: ids are handed out 0, 1, 2, ...
// and a key's bytes never move, so a KeyOrder (key_order.hpp) orders the
// keys of every engine of a tier under one base prefix through
// keyAt/valueAt.
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
  /// Longest key put() accepts, so that KeyOrder's 16-bit record size
  /// holds every key; longer keys are rejected.
  static constexpr std::size_t kMaxKeyBytes = UINT16_MAX;

  /// Write `value` at `commitTs` as `key`'s one version, replacing the held
  /// one. Timestamps must be monotone per key; a commit at or below the
  /// held version is rejected (returns false) — this is the guard the
  /// delayed-writes scenario probes. So are keys past kMaxKeyBytes.
  bool put(std::string_view key, StoredValue value, std::uint64_t commitTs);

  /// Tombstone write.
  bool erase(std::string_view key, std::uint64_t commitTs) {
    return put(key, StoredValue{0, 0, {}, true}, commitTs);
  }

  /// The value of `key`; nullptr for missing keys and tombstones. The
  /// pointer is valid until the next write to this key.
  [[nodiscard]] const StoredValue* get(std::string_view key) const;

  /// Whether `key` holds any version, a tombstone included.
  [[nodiscard]] bool contains(std::string_view key) const noexcept {
    return find(indexHash(key), key) != kNoEntry;
  }

  /// Version of the key's value; nullopt if absent or deleted.
  [[nodiscard]] std::optional<std::uint64_t> latestVersion(
      std::string_view key) const {
    const StoredValue* v = get(key);
    return v ? std::optional(v->version) : std::nullopt;
  }

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
  /// The value of `id`, as get() finds it.
  [[nodiscard]] const StoredValue* valueAt(std::uint32_t id) const noexcept {
    return visible(entries_[id]);
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
  static constexpr std::size_t kInlineKeyBytes = 16;

  struct Entry {
    union {
      char inlineKey[kInlineKeyBytes] = {};  // keys up to kInlineKeyBytes
      const char* arenaKey;                  // longer keys, in keys_
    };
    std::uint32_t keySize = 0;
    StoredValue value;  // a tombstone once the key is deleted

    [[nodiscard]] std::string_view key() const noexcept {
      return {keySize <= kInlineKeyBytes ? inlineKey : arenaKey, keySize};
    }
  };
  struct Slot { std::uint32_t hash = 0; std::uint32_t id = kNoEntry; };
  static_assert(sizeof(Entry) <= 80, "a KvEngine entry grew past 80 bytes");
  static_assert(sizeof(Slot) == 8, "a KvEngine index slot grew past 8 bytes");

  /// The entry's value; nullptr if it is a tombstone.
  [[nodiscard]] static const StoredValue* visible(const Entry& entry) noexcept {
    return entry.value.tombstone ? nullptr : &entry.value;
  }
  [[nodiscard]] std::uint32_t find(std::uint32_t hash,
                                   std::string_view key) const noexcept;
  void place(std::uint32_t hash, std::uint32_t id) noexcept;
  void growIndex(std::size_t slots);
  void storeKey(Entry& entry, std::string_view key);

  cache::NodeSlab<Entry> entries_;  // ids 0, 1, 2, ...; never released
  cache::KeyArena keys_;            // bytes of keys past kInlineKeyBytes
  std::vector<Slot> index_;  // power-of-two linear probing, <= 70 % full
  std::size_t indexMask_ = 0;
  std::uint64_t liveBytes_ = 0;  // every key's value, tombstones aside
  std::uint64_t writes_ = 0;
};

}  // namespace dcache::storage
