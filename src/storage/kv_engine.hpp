// Key-value engine — the TiKV stand-in. Each key holds one version, the
// newest: a write replaces it in place, and a commit at or below the held
// version is rejected. No simulated path reads an older version, so none is
// kept, and none deletes a key. Values carry a logical size apart from the
// optional payload, so simulating 1 MB values does not cost 1 MB of host
// RAM each.
//
// Layout, sized for bulk loads of millions of keys: each key is one 48-byte
// entry in a NodeSlab (entries never move and are never released). The
// entry holds the key's first 16 bytes inline, then its value: the
// payload's length, the logical size, the version and a reference to one
// block in a KeyArena. That block holds the key's bytes past 16, its tail,
// followed by the payload's bytes, so a read of a long-keyed row compares
// the tail and finds the payload in the same block. An overwrite writes
// the tail from the key being put into a new block and gives the old block
// back to its size class, so rewriting a row allocates nothing once warm.
// A key of 16 bytes or fewer with no payload, a KV value, takes no block.
// Reads return a ValueView whose payload views the arena; it is valid
// until the next write to that key. One open-addressing index of 8-byte
// {32-bit hash, id} slots serves point reads: probe positions come from the
// stored hash, so growth re-places slots without re-hashing keys, and a
// full key compare decides equality.
// The engine keeps no key order and serves point operations only: a
// Database puts rows and KV values here and reads them by key, while
// secondary-index entries live in an IndexOrder (index_order.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/slab.hpp"
#include "util/bytes.hpp"

namespace dcache::storage {

/// A value as put() takes it. put() copies the payload bytes into the
/// engine's arena, so they need outlive only the call: a caller can encode
/// every row into one reused buffer.
struct StoredValue {
  std::uint64_t size = 0;     // logical bytes (>= payload.size())
  std::string_view payload;   // real bytes for functional tables

  [[nodiscard]] static StoredValue sized(std::uint64_t size) {
    return StoredValue{size, {}};
  }
  [[nodiscard]] static StoredValue of(std::string_view payload) {
    return StoredValue{payload.size(), payload};
  }
};

/// A key's value as get() reads it. `payload` views the engine's bytes and
/// is valid until the next write to that key.
struct ValueView {
  std::uint64_t size = 0;     // logical bytes
  std::uint64_t version = 0;  // commit timestamp that wrote the value
  std::string_view payload;   // real bytes for functional tables
};

class KvEngine {
 public:
  /// Longest key put() accepts, so that an IndexOrder record's 16-bit
  /// length holds the bytes of every index key past its base; longer keys
  /// are rejected.
  static constexpr std::size_t kMaxKeyBytes = UINT16_MAX;
  /// Bytes of a key its entry holds inline; the rest, the key's tail,
  /// shares one arena block with the payload.
  static constexpr std::size_t kInlineKeyBytes = 16;
  /// Longest payload put() accepts: with the longest key tail it still
  /// fits the arena's largest block. Longer payloads are rejected.
  static constexpr std::size_t kMaxPayloadBytes =
      cache::KeyArena::kMaxBytes - (kMaxKeyBytes - kInlineKeyBytes);

  /// Write `value` at `commitTs` as `key`'s one version, replacing the held
  /// one; the payload is copied into the engine, so it must not view the
  /// engine's own payload bytes. Timestamps must be
  /// monotone per key; a commit at or below the held version is rejected
  /// (returns false) — this is the guard the delayed-writes scenario
  /// probes. So are keys past kMaxKeyBytes and payloads past
  /// kMaxPayloadBytes.
  bool put(std::string_view key, StoredValue value, std::uint64_t commitTs);

  /// put() for a key the engine does not hold, in one probe: a held key is
  /// refused (returns false) and keeps its value, whatever its version.
  bool putNew(std::string_view key, StoredValue value, std::uint64_t commitTs);

  /// The value of `key`; nullopt for a missing key. The payload view is
  /// valid until the next write to this key.
  [[nodiscard]] std::optional<ValueView> get(std::string_view key) const;

  /// Whether `key` holds a value.
  [[nodiscard]] bool contains(std::string_view key) const noexcept {
    return find(indexHash(key), key) != kNoEntry;
  }

  /// Version of the key's value; nullopt if absent.
  [[nodiscard]] std::optional<std::uint64_t> latestVersion(
      std::string_view key) const {
    const std::optional<ValueView> v = get(key);
    return v ? std::optional(v->version) : std::nullopt;
  }

  /// Pre-size the point index for `expectedKeys` keys, so a deployment's
  /// bulk load never regrows it.
  void reserveKeys(std::size_t expectedKeys);

  /// Keys held.
  [[nodiscard]] std::size_t keyCount() const noexcept {
    return entries_.highWater();
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

  struct Entry {
    char keyHead[kInlineKeyBytes] = {};  // the key's first bytes
    std::uint32_t keySize = 0;
    std::uint32_t payloadSize = 0;
    std::uint64_t size = 0;           // logical bytes
    std::uint64_t version = 0;        // commit timestamp
    cache::KeyArena::Ref block{};     // tail, then payload, if blockSize() > 0

    [[nodiscard]] std::size_t tailSize() const noexcept {
      return keySize > kInlineKeyBytes ? keySize - kInlineKeyBytes : 0;
    }
    [[nodiscard]] std::size_t blockSize() const noexcept {
      return tailSize() + payloadSize;
    }
  };
  struct Slot { std::uint32_t hash = 0; std::uint32_t id = kNoEntry; };
  static_assert(sizeof(Entry) <= 48, "a KvEngine entry grew past 48 bytes");
  static_assert(sizeof(Slot) == 8, "a KvEngine index slot grew past 8 bytes");
  static_assert((kMaxKeyBytes - kInlineKeyBytes) + kMaxPayloadBytes <=
                    cache::KeyArena::kMaxBytes,
                "the longest key tail and payload do not fit one block");

  [[nodiscard]] std::uint32_t find(std::uint32_t hash,
                                   std::string_view key) const noexcept;
  /// Whether `entry` holds `key`: its length, its inline head and, past
  /// 16 bytes, its tail in the entry's block.
  [[nodiscard]] bool holds(const Entry& entry,
                           std::string_view key) const noexcept {
    if (entry.keySize != key.size()) return false;
    if (key.size() <= kInlineKeyBytes) {
      return std::string_view(entry.keyHead, key.size()) == key;
    }
    return std::string_view(entry.keyHead, kInlineKeyBytes) ==
               key.substr(0, kInlineKeyBytes) &&
           blocks_.view(entry.block, entry.tailSize()) ==
               key.substr(kInlineKeyBytes);
  }
  void place(std::uint32_t hash, std::uint32_t id) noexcept;
  void growIndex(std::size_t slots);
  /// put() and putNew(); `overwrite` says whether a held key is rewritten.
  bool write(std::string_view key, StoredValue value, std::uint64_t commitTs,
             bool overwrite);

  cache::NodeSlab<Entry> entries_;  // ids 0, 1, 2, ...; never released
  cache::KeyArena blocks_;  // key tails and payloads; an overwrite recycles
  std::vector<Slot> index_;  // power-of-two linear probing, <= 70 % full
  std::size_t indexMask_ = 0;
  std::uint64_t liveBytes_ = 0;  // every key's logical value bytes
  std::uint64_t writes_ = 0;
};

}  // namespace dcache::storage
