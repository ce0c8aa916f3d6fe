// Key-value engine — the TiKV stand-in. Each key holds one version, the
// newest: a write replaces it in place, and a commit at or below the held
// version is rejected. No simulated path reads an older version, so none is
// kept, and none deletes a key. Values carry a logical size apart from the
// optional payload, so simulating 1 MB values does not cost 1 MB of host
// RAM each.
//
// Layout, sized for bulk loads of millions of keys: each key is one 48-byte
// entry in a NodeSlab (entries never move and are never released). The key
// comes first — inline up to 16 bytes, else in a KeyArena — then its value:
// the payload's length, the logical size, the version and a reference to
// the payload's bytes. Those bytes live in a second KeyArena, apart from
// the keys: an overwrite gives the old block back to its size class, so
// rewriting a row allocates nothing once warm, while key bytes are never
// given back. KV values have no payload and take no block. Reads return a
// ValueView whose payload views the arena; it is valid until the next write
// to that key. One open-addressing index of 8-byte {32-bit hash, id} slots
// serves point reads: probe positions come from the stored hash, so growth
// re-places slots without re-hashing keys, and a full key compare decides
// equality.
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
  /// Longest payload put() accepts, below the payload arena's largest
  /// block; longer payloads are rejected.
  static constexpr std::size_t kMaxPayloadBytes = (std::size_t{1} << 31) - 1;

  /// Write `value` at `commitTs` as `key`'s one version, replacing the held
  /// one; the payload is copied into the engine, so it must not view the
  /// engine's own payload bytes. Timestamps must be
  /// monotone per key; a commit at or below the held version is rejected
  /// (returns false) — this is the guard the delayed-writes scenario
  /// probes. So are keys past kMaxKeyBytes and payloads past
  /// kMaxPayloadBytes.
  bool put(std::string_view key, StoredValue value, std::uint64_t commitTs);

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
  static constexpr std::size_t kInlineKeyBytes = 16;

  struct Entry {
    union {
      char inlineKey[kInlineKeyBytes] = {};  // keys up to kInlineKeyBytes
      const char* arenaKey;                  // longer keys, in keys_
    };
    std::uint32_t keySize = 0;
    std::uint32_t payloadSize = 0;    // 0: no block in payloads_
    std::uint64_t size = 0;           // logical bytes
    std::uint64_t version = 0;        // commit timestamp
    cache::KeyArena::Ref payload{};   // in payloads_ if payloadSize > 0

    [[nodiscard]] std::string_view key() const noexcept {
      return {keySize <= kInlineKeyBytes ? inlineKey : arenaKey, keySize};
    }
  };
  struct Slot { std::uint32_t hash = 0; std::uint32_t id = kNoEntry; };
  static_assert(sizeof(Entry) <= 48, "a KvEngine entry grew past 48 bytes");
  static_assert(sizeof(Slot) == 8, "a KvEngine index slot grew past 8 bytes");
  static_assert(kMaxPayloadBytes <= cache::KeyArena::kMaxBytes,
                "the payload arena cannot hold the longest payload");

  [[nodiscard]] std::uint32_t find(std::uint32_t hash,
                                   std::string_view key) const noexcept;
  void place(std::uint32_t hash, std::uint32_t id) noexcept;
  void growIndex(std::size_t slots);
  void storeKey(Entry& entry, std::string_view key);

  cache::NodeSlab<Entry> entries_;  // ids 0, 1, 2, ...; never released
  cache::KeyArena keys_;      // bytes of keys past kInlineKeyBytes; kept
  cache::KeyArena payloads_;  // payload bytes; an overwrite recycles them
  std::vector<Slot> index_;  // power-of-two linear probing, <= 70 % full
  std::size_t indexMask_ = 0;
  std::uint64_t liveBytes_ = 0;  // every key's logical value bytes
  std::uint64_t writes_ = 0;
};

}  // namespace dcache::storage
