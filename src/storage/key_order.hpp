// One key order for a whole KV tier. A Database shards its keys over one
// KvEngine per storage node; this orders the keys of every engine, so a
// prefix scan binary-searches once, not once per engine.
//
// The keys fall into key families, each ordered on its own. A family rule
// (KeyFamilyFn) names each key's family: a prefix of the key, such that
// ordering by (family, key) is ordering by key, and such that a family
// shorter than one of its keys holds every key that starts with it. So
// families never interleave in key order, and a prefix scan reaches either
// inside one family or over whole families (Database::keyFamily is the
// rule for its key layout).
//
// A record is 16 bytes: a pointer to the key's bytes, its size, its shard
// and its id in that shard's engine. The bytes are the engine's own and
// never move: keys are immutable, entries are never released and arena
// chunks never freed.
// New keys are not ordered when they are put. Each shard's keys past the
// count already routed wait in its engine until the next scan, which routes
// each of them to its family's record array, reserved to the exact count.
// A family is sorted only when a scan first reaches it: its keys routed
// since are sorted and merged into the sorted ones, comparing only the
// bytes past the family prefix. Callers that never scan (the KV path) never
// pay for ordering, and a family no scan reaches is never sorted.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "storage/kv_engine.hpp"

namespace dcache::storage {

/// The length of the family prefix of `key` (see the header comment).
using KeyFamilyFn = std::size_t (*)(std::string_view key);

class KeyOrder {
 public:
  static constexpr std::size_t kMaxShards = std::size_t{UINT16_MAX} + 1;

  /// An empty order over `shards` engines, its keys in families by
  /// `family`; throws std::invalid_argument past kMaxShards.
  KeyOrder(std::size_t shards, KeyFamilyFn family);

  /// Visit the keys of `engines` that start with `prefix` and have a version
  /// visible at `snapshotTs`: shard by shard in index order, ascending
  /// within a shard. `enterShard(idx)` runs before shard idx, whether it
  /// has matches or not; `fn(idx, key, value)` returning false skips the
  /// rest of shard idx. `key` views the engine's key bytes, which stay valid
  /// as long as the engine does. Neither callback may write to `engines`
  /// or scan through this order.
  template <typename EnterShard, typename Fn>
  void scanPrefix(std::span<const KvEngine> engines, std::string_view prefix,
                  std::uint64_t snapshotTs, EnterShard&& enterShard,
                  Fn&& fn) {
    collectMatches(engines, prefix);
    for (std::size_t idx = 0; idx < engines.size(); ++idx) {
      enterShard(idx);
      const auto visitShard = [&] {
        for (const std::span<const Record> matches : matches_) {
          for (const Record& r : matches) {
            if (r.shard != idx) continue;
            const StoredValue* value = engines[idx].valueAt(r.id, snapshotTs);
            if (value != nullptr && !fn(idx, r.key(), *value)) return;
          }
        }
      };
      visitShard();
    }
  }

  /// Keys routed to their families so far.
  [[nodiscard]] std::size_t size() const noexcept;
  /// Keys whose family has been sorted since they were routed.
  [[nodiscard]] std::size_t orderedKeys() const noexcept;

 private:
  struct Record {
    const char* data;
    std::uint32_t id;
    std::uint16_t size;
    std::uint16_t shard;
    [[nodiscard]] std::string_view key() const noexcept {
      return {data, size};
    }
    /// The key's bytes past its first `skip`, which its family prefix holds.
    [[nodiscard]] std::string_view keyPast(std::size_t skip) const noexcept {
      return {data + skip, size - skip};
    }
  };
  static_assert(sizeof(Record) == 16, "a KeyOrder record grew past 16 bytes");
  static_assert(KvEngine::kMaxKeyBytes <= UINT16_MAX,
                "a record's size field cannot hold the longest key");

  struct Family {
    std::string_view prefix;      // views the bytes of its first key
    std::vector<Record> records;  // [0, sorted) in key order, then routed
    std::size_t sorted = 0;
    std::size_t incoming = 0;     // keys routed to it by the routing pass
  };

  /// Fill matches_ with the records whose key starts with `prefix`, one
  /// span per family in family order, after routing every key added since
  /// the last call and sorting each family the prefix reaches.
  void collectMatches(std::span<const KvEngine> engines,
                      std::string_view prefix);
  void routeNewKeys(std::span<const KvEngine> engines);
  /// The family named `prefix`, added if new.
  std::uint32_t familyOf(std::string_view prefix);
  /// The first of byPrefix_ whose family prefix is not below `prefix`.
  [[nodiscard]] std::vector<std::uint32_t>::iterator lowerFamily(
      std::string_view prefix);
  /// `family`'s records in key order, sorted first if keys were routed to
  /// it since.
  std::span<const Record> ordered(Family& family);

  KeyFamilyFn family_;
  std::vector<Family> families_;         // in the order they appeared
  std::vector<std::uint32_t> byPrefix_;  // families_ indices, prefix order
  std::vector<std::uint32_t> routedIds_;  // per shard: ids 0 .. n-1 routed
  /// Reused per scan: the matching records of each family reached.
  std::vector<std::span<const Record>> matches_;
};

}  // namespace dcache::storage
