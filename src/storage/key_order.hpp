// One key order for a whole KV tier. A Database shards its keys over one
// KvEngine per storage node; this is a single array of their keys in key
// order, so a prefix scan binary-searches once, not once per engine.
//
// A record is 16 bytes: a pointer to the key's bytes, its size, its shard
// and its id in that shard's engine. The bytes are the engine's own and
// never move: keys are immutable, entries are never released and arena
// chunks never freed.
// New keys are not ordered when they are put. Each shard's keys past the
// count already merged wait in its engine until the next scan sorts them
// and merges them in, so callers that never scan (the KV path) never pay
// for ordering.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "storage/kv_engine.hpp"

namespace dcache::storage {

class KeyOrder {
 public:
  static constexpr std::size_t kMaxShards = std::size_t{UINT16_MAX} + 1;

  /// An empty order over `shards` engines; throws std::invalid_argument
  /// past kMaxShards.
  explicit KeyOrder(std::size_t shards);

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
    const std::span<const Record> matches = matching(engines, prefix);
    for (std::size_t idx = 0; idx < engines.size(); ++idx) {
      enterShard(idx);
      for (const Record& r : matches) {
        if (r.shard != idx) continue;
        const StoredValue* value = engines[idx].valueAt(r.id, snapshotTs);
        if (value != nullptr && !fn(idx, r.key(), *value)) break;
      }
    }
  }

  /// Keys merged into the order so far.
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

 private:
  struct Record {
    const char* data;
    std::uint32_t id;
    std::uint16_t size;
    std::uint16_t shard;
    [[nodiscard]] std::string_view key() const noexcept {
      return {data, size};
    }
  };
  static_assert(sizeof(Record) == 16, "a KeyOrder record grew past 16 bytes");
  static_assert(KvEngine::kMaxKeyBytes <= UINT16_MAX,
                "a record's size field cannot hold the longest key");

  /// The records whose key starts with `prefix`, after merging every key
  /// added since the last call.
  [[nodiscard]] std::span<const Record> matching(
      std::span<const KvEngine> engines, std::string_view prefix);
  void mergeNewKeys(std::span<const KvEngine> engines);

  std::vector<Record> records_;       // key order over every shard
  std::vector<std::uint32_t> merged_;  // per shard: ids 0 .. n-1 are merged
};

}  // namespace dcache::storage
