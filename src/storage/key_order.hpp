// The ordered keys under one base prefix, across the engines of a KV tier.
// A Database shards its keys over one KvEngine per storage node; an order
// holds the keys of every engine that start with its base, so a prefix
// scan under the base binary-searches once, not once per engine. The
// Database keeps one order per base that a scan names (one index, or one
// table's rows), so a scan never pays for keys outside its base.
//
// A record is 16 bytes: a pointer to the key's bytes, its size, its shard
// and its id in that shard's engine. The bytes are the engine's own and
// never move: keys are immutable, entries are never released and arena
// chunks never freed.
// New keys are not ordered when they are put. At each scan, the order takes
// the keys each engine added since its last scan that start with its base,
// sorts them and merges them into the sorted ones, comparing only the bytes
// past the base. Callers that never scan (the KV path) never pay for
// ordering.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "storage/kv_engine.hpp"

namespace dcache::storage {

class KeyOrder {
 public:
  static constexpr std::size_t kMaxShards = std::size_t{UINT16_MAX} + 1;

  /// An empty order of the keys under `base` over `shards` engines; throws
  /// std::invalid_argument past kMaxShards.
  KeyOrder(std::string_view base, std::size_t shards);

  /// Visit the keys of `engines` that start with `prefix` and hold a value:
  /// shard by shard in index order, ascending within a shard. `prefix` must
  /// start with the base and `engines` be the same engines at every scan;
  /// otherwise throws std::invalid_argument. `enterShard(idx)` runs before
  /// shard idx, whether it has matches or not; `fn(idx, key, value)`
  /// returning false skips the rest of shard idx. `key` views the engine's
  /// key bytes, which stay valid as long as the engine does; `value` is a
  /// ValueView, whose payload is valid until the next write to the key.
  /// Neither callback may write to `engines` or scan through this order.
  template <typename EnterShard, typename Fn>
  void scanPrefix(std::span<const KvEngine> engines, std::string_view prefix,
                  EnterShard&& enterShard, Fn&& fn) {
    const std::span<const Record> matches = matching(engines, prefix);
    for (std::size_t idx = 0; idx < engines.size(); ++idx) {
      enterShard(idx);
      for (const Record& r : matches) {
        if (r.shard != idx) continue;
        const std::optional<ValueView> value = engines[idx].valueAt(r.id);
        if (value && !fn(idx, r.key(), *value)) break;
      }
    }
  }

  /// Keys under the base taken into the order so far.
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
    /// The key's bytes past its first `skip`, which the base holds.
    [[nodiscard]] std::string_view keyPast(std::size_t skip) const noexcept {
      return {data + skip, size - skip};
    }
  };
  static_assert(sizeof(Record) == 16, "a KeyOrder record grew past 16 bytes");
  static_assert(KvEngine::kMaxKeyBytes <= UINT16_MAX,
                "a record's size field cannot hold the longest key");

  /// The records whose key starts with `prefix`, in key order, after
  /// merging in the keys under the base that `engines` added since the
  /// last call.
  std::span<const Record> matching(std::span<const KvEngine> engines,
                                   std::string_view prefix);
  void mergeNewKeys(std::span<const KvEngine> engines);

  std::string base_;
  std::vector<Record> records_;  // the keys under base_, in key order
  /// Per shard: ids 0 .. n-1 were taken in if they start with base_.
  std::vector<std::uint32_t> seenIds_;
};

}  // namespace dcache::storage
