// The entries of one secondary index, across the engines of a KV tier. An
// index entry is the key `t/<table>/i/<column>/<value>/<pk>` with an empty
// value: no path point-reads it, a lookup scans it by prefix. So entries
// live here, not in the KV engines. The Database keeps one order per index
// base (`t/<table>/i/<column>/`), appends the entries of each row it loads
// and charges each visited entry as the engine scan row it stands for. No
// statement writes an entry: an UPDATE may not set an indexed column.
//
// An order keeps each entry's bytes past the base (`<value>/<pk>`) in its
// own KeyArena, behind a 12-byte record {arena ref, length, shard}, where
// the shard is the KV node the full key places on. Records are sorted by
// entry bytes, followed by an unsorted tail of appended entries that the
// next lookup sorts and merges in. Two rows can spell one entry alike
// through a '/' in their names (value "a/b" with pk "c", value "a" with pk
// "b/c"); the merge keeps one copy, as one engine key would hold it.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "cache/slab.hpp"

namespace dcache::storage {

class IndexOrder {
 public:
  static constexpr std::size_t kMaxShards = std::size_t{UINT16_MAX} + 1;
  /// Longest entry a record's 16-bit length holds.
  static constexpr std::size_t kMaxEntryBytes = UINT16_MAX;

  /// An empty order over `shards` shards; throws std::invalid_argument past
  /// kMaxShards.
  explicit IndexOrder(std::size_t shards);

  /// Take `entry`, which lives on `shard`, into the unsorted tail; an entry
  /// the order already holds is dropped when the tail is merged. Throws
  /// std::invalid_argument for an entry past kMaxEntryBytes or a shard past
  /// the order's.
  void append(std::string_view entry, std::size_t shard);

  /// Visit the entries that start with `prefix`: shard by shard in index
  /// order, ascending within a shard. `enterShard(idx)` runs before shard
  /// idx, whether it has matches or not; `fn(idx, entry)` returning false
  /// skips the rest of shard idx. `entry` views the order's bytes, valid as
  /// long as the order; neither callback may append to it.
  template <typename EnterShard, typename Fn>
  void lookup(std::string_view prefix, EnterShard&& enterShard, Fn&& fn) {
    const std::span<const Record> matches = matching(prefix);
    for (std::size_t idx = 0; idx < shards_; ++idx) {
      enterShard(idx);
      for (const Record& r : matches) {
        if (r.shard == idx && !fn(idx, bytesOf(r))) break;
      }
    }
  }

  /// Entries held, the unsorted tail included: an entry appended twice
  /// counts twice until the next lookup merges the tail.
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

 private:
  struct Record {
    cache::KeyArena::Ref ref;
    std::uint16_t length;
    std::uint16_t shard;
  };
  static_assert(sizeof(Record) == 12, "an IndexOrder record grew past 12 bytes");

  [[nodiscard]] std::string_view bytesOf(const Record& r) const noexcept {
    return arena_.view(r.ref, r.length);
  }
  /// The records that start with `prefix`, in entry order, with the tail
  /// merged in.
  [[nodiscard]] std::span<const Record> matching(std::string_view prefix);
  /// Sort the tail, merge it into the sorted records and drop duplicates.
  void mergeTail();

  cache::KeyArena arena_;        // entry bytes; a dropped duplicate's stay
  std::vector<Record> records_;  // [0, sorted_) in entry order, then the tail
  std::size_t sorted_ = 0;
  std::size_t shards_;
};

}  // namespace dcache::storage
