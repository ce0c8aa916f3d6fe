// The entries of one secondary index, across the engines of a KV tier. An
// index entry is the key `t/<table>/i/<column>/<value>/<pk>` with an empty
// value: no path point-reads it, a lookup scans it by prefix. So entries
// live here, not in the KV engines. The Database keeps one order per index
// base (`t/<table>/i/<column>/`) and charges each entry write and each
// visited entry as the engine write and scan row it stands for.
//
// An order keeps each entry's bytes past the base (`<value>/<pk>`) in its
// own KeyArena, behind a 12-byte record {arena ref, length, shard}, where
// the shard is the KV node the full key places on. Records are sorted by
// entry bytes, followed by an unsorted tail: a bulk load appends entries
// it knows to be new, and the next lookup, put or erase sorts the tail
// and merges it in. put() takes an entry only if the order does not
// hold it, so an entry put again never grows the order; erase() gives the
// entry's block back to the arena.
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

  /// Take `entry`, which lives on `shard`, into the unsorted tail. The order
  /// must not hold it: a duplicate found when the tail is merged is an
  /// invariant violation and aborts.
  void append(std::string_view entry, std::size_t shard);
  /// Take `entry` on `shard` unless the order holds it; returns whether it
  /// did.
  bool put(std::string_view entry, std::size_t shard);
  /// Drop `entry`; returns whether the order held it.
  bool erase(std::string_view entry);
  // append and put throw std::invalid_argument for an entry past
  // kMaxEntryBytes or a shard past the order's.

  /// Visit the entries that start with `prefix`: shard by shard in index
  /// order, ascending within a shard. `enterShard(idx)` runs before shard
  /// idx, whether it has matches or not; `fn(idx, entry)` returning false
  /// skips the rest of shard idx. `entry` views the order's bytes, valid
  /// until its next put or erase, which neither callback may make.
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

  /// Entries held, the unsorted tail included.
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
  [[nodiscard]] Record store(std::string_view entry, std::size_t shard);
  /// The records that start with `prefix`, in entry order.
  [[nodiscard]] std::span<const Record> matching(std::string_view prefix);
  /// The first record not below `entry`, with the tail merged in.
  [[nodiscard]] std::vector<Record>::iterator lowerBound(std::string_view entry);
  /// Sort the tail and merge it into the sorted records.
  void mergeTail();

  cache::KeyArena arena_;        // entry bytes; erase gives a block back
  std::vector<Record> records_;  // [0, sorted_) in entry order, then the tail
  std::size_t sorted_ = 0;
  std::size_t shards_;
};

}  // namespace dcache::storage
