// The entries of one secondary index, across the engines of a KV tier. An
// index entry is the key `t/<table>/i/<column>/<value>/<pk>` with an empty
// value: no path point-reads it, a lookup reads the entries of one value.
// So entries live here, not in the KV engines. The Database keeps one order
// per index base (`t/<table>/i/<column>/`), appends the entries of each row
// it loads and charges each visited entry as the engine scan row it stands
// for. No statement writes an entry: an UPDATE may not set an indexed
// column.
//
// An order keeps each entry's bytes past the base (`<value>/<pk>`) in its
// own KeyArena, behind a 16-byte record {arena ref, head hash, length,
// shard}. The head is the entry's bytes before its first '/', and the
// shard is the KV node the full key places on. Records are sorted by (head
// hash, entry bytes), so each head hash has one run of records, in
// ascending entry order; an unsorted tail of appended entries follows,
// which the next lookup sorts and merges in. The merge then rebuilds a
// directory in one pass over the sorted hashes alone: a hash's top bits
// pick one of about as many buckets as there are runs, and the directory
// holds the first record of each bucket. A lookup of a value reads the
// bucket of its head's hash, finds the run among the bucket's few records
// by hash, and compares entry bytes only inside that run. Two rows can
// spell one entry alike through a '/' in their names (value "a/b" with pk
// "c", value "a" with pk "b/c"); the merge keeps one copy, as one engine
// key would hold it.
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

  /// Visit the entries `<value>/...`: shard by shard in index order,
  /// ascending within a shard. As index keys do not escape '/', they
  /// include the entries of values that start with `<value>/`.
  /// `enterShard(idx)` runs before shard idx, whether it has matches or
  /// not; `fn(idx, entry)` returning false skips the rest of shard idx.
  /// `entry` views the order's bytes, valid as long as the order; neither
  /// callback may append to it.
  template <typename EnterShard, typename Fn>
  void lookup(std::string_view value, EnterShard&& enterShard, Fn&& fn) {
    const std::span<const Record> matches = matching(value);
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

  /// The 32-bit hash of an entry's head, its bytes before the first '/'
  /// (all of them without one). Equal hashes are legal: a run may hold the
  /// entries of several heads, and only entry bytes decide a match.
  [[nodiscard]] static std::uint32_t headHash(std::string_view entry) noexcept;

 private:
  struct Record {
    cache::KeyArena::Ref ref;
    std::uint32_t headHash;
    std::uint16_t length;
    std::uint16_t shard;
  };
  static_assert(sizeof(Record) == 16,
                "an IndexOrder record grew past 16 bytes");

  [[nodiscard]] std::string_view bytesOf(const Record& r) const noexcept {
    return arena_.view(r.ref, r.length);
  }
  [[nodiscard]] std::size_t bucketOf(std::uint32_t hash) const noexcept {
    return static_cast<std::size_t>(std::uint64_t{hash} >> bucketShift_);
  }
  /// The records `<value>/...`, in entry order, with the tail merged in.
  [[nodiscard]] std::span<const Record> matching(std::string_view value);
  /// Sort the tail, merge it into the sorted records, drop duplicates and
  /// rebuild the directory.
  void mergeTail();
  void buildDirectory();

  cache::KeyArena arena_;        // entry bytes; a dropped duplicate's stay
  /// [0, sorted_) by (head hash, entry bytes), then the unsorted tail.
  std::vector<Record> records_;
  /// Bucket b's records are [directory_[b], directory_[b + 1]): those whose
  /// head hash's top bits, bucketOf(hash), are b.
  std::vector<std::uint32_t> directory_;
  unsigned bucketShift_ = 32;
  std::size_t sorted_ = 0;
  std::size_t shards_;
};

}  // namespace dcache::storage
