#include "storage/index_order.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/hash.hpp"

namespace dcache::storage {
namespace {

/// Whether `entry` sorts before every entry `<value>/...`.
bool precedesValue(std::string_view entry, std::string_view value) noexcept {
  const std::string_view cut = entry.substr(0, value.size());
  if (cut != value) return cut < value;
  return entry.size() == value.size() ||
         static_cast<unsigned char>(entry[value.size()]) < '/';
}

/// Whether `entry` is `<value>/...`.
bool hasValue(std::string_view entry, std::string_view value) noexcept {
  return entry.size() > value.size() && entry.starts_with(value) &&
         entry[value.size()] == '/';
}

}  // namespace

IndexOrder::IndexOrder(std::size_t shards)
    : shards_(shards <= kMaxShards
                  ? shards
                  : throw std::invalid_argument(
                        "IndexOrder: more shards than a record holds")) {}

std::uint32_t IndexOrder::headHash(std::string_view entry) noexcept {
  return static_cast<std::uint32_t>(
      util::fastHash64(entry.substr(0, entry.find('/'))));
}

void IndexOrder::append(std::string_view entry, std::size_t shard) {
  if (entry.size() > kMaxEntryBytes || shard >= shards_) {
    throw std::invalid_argument("IndexOrder: entry too long or shard unknown");
  }
  // dcache-lint: allow(hot-path-alloc, once per new entry; the array doubles, so growth is amortized)
  records_.push_back(Record{arena_.store(entry), headHash(entry),
                            static_cast<std::uint16_t>(entry.size()),
                            static_cast<std::uint16_t>(shard)});
}

std::span<const IndexOrder::Record> IndexOrder::matching(
    std::string_view value) {
  mergeTail();
  if (directory_.empty()) return {};
  // Every entry `<value>/...` has the head of `value`, so the run of its
  // head hash holds them all, in entry order, among entries of other
  // values that share the head or its hash.
  const std::uint32_t hash = headHash(value);
  const std::size_t bucket = bucketOf(hash);
  const auto [runBegin, runEnd] = std::ranges::equal_range(
      records_.begin() + directory_[bucket],
      records_.begin() + directory_[bucket + 1], hash, {}, &Record::headHash);
  const auto first = std::partition_point(
      runBegin, runEnd,
      [&](const Record& r) { return precedesValue(bytesOf(r), value); });
  auto last = first;
  while (last != runEnd && hasValue(bytesOf(*last), value)) ++last;
  return {first, last};
}

void IndexOrder::mergeTail() {
  if (sorted_ == records_.size()) return;
  const auto byHeadThenEntry = [this](const Record& a, const Record& b) {
    if (a.headHash != b.headHash) return a.headHash < b.headHash;
    return bytesOf(a) < bytesOf(b);
  };
  const auto sorted = records_.begin() + static_cast<std::ptrdiff_t>(sorted_);
  std::sort(sorted, records_.end(), byHeadThenEntry);
  std::inplace_merge(records_.begin(), sorted, records_.end(),
                     byHeadThenEntry);
  // Equal entries spell one full key, so they sit on one shard: keep one.
  records_.erase(std::unique(records_.begin(), records_.end(),
                             [this](const Record& a, const Record& b) {
                               return a.headHash == b.headHash &&
                                      bytesOf(a) == bytesOf(b);
                             }),
                 records_.end());
  sorted_ = records_.size();
  buildDirectory();
}

void IndexOrder::buildDirectory() {
  std::size_t runs = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (i == 0 || records_[i].headHash != records_[i - 1].headHash) ++runs;
  }
  // About one run a bucket: the fewest buckets, a power of two, at least
  // as many as the runs.
  unsigned bits = 0;
  while (bits < 32 && (std::size_t{1} << bits) < runs) ++bits;
  bucketShift_ = 32 - bits;
  const std::size_t buckets = std::size_t{1} << bits;
  // dcache-lint: allow(hot-path-alloc, rebuilt once per merge at the power of two over the runs; runs never shrink, so the array reallocates only when they pass a doubling, amortized over the appends that added them)
  directory_.resize(buckets + 1);
  std::size_t r = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    directory_[b] = static_cast<std::uint32_t>(r);
    while (r < records_.size() && bucketOf(records_[r].headHash) == b) ++r;
  }
  directory_[buckets] = static_cast<std::uint32_t>(r);
}

}  // namespace dcache::storage
