#include "storage/index_order.hpp"

#include <algorithm>
#include <stdexcept>

namespace dcache::storage {

IndexOrder::IndexOrder(std::size_t shards)
    : shards_(shards <= kMaxShards
                  ? shards
                  : throw std::invalid_argument(
                        "IndexOrder: more shards than a record holds")) {}

void IndexOrder::append(std::string_view entry, std::size_t shard) {
  if (entry.size() > kMaxEntryBytes || shard >= shards_) {
    throw std::invalid_argument("IndexOrder: entry too long or shard unknown");
  }
  // dcache-lint: allow(hot-path-alloc, once per new entry; the array doubles, so growth is amortized)
  records_.push_back(Record{arena_.store(entry),
                            static_cast<std::uint16_t>(entry.size()),
                            static_cast<std::uint16_t>(shard)});
}

std::span<const IndexOrder::Record> IndexOrder::matching(
    std::string_view prefix) {
  mergeTail();
  const auto first = std::lower_bound(
      records_.begin(), records_.end(), prefix,
      [this](const Record& r, std::string_view p) { return bytesOf(r) < p; });
  auto last = first;
  while (last != records_.end() && bytesOf(*last).starts_with(prefix)) ++last;
  return {first, last};
}

void IndexOrder::mergeTail() {
  if (sorted_ == records_.size()) return;
  const auto byEntry = [this](const Record& a, const Record& b) {
    return bytesOf(a) < bytesOf(b);
  };
  const auto sorted = records_.begin() + static_cast<std::ptrdiff_t>(sorted_);
  std::sort(sorted, records_.end(), byEntry);
  std::inplace_merge(records_.begin(), sorted, records_.end(), byEntry);
  // Equal entries spell one full key, so they sit on one shard: keep one.
  records_.erase(std::unique(records_.begin(), records_.end(),
                             [this](const Record& a, const Record& b) {
                               return bytesOf(a) == bytesOf(b);
                             }),
                 records_.end());
  sorted_ = records_.size();
}

}  // namespace dcache::storage
