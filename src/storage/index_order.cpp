#include "storage/index_order.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace dcache::storage {

IndexOrder::IndexOrder(std::size_t shards)
    : shards_(shards <= kMaxShards
                  ? shards
                  : throw std::invalid_argument(
                        "IndexOrder: more shards than a record holds")) {}

IndexOrder::Record IndexOrder::store(std::string_view entry,
                                     std::size_t shard) {
  if (entry.size() > kMaxEntryBytes || shard >= shards_) {
    throw std::invalid_argument("IndexOrder: entry too long or shard unknown");
  }
  return Record{arena_.store(entry), static_cast<std::uint16_t>(entry.size()),
                static_cast<std::uint16_t>(shard)};
}

void IndexOrder::append(std::string_view entry, std::size_t shard) {
  // dcache-lint: allow(hot-path-alloc, once per new entry; the array doubles, so growth is amortized)
  records_.push_back(store(entry, shard));
}

bool IndexOrder::put(std::string_view entry, std::size_t shard) {
  const auto at = lowerBound(entry);
  if (at != records_.end() && bytesOf(*at) == entry) return false;
  // dcache-lint: allow(hot-path-alloc, once per entry the order does not hold; a re-put finds it above and stores nothing)
  records_.insert(at, store(entry, shard));
  ++sorted_;
  return true;
}

bool IndexOrder::erase(std::string_view entry) {
  const auto at = lowerBound(entry);
  if (at == records_.end() || bytesOf(*at) != entry) return false;
  arena_.release(at->ref, at->length);
  records_.erase(at);
  --sorted_;
  return true;
}

std::span<const IndexOrder::Record> IndexOrder::matching(
    std::string_view prefix) {
  const auto first = lowerBound(prefix);
  auto last = first;
  while (last != records_.end() && bytesOf(*last).starts_with(prefix)) ++last;
  return {first, last};
}

std::vector<IndexOrder::Record>::iterator IndexOrder::lowerBound(
    std::string_view entry) {
  mergeTail();
  return std::lower_bound(records_.begin(), records_.end(), entry,
                          [this](const Record& r, std::string_view e) {
                            return bytesOf(r) < e;
                          });
}

void IndexOrder::mergeTail() {
  if (sorted_ == records_.size()) return;
  const auto byEntry = [this](const Record& a, const Record& b) {
    return bytesOf(a) < bytesOf(b);
  };
  const auto sorted = records_.begin() + static_cast<std::ptrdiff_t>(sorted_);
  std::sort(sorted, records_.end(), byEntry);
  for (auto it = sorted; it != records_.end(); ++it) {
    const bool twiceInTail = it != sorted && bytesOf(it[-1]) == bytesOf(*it);
    if (twiceInTail || std::binary_search(records_.begin(), sorted, *it,
                                          byEntry)) {
      std::fprintf(stderr,
                   "dcache index invariant violated: entry '%.*s' appended "
                   "to an order that holds it\n",
                   static_cast<int>(it->length), bytesOf(*it).data());
      std::abort();
    }
  }
  std::inplace_merge(records_.begin(), sorted, records_.end(), byEntry);
  sorted_ = records_.size();
}

}  // namespace dcache::storage
