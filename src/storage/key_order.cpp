#include "storage/key_order.hpp"

#include <algorithm>
#include <stdexcept>

namespace dcache::storage {

KeyOrder::KeyOrder(std::string_view base, std::size_t shards)
    : base_(base),
      seenIds_(shards <= kMaxShards
                   ? shards
                   : throw std::invalid_argument(
                         "KeyOrder: more shards than a record holds"),
               0) {}

std::span<const KeyOrder::Record> KeyOrder::matching(
    std::span<const KvEngine> engines, std::string_view prefix) {
  if (engines.size() != seenIds_.size()) {
    throw std::invalid_argument("KeyOrder: scanned with another shard count");
  }
  if (!prefix.starts_with(base_)) {
    throw std::invalid_argument("KeyOrder: scanned outside its base");
  }
  mergeNewKeys(engines);
  // Every key starts with the base; compare the bytes past it.
  const std::size_t skip = base_.size();
  const std::string_view rest = prefix.substr(skip);
  const auto first = std::lower_bound(
      records_.begin(), records_.end(), rest,
      [skip](const Record& r, std::string_view p) {
        return r.keyPast(skip) < p;
      });
  auto last = first;
  while (last != records_.end() && last->keyPast(skip).starts_with(rest)) {
    ++last;
  }
  return {first, last};
}

void KeyOrder::mergeNewKeys(std::span<const KvEngine> engines) {
  const std::size_t sorted = records_.size();
  for (std::size_t shard = 0; shard < engines.size(); ++shard) {
    const KvEngine& engine = engines[shard];
    const auto count = static_cast<std::uint32_t>(engine.keyCount());
    for (std::uint32_t id = seenIds_[shard]; id < count; ++id) {
      const std::string_view key = engine.keyAt(id);
      if (!key.starts_with(base_)) continue;
      // dcache-lint: allow(hot-path-alloc, once per key under the base, at the first scan after it; the array doubles, so growth is amortized)
      records_.push_back({key.data(), id, static_cast<std::uint16_t>(key.size()),
                          static_cast<std::uint16_t>(shard)});
    }
    seenIds_[shard] = count;  // engines never release a key
  }
  if (records_.size() == sorted) return;
  const std::size_t skip = base_.size();
  const auto byKey = [skip](const Record& a, const Record& b) {
    return a.keyPast(skip) < b.keyPast(skip);
  };
  const auto tail = records_.begin() + static_cast<std::ptrdiff_t>(sorted);
  std::sort(tail, records_.end(), byKey);
  std::inplace_merge(records_.begin(), tail, records_.end(), byKey);
}

}  // namespace dcache::storage
