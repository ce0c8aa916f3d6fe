#include "storage/key_order.hpp"

#include <algorithm>
#include <stdexcept>

namespace dcache::storage {

KeyOrder::KeyOrder(std::size_t shards) {
  if (shards > kMaxShards) {
    throw std::invalid_argument("KeyOrder: more shards than a record holds");
  }
  // dcache-lint: allow(hot-path-alloc, once per order, at construction)
  merged_.resize(shards, 0);
}

std::span<const KeyOrder::Record> KeyOrder::matching(
    std::span<const KvEngine> engines, std::string_view prefix) {
  if (engines.size() != merged_.size()) {
    throw std::invalid_argument("KeyOrder: scanned with another shard count");
  }
  mergeNewKeys(engines);
  const auto first = std::lower_bound(
      records_.begin(), records_.end(), prefix,
      [](const Record& r, std::string_view p) { return r.key() < p; });
  auto last = first;
  while (last != records_.end() && last->key().starts_with(prefix)) ++last;
  return {first, last};
}

void KeyOrder::mergeNewKeys(std::span<const KvEngine> engines) {
  std::size_t keys = 0;
  for (const KvEngine& engine : engines) keys += engine.keyCount();
  if (keys == records_.size()) return;  // engines never release a key
  if (keys > records_.capacity()) {
    // Exactly the key count at the first scan after a bulk load; later
    // growth steps by at least an eighth, so it stays amortized O(1).
    // dcache-lint: allow(hot-path-alloc, the first scan reserves the exact key count, later growth is geometric)
    records_.reserve(std::max(keys, records_.capacity() +
                                        records_.capacity() / 8));
  }
  const std::size_t merged = records_.size();
  for (std::size_t shard = 0; shard < engines.size(); ++shard) {
    const KvEngine& engine = engines[shard];
    const auto count = static_cast<std::uint32_t>(engine.keyCount());
    for (std::uint32_t id = merged_[shard]; id < count; ++id) {
      const std::string_view key = engine.keyAt(id);
      // dcache-lint: allow(hot-path-alloc, once per new key, at the first scan after it; capacity reserved above)
      records_.push_back({key.data(), id, static_cast<std::uint16_t>(key.size()),
                          static_cast<std::uint16_t>(shard)});
    }
    merged_[shard] = count;
  }
  const auto byKey = [](const Record& a, const Record& b) {
    return a.key() < b.key();
  };
  const auto tail = records_.begin() + static_cast<std::ptrdiff_t>(merged);
  std::sort(tail, records_.end(), byKey);
  std::inplace_merge(records_.begin(), tail, records_.end(), byKey);
}

}  // namespace dcache::storage
