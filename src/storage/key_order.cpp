#include "storage/key_order.hpp"

#include <algorithm>
#include <stdexcept>

namespace dcache::storage {

KeyOrder::KeyOrder(std::size_t shards, KeyFamilyFn family) : family_(family) {
  if (shards > kMaxShards) {
    throw std::invalid_argument("KeyOrder: more shards than a record holds");
  }
  // dcache-lint: allow(hot-path-alloc, once per order, at construction)
  routedIds_.resize(shards, 0);
}

std::size_t KeyOrder::size() const noexcept {
  std::size_t keys = 0;
  for (const Family& family : families_) keys += family.records.size();
  return keys;
}

std::size_t KeyOrder::orderedKeys() const noexcept {
  std::size_t keys = 0;
  for (const Family& family : families_) keys += family.sorted;
  return keys;
}

void KeyOrder::collectMatches(std::span<const KvEngine> engines,
                              std::string_view prefix) {
  if (engines.size() != routedIds_.size()) {
    throw std::invalid_argument("KeyOrder: scanned with another shard count");
  }
  routeNewKeys(engines);
  matches_.clear();
  const std::size_t skip = family_(prefix);
  if (skip < prefix.size()) {
    // The prefix reaches inside its family, which holds every key that
    // starts with it: search that family alone.
    const std::string_view name = prefix.substr(0, skip);
    const auto it = lowerFamily(name);
    if (it == byPrefix_.end() || families_[*it].prefix != name) return;
    const std::span<const Record> records = ordered(families_[*it]);
    const std::string_view rest = prefix.substr(skip);
    const auto first = std::lower_bound(
        records.begin(), records.end(), rest,
        [skip](const Record& r, std::string_view p) {
          return r.keyPast(skip) < p;
        });
    auto last = first;
    while (last != records.end() && last->keyPast(skip).starts_with(rest)) {
      ++last;
    }
    // dcache-lint: allow(hot-path-alloc, reused buffer: one span per family reached, its capacity kept across scans)
    matches_.emplace_back(first, last);
    return;
  }
  // The prefix is a family name or shorter: it matches whole families, the
  // ones named with it.
  for (auto it = lowerFamily(prefix);
       it != byPrefix_.end() && families_[*it].prefix.starts_with(prefix);
       ++it) {
    // dcache-lint: allow(hot-path-alloc, reused buffer: one span per family reached, its capacity kept across scans)
    matches_.emplace_back(ordered(families_[*it]));
  }
}

void KeyOrder::routeNewKeys(std::span<const KvEngine> engines) {
  std::size_t fresh = 0;
  for (std::size_t shard = 0; shard < engines.size(); ++shard) {
    fresh += engines[shard].keyCount() - routedIds_[shard];
  }
  if (fresh == 0) return;  // engines never release a key

  // Pass one names the family of each new key and counts each family's
  // new keys; pass two appends them, into capacity reserved to that count.
  std::vector<std::uint32_t> route;  // the family of each new key
  // dcache-lint: allow(hot-path-alloc, 4 bytes per new key, at the first scan after them, released when routing ends)
  route.reserve(fresh);
  for (std::size_t shard = 0; shard < engines.size(); ++shard) {
    const KvEngine& engine = engines[shard];
    const auto count = static_cast<std::uint32_t>(engine.keyCount());
    for (std::uint32_t id = routedIds_[shard]; id < count; ++id) {
      const std::string_view key = engine.keyAt(id);
      const std::uint32_t family = familyOf(key.substr(0, family_(key)));
      ++families_[family].incoming;
      // dcache-lint: allow(hot-path-alloc, into the capacity reserved above)
      route.push_back(family);
    }
  }
  for (Family& family : families_) {
    std::vector<Record>& records = family.records;
    const std::size_t keys = records.size() + family.incoming;
    family.incoming = 0;
    if (keys <= records.capacity()) continue;
    // Exactly the family's key count at the first scan after a bulk load;
    // later growth steps by at least an eighth, so it stays amortized O(1).
    // dcache-lint: allow(hot-path-alloc, the first scan reserves each family's exact key count, later growth is geometric)
    records.reserve(
        std::max(keys, records.capacity() + records.capacity() / 8));
  }
  const std::uint32_t* family = route.data();
  for (std::size_t shard = 0; shard < engines.size(); ++shard) {
    const KvEngine& engine = engines[shard];
    const auto count = static_cast<std::uint32_t>(engine.keyCount());
    for (std::uint32_t id = routedIds_[shard]; id < count; ++id) {
      const std::string_view key = engine.keyAt(id);
      // dcache-lint: allow(hot-path-alloc, once per new key, at the first scan after it; capacity reserved above)
      families_[*family++].records.push_back(
          {key.data(), id, static_cast<std::uint16_t>(key.size()),
           static_cast<std::uint16_t>(shard)});
    }
    routedIds_[shard] = count;
  }
}

std::uint32_t KeyOrder::familyOf(std::string_view prefix) {
  const auto it = lowerFamily(prefix);
  if (it != byPrefix_.end() && families_[*it].prefix == prefix) return *it;
  const auto family = static_cast<std::uint32_t>(families_.size());
  // dcache-lint: allow(hot-path-alloc, once per family, at the first scan after its first key; the table doubles)
  families_.push_back(Family{prefix, {}, 0, 0});
  // dcache-lint: allow(hot-path-alloc, once per family, at the first scan after its first key; the table doubles)
  byPrefix_.insert(it, family);
  return family;
}

std::vector<std::uint32_t>::iterator KeyOrder::lowerFamily(
    std::string_view prefix) {
  return std::lower_bound(byPrefix_.begin(), byPrefix_.end(), prefix,
                          [this](std::uint32_t family, std::string_view p) {
                            return families_[family].prefix < p;
                          });
}

std::span<const KeyOrder::Record> KeyOrder::ordered(Family& family) {
  std::vector<Record>& records = family.records;
  if (family.sorted == records.size()) return records;
  // Every key starts with the family prefix; compare the bytes past it.
  const std::size_t skip = family.prefix.size();
  const auto byKey = [skip](const Record& a, const Record& b) {
    return a.keyPast(skip) < b.keyPast(skip);
  };
  const auto tail =
      records.begin() + static_cast<std::ptrdiff_t>(family.sorted);
  std::sort(tail, records.end(), byKey);
  std::inplace_merge(records.begin(), tail, records.end(), byKey);
  family.sorted = records.size();
  return records;
}

}  // namespace dcache::storage
