#include "storage/kv_engine.hpp"

#include <cstring>

#include "util/hash.hpp"

namespace dcache::storage {

std::uint32_t KvEngine::indexHash(std::string_view key) noexcept {
  return static_cast<std::uint32_t>(util::fastHash64(key));
}

std::uint32_t KvEngine::find(std::uint32_t hash,
                             std::string_view key) const noexcept {
  if (index_.empty()) return kNoEntry;
  std::size_t pos = hash & indexMask_;
  while (index_[pos].id != kNoEntry) {
    if (index_[pos].hash == hash && entries_[index_[pos].id].key() == key) {
      return index_[pos].id;
    }
    pos = (pos + 1) & indexMask_;
  }
  return kNoEntry;
}

void KvEngine::place(std::uint32_t hash, std::uint32_t id) noexcept {
  std::size_t pos = hash & indexMask_;
  while (index_[pos].id != kNoEntry) pos = (pos + 1) & indexMask_;
  index_[pos] = Slot{hash, id};
}

void KvEngine::growIndex(std::size_t slots) {
  std::vector<Slot> old(slots);
  old.swap(index_);
  indexMask_ = slots - 1;
  for (const Slot& slot : old) {
    if (slot.id != kNoEntry) place(slot.hash, slot.id);
  }
}

void KvEngine::reserveKeys(std::size_t expectedKeys) {
  std::size_t slots = 1024;
  // Size so `expectedKeys` stays under the 70% growth threshold.
  while (expectedKeys * 10 > slots * 7) slots *= 2;
  if (slots > index_.size()) growIndex(slots);
}

void KvEngine::storeKey(Entry& entry, std::string_view key) {
  entry.keySize = static_cast<std::uint32_t>(key.size());
  if (key.size() > kInlineKeyBytes) {
    // Entries are never released, so neither is the arena block.
    entry.arenaKey = keys_.view(keys_.store(key), key.size()).data();
  } else if (!key.empty()) {
    std::memcpy(entry.inlineKey, key.data(), key.size());
  }
}

bool KvEngine::put(std::string_view key, StoredValue value,
                   std::uint64_t commitTs) {
  if (key.size() > kMaxKeyBytes || value.payload.size() > kMaxPayloadBytes) {
    return false;
  }
  const std::uint32_t h = indexHash(key);
  std::uint32_t id = find(h, key);
  if (id == kNoEntry) {
    // Grow at 70% load: the index doubles, so growth is amortized O(1).
    if ((entries_.highWater() + 1) * 10 > index_.size() * 7) {
      growIndex(index_.empty() ? 1024 : index_.size() * 2);
    }
    id = entries_.acquire();
    place(h, id);
    storeKey(entries_[id], key);
  } else {
    const Entry& held = entries_[id];
    if (held.version >= commitTs) {
      return false;  // stale write: a newer version is already committed
    }
    liveBytes_ -= held.size;
    if (held.payloadSize > 0) payloads_.release(held.payload, held.payloadSize);
  }
  Entry& entry = entries_[id];
  entry.payloadSize = static_cast<std::uint32_t>(value.payload.size());
  if (!value.payload.empty()) entry.payload = payloads_.store(value.payload);
  entry.size = value.size;
  entry.version = commitTs;
  liveBytes_ += value.size;
  ++writes_;
  return true;
}

std::optional<ValueView> KvEngine::get(std::string_view key) const {
  const std::uint32_t id = find(indexHash(key), key);
  if (id == kNoEntry) return std::nullopt;
  const Entry& entry = entries_[id];
  return ValueView{entry.size, entry.version,
                   entry.payloadSize == 0
                       ? std::string_view{}
                       : payloads_.view(entry.payload, entry.payloadSize)};
}

}  // namespace dcache::storage
