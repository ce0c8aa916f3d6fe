#include "storage/kv_engine.hpp"

#include <algorithm>
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
    if (index_[pos].hash == hash && holds(entries_[index_[pos].id], key)) {
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

bool KvEngine::put(std::string_view key, StoredValue value,
                   std::uint64_t commitTs) {
  return write(key, value, commitTs, true);
}

bool KvEngine::putNew(std::string_view key, StoredValue value,
                      std::uint64_t commitTs) {
  return write(key, value, commitTs, false);
}

bool KvEngine::write(std::string_view key, StoredValue value,
                     std::uint64_t commitTs, bool overwrite) {
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
    Entry& fresh = entries_[id];
    fresh.keySize = static_cast<std::uint32_t>(key.size());
    if (!key.empty()) {
      std::memcpy(fresh.keyHead, key.data(),
                  std::min(key.size(), kInlineKeyBytes));
    }
  } else {
    const Entry& held = entries_[id];
    if (!overwrite || held.version >= commitTs) {
      return false;  // putNew of a held key, or a stale write
    }
    liveBytes_ -= held.size;
    if (held.blockSize() > 0) blocks_.release(held.block, held.blockSize());
  }
  Entry& entry = entries_[id];
  entry.payloadSize = static_cast<std::uint32_t>(value.payload.size());
  if (entry.blockSize() > 0) {
    entry.block = blocks_.store(key.substr(key.size() - entry.tailSize()),
                                value.payload);
  }
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
                       : blocks_.view(entry.block, entry.blockSize())
                             .substr(entry.tailSize())};
}

}  // namespace dcache::storage
