#include "storage/kv_engine.hpp"

#include <algorithm>
#include <cstring>

#include "util/hash.hpp"

namespace dcache::storage {

std::uint32_t KvEngine::indexHash(std::string_view key) noexcept {
  return static_cast<std::uint32_t>(util::fastHash64(key));
}

const StoredValue* KvEngine::visibleAt(const Entry& entry,
                                       std::uint64_t snapshotTs) const noexcept {
  const StoredValue* v = &entry.newest;
  if (v->version > snapshotTs) {
    if (entry.history == kNoHistory) return nullptr;
    const std::vector<StoredValue>& older = history_[entry.history];
    const auto it = std::find_if(
        older.rbegin(), older.rend(),
        [&](const StoredValue& s) { return s.version <= snapshotTs; });
    if (it == older.rend()) return nullptr;
    v = &*it;
  }
  return v->tombstone ? nullptr : v;
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
  if (key.size() > kMaxKeyBytes) return false;
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
    Entry& entry = entries_[id];
    if (entry.newest.version >= commitTs) {
      return false;  // stale write: a newer version is already committed
    }
    if (!entry.newest.tombstone) liveBytes_ -= entry.newest.size;
    if (entry.history == kNoHistory) {
      entry.history = static_cast<std::uint32_t>(history_.size());
      // dcache-lint: allow(hot-path-alloc, one history vector per key at its first overwrite; the table doubles, so growth is amortized)
      history_.emplace_back();
    }
    // dcache-lint: allow(hot-path-alloc, MVCC keeps one version per write; gc() bounds the history and its capacity is reused)
    history_[entry.history].push_back(std::move(entry.newest));
  }
  value.version = commitTs;
  if (!value.tombstone) liveBytes_ += value.size;
  entries_[id].newest = std::move(value);
  ++writes_;
  return true;
}

const StoredValue* KvEngine::get(std::string_view key,
                                 std::uint64_t snapshotTs) const {
  const std::uint32_t id = find(indexHash(key), key);
  return id == kNoEntry ? nullptr : visibleAt(entries_[id], snapshotTs);
}

std::size_t KvEngine::gc(std::size_t keep) {
  if (keep == 0) keep = 1;
  const auto keptOlder = static_cast<std::ptrdiff_t>(keep - 1);
  std::size_t reclaimed = 0;
  for (std::vector<StoredValue>& older : history_) {
    if (older.size() < keep) continue;  // the newest is one of `keep`
    reclaimed += older.size() - static_cast<std::size_t>(keptOlder);
    older.erase(older.begin(), older.end() - keptOlder);
  }
  return reclaimed;
}

}  // namespace dcache::storage
