#include "reference/kv_engine.hpp"

namespace dcache::storage {

bool MapKvEngine::put(std::string_view key, StoredValue value,
                      std::uint64_t commitTs) {
  return write(key,
               OracleValue{value.size, commitTs, std::string(value.payload),
                           false});
}

bool MapKvEngine::erase(std::string_view key, std::uint64_t commitTs) {
  return write(key, OracleValue{0, commitTs, {}, true});
}

bool MapKvEngine::write(std::string_view key, OracleValue value) {
  auto it = chains_.find(key);
  if (it == chains_.end()) it = chains_.emplace(std::string(key), Chain{}).first;
  Chain& chain = it->second;
  if (!chain.empty() && chain.back().version >= value.version) {
    return false;  // stale write: a newer version is already committed
  }
  if (!chain.empty() && !chain.back().tombstone) {
    liveBytes_ -= chain.back().size;
  }
  if (!value.tombstone) liveBytes_ += value.size;
  chain.push_back(std::move(value));
  ++writes_;
  return true;
}

const OracleValue* MapKvEngine::get(std::string_view key,
                                    std::uint64_t snapshotTs) const {
  const auto it = chains_.find(key);
  if (it == chains_.end()) return nullptr;
  const Chain& chain = it->second;
  // Newest version with version <= snapshotTs.
  for (auto rit = chain.rbegin(); rit != chain.rend(); ++rit) {
    if (rit->version <= snapshotTs) {
      return rit->tombstone ? nullptr : &*rit;
    }
  }
  return nullptr;
}

std::optional<std::uint64_t> MapKvEngine::latestVersion(
    std::string_view key) const {
  const OracleValue* v = get(key);
  if (!v) return std::nullopt;
  return v->version;
}

std::size_t MapKvEngine::scanPrefix(
    std::string_view prefix, std::uint64_t snapshotTs,
    const std::function<bool(std::string_view, const OracleValue&)>& fn) const {
  std::size_t visited = 0;
  for (auto it = chains_.lower_bound(prefix); it != chains_.end(); ++it) {
    const std::string& key = it->first;
    if (key.compare(0, prefix.size(), prefix) != 0) break;
    const OracleValue* visible = nullptr;
    for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
      if (rit->version <= snapshotTs) {
        if (!rit->tombstone) visible = &*rit;
        break;
      }
    }
    if (visible) {
      ++visited;
      if (!fn(key, *visible)) break;
    }
  }
  return visited;
}

std::size_t MapKvEngine::gc(std::size_t keep) {
  if (keep == 0) keep = 1;
  std::size_t reclaimed = 0;
  for (auto& [key, chain] : chains_) {
    if (chain.size() > keep) {
      reclaimed += chain.size() - keep;
      chain.erase(chain.begin(),
                  chain.begin() + static_cast<std::ptrdiff_t>(chain.size() - keep));
    }
  }
  return reclaimed;
}

}  // namespace dcache::storage
