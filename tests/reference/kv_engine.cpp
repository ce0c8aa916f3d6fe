#include "reference/kv_engine.hpp"

namespace dcache::storage {

bool MapKvEngine::put(std::string_view key, StoredValue value,
                      std::uint64_t commitTs) {
  auto it = values_.find(key);
  if (it == values_.end()) {
    it = values_.emplace(std::string(key), OracleValue{}).first;
  } else if (it->second.version >= commitTs) {
    return false;  // stale write: a newer version is already committed
  } else {
    liveBytes_ -= it->second.size;
  }
  it->second = OracleValue{value.size, commitTs, std::string(value.payload)};
  liveBytes_ += value.size;
  ++writes_;
  return true;
}

bool MapKvEngine::putNew(std::string_view key, StoredValue value,
                         std::uint64_t commitTs) {
  return !values_.contains(key) && put(key, value, commitTs);
}

const OracleValue* MapKvEngine::get(std::string_view key) const {
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

std::optional<std::uint64_t> MapKvEngine::latestVersion(
    std::string_view key) const {
  const OracleValue* v = get(key);
  return v ? std::optional(v->version) : std::nullopt;
}

}  // namespace dcache::storage
