// Test-only oracle: the original ordered-map MVCC engine, one std::map node
// per key. test_kv_differential drives it in lockstep with the production
// flat KvEngine (src/storage/kv_engine.hpp), which must agree on every
// read, scan order, byte count and counter.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/kv_engine.hpp"

namespace dcache::storage {

/// One version as the oracle keeps it. KvEngine::put() takes a view of the
/// payload and copies it into its arena; the oracle owns a copy per version.
struct OracleValue {
  std::uint64_t size = 0;     // logical bytes
  std::uint64_t version = 0;  // commit timestamp that wrote this version
  std::string payload;        // real bytes for functional tables
  bool tombstone = false;
};

class MapKvEngine {
 public:
  static constexpr std::uint64_t kLatest = UINT64_MAX;

  bool put(std::string_view key, StoredValue value, std::uint64_t commitTs);
  bool erase(std::string_view key, std::uint64_t commitTs);
  [[nodiscard]] const OracleValue* get(std::string_view key,
                                       std::uint64_t snapshotTs = kLatest) const;
  [[nodiscard]] std::optional<std::uint64_t> latestVersion(
      std::string_view key) const;
  std::size_t scanPrefix(
      std::string_view prefix, std::uint64_t snapshotTs,
      const std::function<bool(std::string_view, const OracleValue&)>& fn) const;
  std::size_t gc(std::size_t keep = 2);

  [[nodiscard]] std::size_t keyCount() const noexcept { return chains_.size(); }
  [[nodiscard]] util::Bytes liveBytes() const noexcept {
    return util::Bytes::of(liveBytes_);
  }
  [[nodiscard]] std::uint64_t writeCount() const noexcept { return writes_; }

 private:
  using Chain = std::vector<OracleValue>;  // ascending by version

  /// Append `value`, stamped with its commit timestamp, to the key's chain.
  bool write(std::string_view key, OracleValue value);

  std::map<std::string, Chain, std::less<>> chains_;
  std::uint64_t liveBytes_ = 0;  // newest non-tombstone version per key
  std::uint64_t writes_ = 0;
};

}  // namespace dcache::storage
