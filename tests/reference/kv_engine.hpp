// Test-only oracle: an ordered map holding each key's newest value, its
// payload owned as a std::string. test_kv_differential drives it in
// lockstep with the production flat KvEngine (src/storage/kv_engine.hpp),
// which must agree on every put's and putNew's acceptance, every read, byte
// count and counter.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "storage/kv_engine.hpp"

namespace dcache::storage {

/// A value as the oracle keeps it. KvEngine::put() takes a view of the
/// payload and copies it into its arena; the oracle owns a copy.
struct OracleValue {
  std::uint64_t size = 0;     // logical bytes
  std::uint64_t version = 0;  // commit timestamp that wrote the value
  std::string payload;        // real bytes for functional tables
};

class MapKvEngine {
 public:
  /// Replace the key's value, unless the held version is at or past
  /// `commitTs`.
  bool put(std::string_view key, StoredValue value, std::uint64_t commitTs);
  /// put() for a key the oracle does not hold; a held key is refused.
  bool putNew(std::string_view key, StoredValue value, std::uint64_t commitTs);
  [[nodiscard]] const OracleValue* get(std::string_view key) const;
  [[nodiscard]] std::optional<std::uint64_t> latestVersion(
      std::string_view key) const;

  [[nodiscard]] std::size_t keyCount() const noexcept { return values_.size(); }
  [[nodiscard]] util::Bytes liveBytes() const noexcept {
    return util::Bytes::of(liveBytes_);
  }
  [[nodiscard]] std::uint64_t writeCount() const noexcept { return writes_; }

 private:
  std::map<std::string, OracleValue, std::less<>> values_;
  std::uint64_t liveBytes_ = 0;  // every key's logical value bytes
  std::uint64_t writes_ = 0;
};

}  // namespace dcache::storage
