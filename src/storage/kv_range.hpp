// A KV keyspace loaded in one call and put into the engines one key at a
// time, when first touched. Key i of a range of n is named name(i), holds
// a value of sizes[i] bytes and was committed at firstTs + i + 1: exactly
// what a loop of Database::loadValue(name(i), sizes[i]) writes, one
// timestamp each, starting after firstTs. Until it is touched a key costs
// its 8-byte entry in the size table and nothing else.
//
// The range does not track which keys were touched: a range key that its
// engine holds has been materialized (database.hpp says when). The range
// maps a name to its index through a function pointer, so storage stays
// independent of the workload module that defines the names.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dcache::storage {

/// Writes the name of key `index` into `out`, replacing what was there.
using KeyNameFn = void (*)(std::uint64_t index, std::string& out);
/// The exact inverse of a KeyNameFn: the index whose name is `name`, or
/// nullopt if no index has that name.
using KeyIndexFn = std::optional<std::uint64_t> (*)(std::string_view name);

class KvRange {
 public:
  /// A range with nothing pending.
  KvRange() = default;
  /// Keys 0 .. sizes.size() - 1, the first committed at firstTs + 1.
  KvRange(std::vector<std::uint64_t> sizes, KeyIndexFn index,
          std::uint64_t firstTs);

  /// No key waits to be materialized.
  [[nodiscard]] bool empty() const noexcept { return pending_ == 0; }
  /// Keys not yet materialized.
  [[nodiscard]] std::uint64_t pendingKeys() const noexcept { return pending_; }
  /// Value bytes of the keys not yet materialized.
  [[nodiscard]] std::uint64_t pendingBytes() const noexcept {
    return pendingBytes_;
  }
  /// The index of the range key named `name`, or nullopt.
  [[nodiscard]] std::optional<std::uint64_t> indexOf(
      std::string_view name) const {
    const std::optional<std::uint64_t> index = index_(name);
    if (!index || *index >= sizes_.size()) return std::nullopt;
    return index;
  }
  [[nodiscard]] std::uint64_t sizeOf(std::uint64_t index) const noexcept {
    return sizes_[index];
  }
  [[nodiscard]] std::uint64_t versionOf(std::uint64_t index) const noexcept {
    return firstTs_ + index + 1;
  }

  /// Key `index` is now in its engine, so it is no longer pending. The
  /// last one releases the size table.
  void materialized(std::uint64_t index) noexcept;

 private:
  std::vector<std::uint64_t> sizes_;
  KeyIndexFn index_ = nullptr;
  std::uint64_t firstTs_ = 0;
  std::uint64_t pending_ = 0;
  std::uint64_t pendingBytes_ = 0;
};

}  // namespace dcache::storage
