// Workload abstraction: a deterministic, seeded stream of operations. Each
// concrete workload reproduces one of the paper's traffic sources (§5.2):
// the synthetic Zipf sweep, the Meta key-value trace, the Unity Catalog
// trace, plus a Twitter-style trace as an extension.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "util/rng.hpp"

namespace dcache::workload {

enum class OpType : std::uint8_t {
  kRead,       // point read (KV get / denormalized row)
  kWrite,      // update of one key/object
  kObjectRead  // rich-object read (fans out into multiple SQL statements)
};

struct Op {
  OpType type = OpType::kRead;
  std::uint64_t keyIndex = 0;
  std::uint64_t valueSize = 0;  // logical object size for this key

  [[nodiscard]] bool isRead() const noexcept { return type != OpType::kWrite; }
};

/// Canonical key string for a key index ("k000000042"): fixed width so key
/// bytes on the wire don't vary with the index.
[[nodiscard]] std::string keyName(std::uint64_t keyIndex);

/// keyName without the return-value allocation: formats into `out`,
/// reusing its capacity. The serve hot path calls this once per op.
void keyNameTo(std::uint64_t keyIndex, std::string& out);

/// keyName's exact inverse: the index whose name is `name`, or nullopt if
/// keyName returns `name` for no index (a wrong letter, a non-digit, fewer
/// than nine digits, a leading zero past nine digits, or past UINT64_MAX).
[[nodiscard]] std::optional<std::uint64_t> keyIndexOf(
    std::string_view name) noexcept;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Next operation in the stream (deterministic given the seed).
  [[nodiscard]] virtual Op next() = 0;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::uint64_t keyCount() const = 0;
  /// Deterministic per-key object size.
  [[nodiscard]] virtual std::uint64_t valueSizeFor(std::uint64_t keyIndex) const = 0;
  /// Configured fraction of reads (the target, not the sample estimate).
  [[nodiscard]] virtual double readFraction() const = 0;

  /// Mean object size estimated from the per-key distribution (sampled).
  [[nodiscard]] double meanValueSize(std::uint64_t sampleKeys = 2000) const;
};

}  // namespace dcache::workload
