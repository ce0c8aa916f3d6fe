// Hashing primitives used across the library: stable 64-bit hashes for
// sharding, consistent hashing and key fingerprints. These are deliberately
// self-contained (no std::hash) so that shard placement is identical across
// platforms and runs — experiment results must be reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace dcache::util {

/// FNV-1a over an arbitrary byte string. Stable across platforms.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes) noexcept;

/// Strong 64-bit finalizer (xxhash/murmur-style avalanche). Use to derive
/// secondary hashes from a primary one without re-hashing the key.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Hash of a string key: FNV-1a followed by an avalanche round. This is the
/// canonical key hash used for cache shard selection and ring placement.
[[nodiscard]] std::uint64_t hashKey(std::string_view key) noexcept;

/// Combine two hashes (order-dependent), e.g. key hash + table id.
[[nodiscard]] constexpr std::uint64_t hashCombine(std::uint64_t a,
                                                  std::uint64_t b) noexcept {
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// Hash a 64-bit integer key (e.g. a row id) directly.
[[nodiscard]] constexpr std::uint64_t hashU64(std::uint64_t x) noexcept {
  return mix64(x + 0x9e3779b97f4a7c15ULL);
}

/// Fast word-at-a-time 64-bit hash (MurmurHash64A). Roughly 5x cheaper than
/// hashKey's byte-serial FNV on short keys, but NOT part of any observable
/// placement decision: use it ONLY for internal index layout (open-addressing
/// probe positions) where an exact key compare decides equality — never for
/// shard selection, ring placement, or anything else whose value leaks into
/// experiment output.
[[nodiscard]] inline std::uint64_t fastHash64(std::string_view bytes) noexcept {
  constexpr std::uint64_t kMul = 0xc6a4a7935bd1e995ULL;
  constexpr int kShift = 47;
  std::uint64_t h = 0x8445d61a4e774912ULL ^ (bytes.size() * kMul);
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  while (n >= 8) {
    std::uint64_t k;
    std::memcpy(&k, p, 8);
    k *= kMul;
    k ^= k >> kShift;
    k *= kMul;
    h ^= k;
    h *= kMul;
    p += 8;
    n -= 8;
  }
  if (n != 0) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p, n);
    h ^= tail;
    h *= kMul;
  }
  h ^= h >> kShift;
  h *= kMul;
  h ^= h >> kShift;
  return h;
}

/// Transparent hasher for unordered containers keyed by std::string but
/// probed with string_view (heterogeneous lookup, no temporary strings).
/// It picks buckets only, so it uses fastHash64: a container hashed with it
/// must not be iterated where the order could reach experiment output.
struct TransparentStringHash {
  using is_transparent = void;
  [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
    return static_cast<std::size_t>(fastHash64(s));
  }
};

}  // namespace dcache::util
