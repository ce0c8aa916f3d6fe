// Segmented LRU: a probation segment admits new entries; a second hit
// promotes into a protected segment. Scan-resistant, which matters for
// workloads that mix a hot set with one-touch traffic (the Meta trace has
// exactly this shape). Both segments are flat LRU caches; the split is
// configurable for the ablation bench.
#pragma once

#include "cache/flat_cache.hpp"
#include "cache/kv_cache.hpp"

namespace dcache::cache {

class SlruCache final : public KvCache {
 public:
  /// `protectedFraction` of the capacity goes to the protected segment.
  /// Non-finite fractions fall back to the default split; finite ones are
  /// clamped to [0, 1]. The two segment capacities always partition
  /// `capacity` exactly — the fraction math is done in integers so a
  /// floating-point overshoot can never push the protected segment past the
  /// total (and the probation capacity can never wrap).
  explicit SlruCache(util::Bytes capacity, double protectedFraction = 0.8);

  [[nodiscard]] const CacheEntry* get(std::string_view key) override;
  void put(std::string_view key, CacheEntry entry) override;
  bool erase(std::string_view key) override;
  void clear() override;
  [[nodiscard]] const CacheEntry* peek(std::string_view key) const override;
  void forEachEntry(
      const std::function<void(std::string_view, const CacheEntry&)>& fn)
      const override;

  [[nodiscard]] std::size_t itemCount() const noexcept override {
    return probation_.itemCount() + protected_.itemCount();
  }
  [[nodiscard]] util::Bytes bytesUsed() const noexcept override {
    return probation_.bytesUsed() + protected_.bytesUsed();
  }
  [[nodiscard]] util::Bytes capacity() const noexcept override {
    return capacity_;
  }

  [[nodiscard]] const FlatCache& probationSegment() const noexcept {
    return probation_;
  }
  [[nodiscard]] const FlatCache& protectedSegment() const noexcept {
    return protected_;
  }

 private:
  util::Bytes capacity_;
  FlatCache probation_;
  FlatCache protected_;
};

}  // namespace dcache::cache
