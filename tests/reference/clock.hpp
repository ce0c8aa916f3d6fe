// Test-only oracle: CLOCK (second-chance) eviction over a slot vector with a
// LIFO free list. FlatCache's Clock mode hands out slab indices with the same
// discipline, so test_cache_differential can drive both in lockstep and
// demand the same victim sequence.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "cache/kv_cache.hpp"
#include "util/hash.hpp"

namespace dcache::cache {

class ClockCache final : public KvCache {
 public:
  explicit ClockCache(util::Bytes capacity) : capacity_(capacity) {}

  [[nodiscard]] const CacheEntry* get(std::string_view key) override;
  void put(std::string_view key, CacheEntry entry) override;
  bool erase(std::string_view key) override;
  void clear() override;
  [[nodiscard]] const CacheEntry* peek(std::string_view key) const override;
  void forEachEntry(
      const std::function<void(std::string_view, const CacheEntry&)>& fn)
      const override;

  [[nodiscard]] std::size_t itemCount() const noexcept override {
    return map_.size();
  }
  [[nodiscard]] util::Bytes bytesUsed() const noexcept override {
    return util::Bytes::of(used_);
  }
  [[nodiscard]] util::Bytes capacity() const noexcept override {
    return capacity_;
  }

 private:
  struct Slot {
    std::string key;
    CacheEntry entry;
    bool referenced = false;
    bool occupied = false;
  };

  void evictOne();

  util::Bytes capacity_;
  std::uint64_t used_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::size_t> freeList_;
  std::size_t hand_ = 0;
  // Owning keys: slot strings may move when slots_ grows, so the map keys
  // must not alias them. Heterogeneous lookup keeps probes allocation-free.
  std::unordered_map<std::string, std::size_t, util::TransparentStringHash,
                     std::equal_to<>>
      map_;
};

}  // namespace dcache::cache
