// Test-only oracle: FIFO eviction (insertion order, recency ignored) as a
// std::list over a hash map. test_cache_differential drives it in lockstep
// with FlatCache's FIFO mode.
#pragma once

#include <list>
#include <unordered_map>

#include "cache/kv_cache.hpp"

namespace dcache::cache {

class FifoCache final : public KvCache {
 public:
  explicit FifoCache(util::Bytes capacity) : capacity_(capacity) {}

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
  struct Item {
    std::string key;
    CacheEntry entry;
  };
  using List = std::list<Item>;

  void evictOne();

  util::Bytes capacity_;
  std::uint64_t used_ = 0;
  List list_;  // front = newest, back = oldest (next victim)
  std::unordered_map<std::string_view, List::iterator> map_;
};

}  // namespace dcache::cache
