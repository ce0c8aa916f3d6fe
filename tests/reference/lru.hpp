// Test-only oracle: classic LRU as a std::list recency list over a hash map,
// one heap allocation per entry. test_cache_differential drives it in
// lockstep with the production FlatCache (flat_cache.hpp), which must agree
// on every hit, stat, byte count and victim.
#pragma once

#include <list>
#include <unordered_map>
#include <utility>

#include "cache/kv_cache.hpp"

namespace dcache::cache {

class LruCache final : public KvCache {
 public:
  explicit LruCache(util::Bytes capacity) : capacity_(capacity) {}

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

  /// Key that would be evicted next (LRU victim); empty if cache is empty.
  [[nodiscard]] std::string_view victim() const noexcept;

 private:
  struct Item {
    std::string key;
    CacheEntry entry;
  };
  using List = std::list<Item>;

  void evictOne();

  util::Bytes capacity_;
  std::uint64_t used_ = 0;
  List list_;  // front = most recent
  std::unordered_map<std::string_view, List::iterator> map_;
};

}  // namespace dcache::cache
