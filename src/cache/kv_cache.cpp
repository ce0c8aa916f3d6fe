#include "cache/kv_cache.hpp"

#include <cstdio>
#include <cstdlib>

#include "cache/flat_cache.hpp"
#include "cache/lfu.hpp"
#include "cache/s3fifo.hpp"
#include "cache/slru.hpp"

namespace dcache::cache {

std::string_view evictionPolicyName(EvictionPolicy p) noexcept {
  switch (p) {
    case EvictionPolicy::kLru: return "lru";
    case EvictionPolicy::kFifo: return "fifo";
    case EvictionPolicy::kClock: return "clock";
    case EvictionPolicy::kSlru: return "slru";
    case EvictionPolicy::kLfu: return "lfu";
    case EvictionPolicy::kS3Fifo: return "s3fifo";
  }
  return "unknown";
}

void cacheInvariantFailure(const char* policy, const char* what) {
  std::fprintf(stderr, "dcache cache invariant violated [%s]: %s\n", policy,
               what);
  std::abort();
}

std::unique_ptr<KvCache> makeCache(EvictionPolicy policy,
                                   util::Bytes capacity) {
  switch (policy) {
    case EvictionPolicy::kLru:
      return std::make_unique<FlatCache>(FlatMode::kLru, capacity);
    case EvictionPolicy::kFifo:
      return std::make_unique<FlatCache>(FlatMode::kFifo, capacity);
    case EvictionPolicy::kClock:
      return std::make_unique<FlatCache>(FlatMode::kClock, capacity);
    case EvictionPolicy::kSlru:
      return std::make_unique<SlruCache>(capacity);
    case EvictionPolicy::kLfu:
      return std::make_unique<LfuCache>(capacity);
    case EvictionPolicy::kS3Fifo:
      return std::make_unique<S3FifoCache>(capacity);
  }
  return std::make_unique<FlatCache>(FlatMode::kLru, capacity);
}

}  // namespace dcache::cache
