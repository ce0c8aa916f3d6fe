// Remote lookaside cache tier (memcached/Redis deployment shape, Fig. 1b).
// Cache pods hold real eviction-policy shards; application servers reach
// them through the RPC channel, paying framing and value (de)serialization
// on every access — the CPU the paper identifies as the gap between Remote
// and Linked.
#pragma once

#include <string_view>

#include "cache/sharded_tier.hpp"
#include "rpc/channel.hpp"
#include "rpc/messages.hpp"

namespace dcache::cache {

/// CPU charged inside the cache process for the data-structure work itself
/// (hash probe, eviction, slab bookkeeping). Small next to RPC costs — as
/// in production, where memcached server CPU is dominated by the network
/// stack, which the channel accounts separately.
struct CacheOpCosts {
  double probeMicros = 0.4;
  double insertMicros = 0.7;
};

class RemoteCache {
 public:
  struct GetResult {
    bool hit = false;
    /// The pod was unreachable (down or every retry lost): the caller
    /// should degrade to the storage path.
    bool failed = false;
    std::uint64_t size = 0;
    std::uint64_t version = 0;
    double latencyMicros = 0.0;
  };

  RemoteCache(sim::Tier& tier, util::Bytes perNodeCapacity,
              rpc::Channel& channel, EvictionPolicy policy = EvictionPolicy::kLru,
              CacheOpCosts costs = {});

  /// Lookaside GET against pod `node` (the key's owner or a replica the
  /// deployment chose), issued by an application server.
  GetResult get(sim::Node& client, std::size_t node, std::string_view key);
  /// Fill / update after a storage read or write.
  double put(sim::Node& client, std::size_t node, std::string_view key,
             std::uint64_t size, std::uint64_t version);
  /// Delete-on-write invalidation.
  double invalidate(sim::Node& client, std::size_t node,
                    std::string_view key);

  /// Placement, membership and the pods' shards.
  [[nodiscard]] ShardedTier& shards() noexcept { return shards_; }
  [[nodiscard]] const CacheOpCosts& costs() const noexcept { return costs_; }

 private:
  ShardedTier shards_;
  rpc::Channel* channel_;
  CacheOpCosts costs_;
};

}  // namespace dcache::cache
