// Linked in-process cache (Fig. 1c). Each application server embeds one
// shard; a consistent-hash ring assigns keys to servers. A local hit costs
// only the probe — no network hop, no (de)serialization, and in object mode
// the application uses the cached object in place. Requests that land on a
// non-owner are forwarded inside the app tier (or, with affinity routing, a
// Slicer-like front-end sends them to the owner directly).
#pragma once

#include <string_view>

#include "cache/remote_cache.hpp"
#include "cache/sharded_tier.hpp"
#include "rpc/channel.hpp"

namespace dcache::cache {

class LinkedCache {
 public:
  struct GetResult {
    bool hit = false;
    bool local = false;  // served from the probing server's own shard
    std::uint64_t size = 0;
    std::uint64_t version = 0;
    double latencyMicros = 0.0;
  };

  /// The ring is armed from the start: an app-server crash reshards it.
  LinkedCache(sim::Tier& appTier, util::Bytes perNodeCapacity,
              rpc::Channel& channel, EvictionPolicy policy = EvictionPolicy::kLru,
              CacheOpCosts costs = {});

  /// Probe shard `owner` (the key's owner or a replica the deployment
  /// chose) from server `serverIndex`. A non-local probe forwards over the
  /// tier-internal channel and pays marshalling.
  GetResult get(std::size_t serverIndex, std::size_t owner,
                std::string_view key);
  /// Fill shard `owner` after a storage read (charged to the owner).
  void fill(std::size_t owner, std::string_view key, std::uint64_t size,
            std::uint64_t version);
  /// Update/invalidate shard `owner` on behalf of server `writerIndex`.
  /// Charged to the owner; a cross-server call pays a one-way message.
  double update(std::size_t writerIndex, std::size_t owner,
                std::string_view key, std::uint64_t size,
                std::uint64_t version);
  double invalidate(std::size_t writerIndex, std::size_t owner,
                    std::string_view key);

  /// Placement, membership and the app servers' shards.
  [[nodiscard]] ShardedTier& shards() noexcept { return shards_; }
  [[nodiscard]] const CacheOpCosts& costs() const noexcept { return costs_; }

 private:
  ShardedTier shards_;
  rpc::Channel* channel_;
  CacheOpCosts costs_;
};

}  // namespace dcache::cache
