// Linked in-process cache (Fig. 1c). Each application server embeds one
// shard; a consistent-hash ring assigns keys to servers. A local hit costs
// only the probe — no network hop, no (de)serialization, and in object mode
// the application uses the cached object in place. Requests that land on a
// non-owner are forwarded inside the app tier (or, with affinity routing, a
// Slicer-like front-end sends them to the owner directly).
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "cache/hash_ring.hpp"
#include "cache/kv_cache.hpp"
#include "cache/remote_cache.hpp"
#include "rpc/channel.hpp"
#include "rpc/messages.hpp"
#include "sim/tier.hpp"

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

  LinkedCache(sim::Tier& appTier, util::Bytes perNodeCapacity,
              rpc::Channel& channel, EvictionPolicy policy = EvictionPolicy::kLru,
              CacheOpCosts costs = {});

  /// App-server index that owns the key (ring placement). With affinity
  /// routing the deployment sends the client request straight there.
  [[nodiscard]] std::size_t ownerOf(std::string_view key) const noexcept;

  /// Probe from server `serverIndex`. A non-owner probe forwards to the
  /// owner over the tier-internal channel and pays marshalling.
  GetResult get(std::size_t serverIndex, std::string_view key);

  /// Fill the owner's shard after a storage read (charged to the owner).
  void fill(std::string_view key, std::uint64_t size, std::uint64_t version);

  /// Invalidate/update on write. Charged to the writer; cross-server
  /// invalidations pay a one-way message.
  double invalidate(std::size_t writerIndex, std::string_view key);
  double update(std::size_t writerIndex, std::string_view key,
                std::uint64_t size, std::uint64_t version);

  /// Remove a server from the ring (resharding / failure). Its shard is
  /// dropped, mirroring a process restart. Removing a server that is not a
  /// ring member is a no-op (a replayed crash event must not clear the
  /// shard a rejoined server refilled).
  void removeServer(std::size_t serverIndex);

  /// Planned drain: remove the server from the ring but KEEP its shard
  /// contents — the membership handoff migrates them to the new owners
  /// during the transfer window, then dropShard() retires the rest.
  void drainServer(std::size_t serverIndex);

  /// Drop a drained server's remaining shard contents (end of the handoff
  /// window, or a cold leave with no handoff).
  void dropShard(std::size_t serverIndex);

  /// Re-add a previously removed server (restart after a crash). The shard
  /// comes back *cold* — in-process cache contents do not survive the
  /// process — and, because the ring's vnode points depend only on the
  /// member index, ownership returns to exactly the pre-crash partition.
  void addServer(std::size_t serverIndex);

  /// True when the server is a ring member (i.e. currently owns a shard).
  [[nodiscard]] bool hasServer(std::size_t serverIndex) const noexcept {
    return ring_.contains(serverIndex);
  }
  /// Current ring membership size (the membership director refuses to
  /// drain the last member — keys would have no owner to move to).
  [[nodiscard]] std::size_t serverCount() const noexcept {
    return ring_.memberCount();
  }

  // ---- replica-aware access (gray-failure survival) ----
  /// The key's replica shard owners, primary first: the first `n` distinct
  /// ring members clockwise from the key's hash. With n == 1 this is just
  /// {ownerOf(key)}; the deployment's replication knob decides how many
  /// shards actually hold the key.
  [[nodiscard]] std::vector<std::size_t> replicasOf(std::string_view key,
                                                    std::size_t n) const;
  /// Probe/fill/update/invalidate against an explicit shard (a replica
  /// chosen by the deployment). Cost accounting mirrors the keyed
  /// versions: a non-local probe pays the forwarded marshalled hop, a
  /// cross-server update pays the one-way message.
  GetResult getAt(std::size_t serverIndex, std::size_t ownerIndex,
                  std::string_view key);
  void fillAt(std::size_t ownerIndex, std::string_view key,
              std::uint64_t size, std::uint64_t version);
  double updateAt(std::size_t writerIndex, std::size_t ownerIndex,
                  std::string_view key, std::uint64_t size,
                  std::uint64_t version);
  double invalidateAt(std::size_t writerIndex, std::size_t ownerIndex,
                      std::string_view key);

  [[nodiscard]] const CacheOpCosts& costs() const noexcept { return costs_; }
  /// Total entries across shards (TTL bookkeeping boundedness checks).
  [[nodiscard]] std::size_t itemCount() const noexcept;
  [[nodiscard]] KvCache& shard(std::size_t i) noexcept { return *shards_[i]; }
  [[nodiscard]] const sim::Tier& tier() const noexcept { return *tier_; }

 private:
  sim::Tier* tier_;
  rpc::Channel* channel_;
  CacheOpCosts costs_;
  HashRing ring_;
  std::vector<std::unique_ptr<KvCache>> shards_;
};

}  // namespace dcache::cache
