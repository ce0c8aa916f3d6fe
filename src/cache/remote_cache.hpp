// Remote lookaside cache tier (memcached/Redis deployment shape, Fig. 1b).
// Cache pods hold real eviction-policy shards; application servers reach
// them through the RPC channel, paying framing and value (de)serialization
// on every access — the CPU the paper identifies as the gap between Remote
// and Linked.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "cache/hash_ring.hpp"
#include "cache/kv_cache.hpp"
#include "rpc/channel.hpp"
#include "rpc/messages.hpp"
#include "sim/tier.hpp"

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
    /// The owning cache node was unreachable (down or every retry lost):
    /// the caller should degrade to the storage path.
    bool failed = false;
    std::uint64_t size = 0;
    std::uint64_t version = 0;
    double latencyMicros = 0.0;
  };

  RemoteCache(sim::Tier& tier, util::Bytes perNodeCapacity,
              rpc::Channel& channel, EvictionPolicy policy = EvictionPolicy::kLru,
              CacheOpCosts costs = {});

  /// Lookaside GET issued by an application server.
  GetResult get(sim::Node& client, std::string_view key);

  /// Fill / update after a storage read or write.
  double put(sim::Node& client, std::string_view key, std::uint64_t size,
             std::uint64_t version);

  /// Delete-on-write invalidation.
  double invalidate(sim::Node& client, std::string_view key);

  // ---- replica-aware access (gray-failure survival) ----
  /// Arm replica placement: keys map onto a consistent-hash ring over the
  /// pod indices with `factor` distinct replicas each. With factor <= 1
  /// this is never called and the legacy modulo placement above stays
  /// byte-exact; with it armed the deployment routes through
  /// replicasForKey + the *At accessors and owns the fan-out/fallback
  /// policy.
  void enableReplication(std::size_t factor);
  [[nodiscard]] std::size_t replicationFactor() const noexcept {
    return replicationFactor_;
  }
  /// The key's replica pods, primary first (empty unless replication is
  /// armed).
  [[nodiscard]] std::vector<std::size_t> replicasForKey(
      std::string_view key) const;
  /// GET/PUT/invalidate against an explicit pod (a replica chosen by the
  /// deployment). Cost accounting is identical to the keyed versions.
  GetResult getAt(sim::Node& client, std::size_t nodeIndex,
                  std::string_view key);
  double putAt(sim::Node& client, std::size_t nodeIndex, std::string_view key,
               std::uint64_t size, std::uint64_t version);
  double invalidateAt(sim::Node& client, std::size_t nodeIndex,
                      std::string_view key);
  [[nodiscard]] bool nodeUp(std::size_t nodeIndex) const noexcept {
    return tier_->node(nodeIndex).isUp();
  }

  // ---- planned membership (churn survival) ----
  /// Arm membership-aware placement: keys map onto a consistent-hash ring
  /// over the pod indices (every pod joins up front, so the armed-but-idle
  /// ring and the legacy modulo differ only in placement, not in lifecycle).
  /// Default-off: without this call the legacy modulo placement stays
  /// byte-exact. Armed, joinNode/leaveNode reshard ~1/N of the keyspace
  /// per event instead of remapping almost everything the way a modulo
  /// resize would.
  void enableMembership();
  /// Planned join/leave (idempotent: a replayed event is a no-op). Both
  /// mirror into the replica ring when replication is armed. leaveNode
  /// keeps the pod's shard contents — the handoff window migrates them;
  /// dropShard retires whatever remains.
  void joinNode(std::size_t nodeIndex);
  void leaveNode(std::size_t nodeIndex);
  /// Ring membership once armed; every valid pod index before that.
  [[nodiscard]] bool isMember(std::size_t nodeIndex) const noexcept {
    return membershipOn_ ? memberRing_.contains(nodeIndex)
                         : nodeIndex < shards_.size();
  }
  /// Current membership size (the membership director refuses to drain
  /// the last member — keys would have no owner to move to).
  [[nodiscard]] std::size_t memberCount() const noexcept {
    return membershipOn_ ? memberRing_.memberCount() : shards_.size();
  }
  /// Pod owning `key` under the active placement (modulo, or the
  /// membership ring once armed).
  [[nodiscard]] std::size_t ownerOf(std::string_view key) const noexcept {
    return nodeForKey(key);
  }

  /// Crash handling: a cache pod's contents die with the process.
  void dropShard(std::size_t nodeIndex);
  /// Is the node owning `key` currently reachable? Lets clients fail fast
  /// (skip fills) instead of paying another timeout against a known-dead
  /// pod.
  [[nodiscard]] bool nodeUpFor(std::string_view key) const noexcept {
    return tier_->node(nodeForKey(key)).isUp();
  }

  [[nodiscard]] CacheStats aggregateStats() const noexcept;
  [[nodiscard]] const CacheOpCosts& costs() const noexcept { return costs_; }
  [[nodiscard]] const sim::Tier& tier() const noexcept { return *tier_; }
  [[nodiscard]] KvCache& shardForNode(std::size_t i) noexcept {
    return *shards_[i];
  }

 private:
  [[nodiscard]] std::size_t nodeForKey(std::string_view key) const noexcept;

  sim::Tier* tier_;
  rpc::Channel* channel_;
  CacheOpCosts costs_;
  std::vector<std::unique_ptr<KvCache>> shards_;  // one per tier node
  /// Replica placement ring (empty until enableReplication).
  HashRing replicaRing_;
  std::size_t replicationFactor_ = 1;
  /// Membership placement ring (empty until enableMembership).
  HashRing memberRing_;
  bool membershipOn_ = false;
};

}  // namespace dcache::cache
