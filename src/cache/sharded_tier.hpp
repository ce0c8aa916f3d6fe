// One key-sharded cache tier: a shard per node of a sim::Tier, the
// placement that maps keys to shards, ring membership, replica sets, the
// node-up check and memory metering. Remote pods, Linked app shards and the
// Disaggregated far pool each hold one; they differ only in transport
// (unary RPC, in-process or intra-tier calls, one-sided reads), never in
// how keys are sharded.
//
// Placement is one rule: modulo until the ring is armed, the consistent-hash
// ring (hash_ring.hpp) after. Replication and membership arm it: armRing()
// up front, or the first membership call that changes something. Linked
// arms at construction because an app-server crash reshards it; Remote and
// the far pool stay on modulo, the placement every fault-free,
// unreplicated figure runs on.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "cache/hash_ring.hpp"
#include "cache/kv_cache.hpp"
#include "sim/tier.hpp"

namespace dcache::cache {

class ShardedTier {
 public:
  /// One `policy` shard of `perNodeCapacity` per node of `tier`, provisioned
  /// on top of whatever the node already runs (an app server's working
  /// memory; nothing on a dedicated cache pod).
  ShardedTier(sim::Tier& tier, util::Bytes perNodeCapacity,
              EvictionPolicy policy, bool ringArmed);

  // ---- placement ----
  /// Switch to the ring, every node a member. Idempotent.
  void armRing();
  [[nodiscard]] bool ringArmed() const noexcept { return armed_; }
  /// The key's owner. A ring every member has left places by modulo again,
  /// so routing stays total (calls then time out against a departed node).
  [[nodiscard]] std::size_t ownerOf(std::string_view key) const noexcept;
  /// The key's replica set, primary first: the first `n` distinct members
  /// clockwise from its hash, so element 0 is ownerOf(key). Before the ring
  /// is armed the modulo owner is the only copy.
  [[nodiscard]] std::vector<std::size_t> replicasOf(std::string_view key,
                                                    std::size_t n) const;

  // ---- membership (every node is a member until armed) ----
  [[nodiscard]] bool isMember(std::size_t node) const noexcept {
    return armed_ ? ring_.contains(node) : node < shards_.size();
  }
  [[nodiscard]] std::size_t memberCount() const noexcept {
    return armed_ ? ring_.memberCount() : shards_.size();
  }
  /// Join: the shard comes back cold (its process restarted) and ownership
  /// returns to the pre-leave partition (vnode points depend only on the
  /// node index). A member is left as it is: a replayed join is a no-op.
  void admitMember(std::size_t node);
  /// Warm leave: out of the ring at once, shard contents kept for the
  /// handoff window to migrate; dropShard retires the rest. Idempotent.
  void drainMember(std::size_t node);
  /// Cold leave (crash reshard, cold drain, absent spare): out of the ring,
  /// shard dropped. A non-member is left as it is, so a replayed event
  /// cannot clear a draining shard.
  void retireMember(std::size_t node);
  /// Drop the shard's contents (a crash, or a handoff window's end).
  void dropShard(std::size_t node);

  // ---- shards and nodes ----
  [[nodiscard]] KvCache& shard(std::size_t node) noexcept {
    return *shards_[node];
  }
  [[nodiscard]] bool nodeUp(std::size_t node) const noexcept {
    return tier_->node(node).isUp();
  }
  /// Refresh the node's memory meter from its shard's occupancy.
  void syncMemory(std::size_t node) noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return shards_.size(); }
  [[nodiscard]] sim::Tier& tier() noexcept { return *tier_; }
  [[nodiscard]] std::size_t itemCount() const noexcept;
  [[nodiscard]] CacheStats aggregateStats() const noexcept;

 private:
  sim::Tier* tier_;
  std::vector<std::unique_ptr<KvCache>> shards_;
  HashRing ring_;
  bool armed_ = false;
};

}  // namespace dcache::cache
