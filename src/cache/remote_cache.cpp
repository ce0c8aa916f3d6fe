#include "cache/remote_cache.hpp"

#include "rpc/wire_size.hpp"
#include "sim/trace_hook.hpp"
#include "util/hash.hpp"

namespace dcache::cache {

RemoteCache::RemoteCache(sim::Tier& tier, util::Bytes perNodeCapacity,
                         rpc::Channel& channel, EvictionPolicy policy,
                         CacheOpCosts costs)
    : tier_(&tier), channel_(&channel), costs_(costs) {
  shards_.reserve(tier.size());
  for (std::size_t i = 0; i < tier.size(); ++i) {
    shards_.push_back(makeCache(policy, perNodeCapacity));
    tier.node(i).mem().provision(perNodeCapacity);
  }
}

std::size_t RemoteCache::nodeForKey(std::string_view key) const noexcept {
  const std::uint64_t hash = util::hashKey(key);
  if (membershipOn_) {
    // Everyone-left fallback keeps routing total (calls then time out
    // against the departed pod, which is the cost of draining a whole
    // tier); it cannot fire in any planned schedule the benches run.
    return memberRing_.ownerOf(hash).value_or(hash % shards_.size());
  }
  return hash % shards_.size();
}

RemoteCache::GetResult RemoteCache::get(sim::Node& client,
                                        std::string_view key) {
  return getAt(client, nodeForKey(key), key);
}

RemoteCache::GetResult RemoteCache::getAt(sim::Node& client,
                                          std::size_t nodeIndex,
                                          std::string_view key) {
  sim::SpanGuard span("remote.get", sim::TierKind::kRemoteCache);
  const std::size_t idx = nodeIndex;
  sim::Node& server = tier_->node(idx);
  KvCache& shard = *shards_[idx];

  if (!server.isUp()) {
    // The pod is gone: no probe runs, but the client still pays the full
    // timed-out retry budget against it (the channel's policy path).
    const auto call =
        channel_->call(client, server, rpc::getRequestWireSize(key.size()),
                       rpc::getResponseWireSize());
    GetResult out;
    out.failed = true;
    out.latencyMicros = call.latencyMicros;
    span.setOutcome(sim::SpanOutcome::kFailed);
    return out;
  }

  server.charge(sim::CpuComponent::kCacheOp, costs_.probeMicros);
  const CacheEntry* entry = shard.get(key);

  // The value crosses the wire on a hit: account its bytes without
  // materializing them (CacheEntry::size is the logical value size).
  const std::uint64_t respBytes =
      rpc::getResponseWireSize() + (entry ? entry->size : 0);
  const auto call = channel_->call(
      client, server, rpc::getRequestWireSize(key.size()), respBytes);

  GetResult out;
  // A call lost to a degraded network (every retry dropped) is a failure
  // even though the pod is healthy: the client never saw the value.
  out.failed = !call.ok;
  out.hit = entry != nullptr && call.ok;
  out.size = out.hit ? entry->size : 0;
  out.version = out.hit ? entry->version : 0;
  out.latencyMicros = call.latencyMicros;
  tier_->node(idx).mem().use(shard.bytesUsed());
  span.setOutcome(out.failed ? sim::SpanOutcome::kFailed
                  : out.hit  ? sim::SpanOutcome::kHit
                             : sim::SpanOutcome::kMiss);
  return out;
}

double RemoteCache::put(sim::Node& client, std::string_view key,
                        std::uint64_t size, std::uint64_t version) {
  return putAt(client, nodeForKey(key), key, size, version);
}

double RemoteCache::putAt(sim::Node& client, std::size_t nodeIndex,
                          std::string_view key, std::uint64_t size,
                          std::uint64_t version) {
  sim::SpanGuard span("remote.put", sim::TierKind::kRemoteCache);
  const std::size_t idx = nodeIndex;
  sim::Node& server = tier_->node(idx);

  const auto call = channel_->call(
      client, server, rpc::putRequestWireSize(key.size()) + size,
      rpc::putResponseWireSize());
  if (server.isUp() && call.ok) {
    server.charge(sim::CpuComponent::kCacheOp, costs_.insertMicros);
    shards_[idx]->put(key, CacheEntry::sized(size, version));
    tier_->node(idx).mem().use(shards_[idx]->bytesUsed());
  }
  return call.latencyMicros;
}

double RemoteCache::invalidate(sim::Node& client, std::string_view key) {
  return invalidateAt(client, nodeForKey(key), key);
}

double RemoteCache::invalidateAt(sim::Node& client, std::size_t nodeIndex,
                                 std::string_view key) {
  sim::SpanGuard span("remote.inval", sim::TierKind::kRemoteCache);
  const std::size_t idx = nodeIndex;
  sim::Node& server = tier_->node(idx);

  // Key-only request message, minimal ack back.
  const auto call =
      channel_->call(client, server, rpc::getRequestWireSize(key.size()),
                     rpc::putResponseWireSize());
  if (server.isUp() && call.ok) {
    server.charge(sim::CpuComponent::kCacheOp, costs_.probeMicros);
    shards_[idx]->erase(key);
  }
  return call.latencyMicros;
}

void RemoteCache::enableReplication(std::size_t factor) {
  replicationFactor_ = factor < 1 ? 1 : factor;
  if (replicationFactor_ <= 1) return;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    replicaRing_.addMember(i);
  }
}

std::vector<std::size_t> RemoteCache::replicasForKey(
    std::string_view key) const {
  if (replicationFactor_ <= 1) return {};
  return replicaRing_.replicasOf(util::hashKey(key), replicationFactor_);
}

void RemoteCache::enableMembership() {
  if (membershipOn_) return;
  membershipOn_ = true;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    memberRing_.addMember(i);
  }
}

void RemoteCache::joinNode(std::size_t nodeIndex) {
  if (!membershipOn_ || nodeIndex >= shards_.size()) return;
  if (memberRing_.contains(nodeIndex)) return;  // replayed join: no-op
  memberRing_.addMember(nodeIndex);
  if (replicationFactor_ > 1 && !replicaRing_.contains(nodeIndex)) {
    replicaRing_.addMember(nodeIndex);
  }
}

void RemoteCache::leaveNode(std::size_t nodeIndex) {
  if (!membershipOn_ || nodeIndex >= shards_.size()) return;
  memberRing_.removeMember(nodeIndex);  // idempotent: second leave no-ops
  if (replicationFactor_ > 1) replicaRing_.removeMember(nodeIndex);
}

void RemoteCache::dropShard(std::size_t nodeIndex) {
  if (nodeIndex >= shards_.size()) return;
  shards_[nodeIndex]->clear();
}

CacheStats RemoteCache::aggregateStats() const noexcept {
  CacheStats total;
  for (const auto& shard : shards_) {
    total.hits += shard->stats().hits;
    total.misses += shard->stats().misses;
    total.insertions += shard->stats().insertions;
    total.overwrites += shard->stats().overwrites;
    total.evictions += shard->stats().evictions;
  }
  return total;
}

}  // namespace dcache::cache
