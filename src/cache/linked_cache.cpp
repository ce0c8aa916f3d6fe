#include "cache/linked_cache.hpp"

#include "rpc/wire_size.hpp"
#include "sim/trace_hook.hpp"

namespace dcache::cache {

LinkedCache::LinkedCache(sim::Tier& appTier, util::Bytes perNodeCapacity,
                         rpc::Channel& channel, EvictionPolicy policy,
                         CacheOpCosts costs)
    : shards_(appTier, perNodeCapacity, policy, /*ringArmed=*/true),
      channel_(&channel),
      costs_(costs) {}

LinkedCache::GetResult LinkedCache::get(std::size_t serverIndex,
                                        std::size_t owner,
                                        std::string_view key) {
  sim::SpanGuard span("linked.get", sim::TierKind::kAppServer);
  sim::Node& ownerNode = shards_.tier().node(owner);

  ownerNode.charge(sim::CpuComponent::kCacheOp, costs_.probeMicros);
  const CacheEntry* entry = shards_.shard(owner).get(key);

  GetResult out;
  out.hit = entry != nullptr;
  out.local = owner == serverIndex;
  out.size = entry ? entry->size : 0;
  out.version = entry ? entry->version : 0;

  if (!out.local) {
    // Forwarded probe: the value is marshalled between the two app servers.
    const std::uint64_t respBytes = rpc::getResponseWireSize() + out.size;
    const auto call =
        channel_->call(shards_.tier().node(serverIndex), ownerNode,
                       rpc::getRequestWireSize(key.size()), respBytes);
    out.latencyMicros = call.latencyMicros;
  }
  shards_.syncMemory(owner);
  span.setOutcome(out.hit ? sim::SpanOutcome::kHit : sim::SpanOutcome::kMiss);
  return out;
}

void LinkedCache::fill(std::size_t owner, std::string_view key,
                       std::uint64_t size, std::uint64_t version) {
  sim::SpanGuard span("linked.fill", sim::TierKind::kAppServer);
  shards_.tier().node(owner).charge(sim::CpuComponent::kCacheOp,
                                    costs_.insertMicros);
  shards_.shard(owner).put(key, CacheEntry::sized(size, version));
  shards_.syncMemory(owner);
}

double LinkedCache::invalidate(std::size_t writerIndex, std::size_t owner,
                               std::string_view key) {
  sim::SpanGuard span("linked.inval", sim::TierKind::kAppServer);
  sim::Node& ownerNode = shards_.tier().node(owner);
  ownerNode.charge(sim::CpuComponent::kCacheOp, costs_.probeMicros);
  shards_.shard(owner).erase(key);
  if (owner == writerIndex) return 0.0;
  return channel_->oneWay(shards_.tier().node(writerIndex), ownerNode,
                          rpc::getRequestWireSize(key.size()));
}

double LinkedCache::update(std::size_t writerIndex, std::size_t owner,
                           std::string_view key, std::uint64_t size,
                           std::uint64_t version) {
  sim::SpanGuard span("linked.update", sim::TierKind::kAppServer);
  sim::Node& ownerNode = shards_.tier().node(owner);
  ownerNode.charge(sim::CpuComponent::kCacheOp, costs_.insertMicros);
  shards_.shard(owner).put(key, CacheEntry::sized(size, version));
  shards_.syncMemory(owner);
  if (owner == writerIndex) return 0.0;
  return channel_->oneWay(shards_.tier().node(writerIndex), ownerNode,
                          rpc::putRequestWireSize(key.size()) + size);
}

}  // namespace dcache::cache
