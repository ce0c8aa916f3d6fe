#include "cache/remote_cache.hpp"

#include "rpc/wire_size.hpp"
#include "sim/trace_hook.hpp"

namespace dcache::cache {

RemoteCache::RemoteCache(sim::Tier& tier, util::Bytes perNodeCapacity,
                         rpc::Channel& channel, EvictionPolicy policy,
                         CacheOpCosts costs)
    : shards_(tier, perNodeCapacity, policy, /*ringArmed=*/false),
      channel_(&channel),
      costs_(costs) {}

RemoteCache::GetResult RemoteCache::get(sim::Node& client, std::size_t node,
                                        std::string_view key) {
  sim::SpanGuard span("remote.get", sim::TierKind::kRemoteCache);
  sim::Node& server = shards_.tier().node(node);
  // A down pod runs no probe, but the client still pays the full timed-out
  // retry budget against it (the channel's policy path).
  const bool up = server.isUp();
  const CacheEntry* entry = nullptr;
  if (up) {
    server.charge(sim::CpuComponent::kCacheOp, costs_.probeMicros);
    entry = shards_.shard(node).get(key);
  }

  // The value crosses the wire on a hit: account its bytes without
  // materializing them (CacheEntry::size is the logical value size).
  const std::uint64_t respBytes =
      rpc::getResponseWireSize() + (entry ? entry->size : 0);
  const auto call = channel_->call(
      client, server, rpc::getRequestWireSize(key.size()), respBytes);

  GetResult out;
  // A call lost to a degraded network (every retry dropped) is a failure
  // even though the pod is healthy: the client never saw the value.
  out.failed = !up || !call.ok;
  out.hit = entry != nullptr && call.ok;
  out.size = out.hit ? entry->size : 0;
  out.version = out.hit ? entry->version : 0;
  out.latencyMicros = call.latencyMicros;
  if (up) shards_.syncMemory(node);
  span.setOutcome(out.failed ? sim::SpanOutcome::kFailed
                  : out.hit  ? sim::SpanOutcome::kHit
                             : sim::SpanOutcome::kMiss);
  return out;
}

double RemoteCache::put(sim::Node& client, std::size_t node,
                        std::string_view key, std::uint64_t size,
                        std::uint64_t version) {
  sim::SpanGuard span("remote.put", sim::TierKind::kRemoteCache);
  sim::Node& server = shards_.tier().node(node);

  const auto call = channel_->call(
      client, server, rpc::putRequestWireSize(key.size()) + size,
      rpc::putResponseWireSize());
  if (server.isUp() && call.ok) {
    server.charge(sim::CpuComponent::kCacheOp, costs_.insertMicros);
    shards_.shard(node).put(key, CacheEntry::sized(size, version));
    shards_.syncMemory(node);
  }
  return call.latencyMicros;
}

double RemoteCache::invalidate(sim::Node& client, std::size_t node,
                               std::string_view key) {
  sim::SpanGuard span("remote.inval", sim::TierKind::kRemoteCache);
  sim::Node& server = shards_.tier().node(node);

  // Key-only request message, minimal ack back.
  const auto call =
      channel_->call(client, server, rpc::getRequestWireSize(key.size()),
                     rpc::putResponseWireSize());
  if (server.isUp() && call.ok) {
    server.charge(sim::CpuComponent::kCacheOp, costs_.probeMicros);
    shards_.shard(node).erase(key);
  }
  return call.latencyMicros;
}

}  // namespace dcache::cache
