#include "cache/disagg_cache.hpp"

#include <algorithm>

#include "sim/trace_hook.hpp"

namespace dcache::cache {
namespace {

/// An invalidation message's bytes beyond its key: 8-byte version plus
/// framing.
constexpr std::uint64_t kInvalidationOverheadBytes = 12;

}  // namespace

DisaggCache::DisaggCache(sim::Tier& farTier, util::Bytes perNodeCapacity,
                         sim::Tier& appTier, util::Bytes hotCapacityPerNode,
                         rpc::Channel& channel, EvictionPolicy policy,
                         DisaggCosts costs)
    : far_(farTier, perNodeCapacity, policy, /*ringArmed=*/false),
      appTier_(&appTier),
      channel_(&channel),
      costs_(costs) {
  hotShards_.reserve(appTier.size());
  for (std::size_t i = 0; i < appTier.size(); ++i) {
    hotShards_.push_back(makeCache(policy, hotCapacityPerNode));
    // Additive: the app nodes already carry their base working-set memory.
    appTier.node(i).mem().provision(appTier.node(i).mem().provisioned() +
                                    hotCapacityPerNode);
  }
}

DisaggCache::GetResult DisaggCache::hotGet(std::size_t appIndex,
                                           std::string_view key) {
  sim::SpanGuard span("disagg.hot.get", sim::TierKind::kAppServer);
  sim::Node& app = appTier_->node(appIndex);
  app.charge(sim::CpuComponent::kCacheOp, costs_.hotProbeMicros);
  const CacheEntry* entry = hotShards_[appIndex]->get(key);
  GetResult out;
  out.hit = entry != nullptr;
  out.size = out.hit ? entry->size : 0;
  out.version = out.hit ? entry->version : 0;
  out.latencyMicros = costs_.hotProbeMicros;  // in-process: latency == CPU
  span.setOutcome(out.hit ? sim::SpanOutcome::kHit : sim::SpanOutcome::kMiss);
  return out;
}

void DisaggCache::hotFill(std::size_t appIndex, std::string_view key,
                          std::uint64_t size, std::uint64_t version) {
  sim::Node& app = appTier_->node(appIndex);
  app.charge(sim::CpuComponent::kCacheOp, costs_.hotInsertMicros);
  hotShards_[appIndex]->put(key, CacheEntry::sized(size, version));
  app.mem().use(hotShards_[appIndex]->bytesUsed());
}

void DisaggCache::hotInvalidate(std::size_t appIndex, std::string_view key) {
  sim::Node& app = appTier_->node(appIndex);
  app.charge(sim::CpuComponent::kCacheOp, costs_.hotProbeMicros);
  hotShards_[appIndex]->erase(key);
  app.mem().use(hotShards_[appIndex]->bytesUsed());
}

DisaggCache::Fanout DisaggCache::invalidatePeers(std::size_t writerIndex,
                                                 std::string_view key) {
  sim::Node& writer = appTier_->node(writerIndex);
  Fanout out;
  for (std::size_t i = 0; i < hotShards_.size(); ++i) {
    if (i == writerIndex) continue;
    const double latency = channel_->oneWay(
        writer, appTier_->node(i), key.size() + kInvalidationOverheadBytes);
    out.latencyMicros = std::max(out.latencyMicros, latency);
    hotInvalidate(i, key);
    ++out.peers;
  }
  return out;
}

void DisaggCache::clearHotCaches() {
  for (auto& shard : hotShards_) shard->clear();
}

DisaggCache::GetResult DisaggCache::farGet(sim::Node& initiator,
                                           std::size_t node,
                                           std::string_view key) {
  sim::SpanGuard span("disagg.far.get", sim::TierKind::kFarMemory);
  sim::Node& target = far_.tier().node(node);
  // Client-driven placement: the initiator computes the slot itself; there
  // is no directory hop and no CPU at the pool beyond the NIC touch.
  initiator.charge(sim::CpuComponent::kFarMemAccess, costs_.lookupMicros);

  // A down pool node's posted read times out through the channel's retry
  // budget — the header-sized probe is all that was ever going to cross.
  // Otherwise the slot crosses the wire whole: header plus the value bytes
  // when the slot is occupied; an empty slot is a header-sized read.
  const bool up = target.isUp();
  const CacheEntry* entry = up ? far_.shard(node).get(key) : nullptr;
  const std::uint64_t bytes =
      kFarSlotHeaderBytes + (entry != nullptr ? entry->size : 0);
  const auto read =
      channel_->oneSidedRead(initiator, target, bytes, costs_.oneSided);

  GetResult out;
  out.failed = !up || !read.ok;
  out.hit = entry != nullptr && read.ok;
  out.size = out.hit ? entry->size : 0;
  out.version = out.hit ? entry->version : 0;
  out.latencyMicros = read.latencyMicros;
  out.wireBytes = out.failed ? 0 : bytes;
  if (up) far_.syncMemory(node);
  span.setOutcome(out.failed ? sim::SpanOutcome::kFailed
                  : out.hit  ? sim::SpanOutcome::kHit
                             : sim::SpanOutcome::kMiss);
  return out;
}

double DisaggCache::farPut(sim::Node& initiator, std::size_t node,
                           std::string_view key, std::uint64_t size,
                           std::uint64_t version) {
  sim::SpanGuard span("disagg.far.put", sim::TierKind::kFarMemory);
  sim::Node& target = far_.tier().node(node);
  initiator.charge(sim::CpuComponent::kFarMemAccess, costs_.lookupMicros);
  // One-sided write: identical cost shape to the read (issue + per-byte
  // push + completion at the initiator, NIC touch at the pool).
  const auto write = channel_->oneSidedRead(
      initiator, target, kFarSlotHeaderBytes + size, costs_.oneSided);
  if (target.isUp() && write.ok) {
    far_.shard(node).put(key, CacheEntry::sized(size, version));
    far_.syncMemory(node);
  }
  return write.latencyMicros;
}

double DisaggCache::farInvalidate(sim::Node& initiator, std::size_t node,
                                  std::string_view key) {
  sim::SpanGuard span("disagg.far.inval", sim::TierKind::kFarMemory);
  sim::Node& target = far_.tier().node(node);
  initiator.charge(sim::CpuComponent::kFarMemAccess, costs_.lookupMicros);
  const auto write = channel_->oneSidedRead(initiator, target,
                                            kFarSlotHeaderBytes,
                                            costs_.oneSided);
  if (target.isUp() && write.ok) {
    far_.shard(node).erase(key);
    far_.syncMemory(node);
  }
  return write.latencyMicros;
}

}  // namespace dcache::cache
