#include "cache/disagg_cache.hpp"

#include "sim/trace_hook.hpp"
#include "util/hash.hpp"

namespace dcache::cache {

DisaggCache::DisaggCache(sim::Tier& farTier, util::Bytes perNodeCapacity,
                         sim::Tier& appTier, util::Bytes hotCapacityPerNode,
                         rpc::Channel& channel, EvictionPolicy policy,
                         DisaggCosts costs)
    : farTier_(&farTier),
      appTier_(&appTier),
      channel_(&channel),
      costs_(costs) {
  farShards_.reserve(farTier.size());
  for (std::size_t i = 0; i < farTier.size(); ++i) {
    farShards_.push_back(makeCache(policy, perNodeCapacity));
    farTier.node(i).mem().provision(perNodeCapacity);
  }
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
  appTier_->node(appIndex).mem().use(hotShards_[appIndex]->bytesUsed());
}

void DisaggCache::hotInvalidate(std::size_t appIndex, std::string_view key) {
  sim::Node& app = appTier_->node(appIndex);
  app.charge(sim::CpuComponent::kCacheOp, costs_.hotProbeMicros);
  hotShards_[appIndex]->erase(key);
  appTier_->node(appIndex).mem().use(hotShards_[appIndex]->bytesUsed());
}

void DisaggCache::clearHotCaches() {
  for (auto& shard : hotShards_) shard->clear();
}

std::size_t DisaggCache::nodeForKey(std::string_view key) const noexcept {
  const std::uint64_t hash = util::hashKey(key);
  if (membershipOn_) {
    // Everyone-left fallback keeps routing total; one-sided reads against
    // the departed node then time out, which is the cost of draining the
    // whole pool. No planned schedule the benches run does that.
    return memberRing_.ownerOf(hash).value_or(hash % farShards_.size());
  }
  return hash % farShards_.size();
}

void DisaggCache::enableMembership() {
  if (membershipOn_) return;
  membershipOn_ = true;
  for (std::size_t i = 0; i < farShards_.size(); ++i) {
    memberRing_.addMember(i);
  }
}

void DisaggCache::joinNode(std::size_t nodeIndex) {
  if (!membershipOn_ || nodeIndex >= farShards_.size()) return;
  if (memberRing_.contains(nodeIndex)) return;  // replayed join: no-op
  memberRing_.addMember(nodeIndex);
}

void DisaggCache::leaveNode(std::size_t nodeIndex) {
  if (!membershipOn_ || nodeIndex >= farShards_.size()) return;
  memberRing_.removeMember(nodeIndex);  // idempotent: second leave no-ops
}

DisaggCache::GetResult DisaggCache::farGet(sim::Node& initiator,
                                           std::string_view key) {
  return farGetAt(initiator, nodeForKey(key), key);
}

DisaggCache::GetResult DisaggCache::farGetAt(sim::Node& initiator,
                                             std::size_t nodeIndex,
                                             std::string_view key) {
  sim::SpanGuard span("disagg.far.get", sim::TierKind::kFarMemory);
  sim::Node& target = farTier_->node(nodeIndex);
  // Client-driven placement: the initiator computes the slot itself; there
  // is no directory hop and no CPU at the pool beyond the NIC touch.
  initiator.charge(sim::CpuComponent::kFarMemAccess, costs_.lookupMicros);

  if (!target.isUp()) {
    // The pool node is gone: the posted read times out through the
    // channel's retry budget — the header-sized probe is all that was
    // ever going to cross.
    const auto read = channel_->oneSidedRead(initiator, target,
                                             kFarSlotHeaderBytes,
                                             costs_.oneSided);
    GetResult out;
    out.failed = true;
    out.latencyMicros = read.latencyMicros;
    span.setOutcome(sim::SpanOutcome::kFailed);
    return out;
  }

  KvCache& shard = *farShards_[nodeIndex];
  const CacheEntry* entry = shard.get(key);
  // The slot crosses the wire whole: header plus the value bytes when the
  // slot is occupied; an empty slot is a header-sized read.
  const std::uint64_t bytes =
      kFarSlotHeaderBytes + (entry != nullptr ? entry->size : 0);
  const auto read =
      channel_->oneSidedRead(initiator, target, bytes, costs_.oneSided);

  GetResult out;
  out.failed = !read.ok;
  out.hit = entry != nullptr && read.ok;
  out.size = out.hit ? entry->size : 0;
  out.version = out.hit ? entry->version : 0;
  out.latencyMicros = read.latencyMicros;
  out.wireBytes = read.ok ? bytes : 0;
  farTier_->node(nodeIndex).mem().use(shard.bytesUsed());
  span.setOutcome(out.failed ? sim::SpanOutcome::kFailed
                  : out.hit  ? sim::SpanOutcome::kHit
                             : sim::SpanOutcome::kMiss);
  return out;
}

double DisaggCache::farPut(sim::Node& initiator, std::string_view key,
                           std::uint64_t size, std::uint64_t version) {
  sim::SpanGuard span("disagg.far.put", sim::TierKind::kFarMemory);
  const std::size_t idx = nodeForKey(key);
  sim::Node& target = farTier_->node(idx);
  initiator.charge(sim::CpuComponent::kFarMemAccess, costs_.lookupMicros);
  // One-sided write: identical cost shape to the read (issue + per-byte
  // push + completion at the initiator, NIC touch at the pool).
  const auto write = channel_->oneSidedRead(
      initiator, target, kFarSlotHeaderBytes + size, costs_.oneSided);
  if (target.isUp() && write.ok) {
    farShards_[idx]->put(key, CacheEntry::sized(size, version));
    farTier_->node(idx).mem().use(farShards_[idx]->bytesUsed());
  }
  return write.latencyMicros;
}

double DisaggCache::farInvalidate(sim::Node& initiator, std::string_view key) {
  sim::SpanGuard span("disagg.far.inval", sim::TierKind::kFarMemory);
  const std::size_t idx = nodeForKey(key);
  sim::Node& target = farTier_->node(idx);
  initiator.charge(sim::CpuComponent::kFarMemAccess, costs_.lookupMicros);
  const auto write = channel_->oneSidedRead(initiator, target,
                                            kFarSlotHeaderBytes,
                                            costs_.oneSided);
  if (target.isUp() && write.ok) {
    farShards_[idx]->erase(key);
    farTier_->node(idx).mem().use(farShards_[idx]->bytesUsed());
  }
  return write.latencyMicros;
}

void DisaggCache::dropShard(std::size_t nodeIndex) {
  if (nodeIndex >= farShards_.size()) return;
  farShards_[nodeIndex]->clear();
}

}  // namespace dcache::cache
