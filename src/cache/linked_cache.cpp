#include "cache/linked_cache.hpp"

#include "rpc/wire_size.hpp"
#include "sim/trace_hook.hpp"
#include "util/hash.hpp"

namespace dcache::cache {

LinkedCache::LinkedCache(sim::Tier& appTier, util::Bytes perNodeCapacity,
                         rpc::Channel& channel, EvictionPolicy policy,
                         CacheOpCosts costs)
    : tier_(&appTier), channel_(&channel), costs_(costs) {
  shards_.reserve(appTier.size());
  for (std::size_t i = 0; i < appTier.size(); ++i) {
    shards_.push_back(makeCache(policy, perNodeCapacity));
    ring_.addMember(i);
    // The linked cache shares the app server's memory; the cache capacity
    // is provisioned on top of the app's working memory.
    appTier.node(i).mem().provision(appTier.node(i).mem().provisioned() +
                                    perNodeCapacity);
  }
}

std::size_t LinkedCache::ownerOf(std::string_view key) const noexcept {
  return ring_.ownerOf(util::hashKey(key)).value_or(0);
}

std::vector<std::size_t> LinkedCache::replicasOf(std::string_view key,
                                                 std::size_t n) const {
  return ring_.replicasOf(util::hashKey(key), n);
}

LinkedCache::GetResult LinkedCache::get(std::size_t serverIndex,
                                        std::string_view key) {
  return getAt(serverIndex, ownerOf(key), key);
}

LinkedCache::GetResult LinkedCache::getAt(std::size_t serverIndex,
                                          std::size_t ownerIndex,
                                          std::string_view key) {
  sim::SpanGuard span("linked.get", sim::TierKind::kAppServer);
  const std::size_t owner = ownerIndex;
  sim::Node& ownerNode = tier_->node(owner);
  KvCache* shard = shards_[owner].get();

  ownerNode.charge(sim::CpuComponent::kCacheOp, costs_.probeMicros);
  const CacheEntry* entry = shard->get(key);

  GetResult out;
  out.hit = entry != nullptr;
  out.local = owner == serverIndex;
  out.size = entry ? entry->size : 0;
  out.version = entry ? entry->version : 0;

  if (!out.local) {
    // Forwarded probe: the value is marshalled between the two app servers.
    const std::uint64_t respBytes = rpc::getResponseWireSize() + out.size;
    const auto call =
        channel_->call(tier_->node(serverIndex), ownerNode,
                       rpc::getRequestWireSize(key.size()), respBytes);
    out.latencyMicros = call.latencyMicros;
  }
  ownerNode.mem().use(shard->bytesUsed());
  span.setOutcome(out.hit ? sim::SpanOutcome::kHit : sim::SpanOutcome::kMiss);
  return out;
}

void LinkedCache::fill(std::string_view key, std::uint64_t size,
                       std::uint64_t version) {
  fillAt(ownerOf(key), key, size, version);
}

void LinkedCache::fillAt(std::size_t ownerIndex, std::string_view key,
                         std::uint64_t size, std::uint64_t version) {
  sim::SpanGuard span("linked.fill", sim::TierKind::kAppServer);
  const std::size_t owner = ownerIndex;
  tier_->node(owner).charge(sim::CpuComponent::kCacheOp, costs_.insertMicros);
  shards_[owner]->put(key, CacheEntry::sized(size, version));
  tier_->node(owner).mem().use(shards_[owner]->bytesUsed());
}

double LinkedCache::invalidate(std::size_t writerIndex, std::string_view key) {
  return invalidateAt(writerIndex, ownerOf(key), key);
}

double LinkedCache::invalidateAt(std::size_t writerIndex,
                                 std::size_t ownerIndex,
                                 std::string_view key) {
  sim::SpanGuard span("linked.inval", sim::TierKind::kAppServer);
  const std::size_t owner = ownerIndex;
  sim::Node& ownerNode = tier_->node(owner);
  ownerNode.charge(sim::CpuComponent::kCacheOp, costs_.probeMicros);
  shards_[owner]->erase(key);
  if (owner == writerIndex) return 0.0;
  return channel_->oneWay(tier_->node(writerIndex), ownerNode,
                          rpc::getRequestWireSize(key.size()));
}

double LinkedCache::update(std::size_t writerIndex, std::string_view key,
                           std::uint64_t size, std::uint64_t version) {
  return updateAt(writerIndex, ownerOf(key), key, size, version);
}

double LinkedCache::updateAt(std::size_t writerIndex, std::size_t ownerIndex,
                             std::string_view key, std::uint64_t size,
                             std::uint64_t version) {
  sim::SpanGuard span("linked.update", sim::TierKind::kAppServer);
  const std::size_t owner = ownerIndex;
  sim::Node& ownerNode = tier_->node(owner);
  ownerNode.charge(sim::CpuComponent::kCacheOp, costs_.insertMicros);
  shards_[owner]->put(key, CacheEntry::sized(size, version));
  ownerNode.mem().use(shards_[owner]->bytesUsed());
  if (owner == writerIndex) return 0.0;
  return channel_->oneWay(tier_->node(writerIndex), ownerNode,
                          rpc::putRequestWireSize(key.size()) + size);
}

void LinkedCache::removeServer(std::size_t serverIndex) {
  if (serverIndex >= shards_.size()) return;
  // Double-apply guard: removing a non-member must be a no-op. Without the
  // check, a replayed crash event would clear a shard the server refilled
  // after rejoining.
  if (!ring_.removeMember(serverIndex)) return;
  shards_[serverIndex]->clear();
}

void LinkedCache::drainServer(std::size_t serverIndex) {
  if (serverIndex >= shards_.size()) return;
  ring_.removeMember(serverIndex);  // idempotent: second drain is a no-op
}

void LinkedCache::dropShard(std::size_t serverIndex) {
  if (serverIndex >= shards_.size()) return;
  shards_[serverIndex]->clear();
  tier_->node(serverIndex).mem().use(shards_[serverIndex]->bytesUsed());
}

void LinkedCache::addServer(std::size_t serverIndex) {
  if (serverIndex >= shards_.size()) return;
  if (ring_.contains(serverIndex)) return;
  shards_[serverIndex]->clear();  // cold restart: nothing survives
  ring_.addMember(serverIndex);
}

std::size_t LinkedCache::itemCount() const noexcept {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->itemCount();
  return total;
}

}  // namespace dcache::cache
