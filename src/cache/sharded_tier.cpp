#include "cache/sharded_tier.hpp"

#include "util/hash.hpp"

namespace dcache::cache {

ShardedTier::ShardedTier(sim::Tier& tier, util::Bytes perNodeCapacity,
                         EvictionPolicy policy, bool ringArmed)
    : tier_(&tier) {
  shards_.reserve(tier.size());
  for (std::size_t i = 0; i < tier.size(); ++i) {
    shards_.push_back(makeCache(policy, perNodeCapacity));
    tier.node(i).mem().provision(tier.node(i).mem().provisioned() +
                                 perNodeCapacity);
  }
  if (ringArmed) armRing();
}

void ShardedTier::armRing() {
  if (armed_) return;
  armed_ = true;
  for (std::size_t i = 0; i < shards_.size(); ++i) ring_.addMember(i);
}

std::size_t ShardedTier::ownerOf(std::string_view key) const noexcept {
  const std::uint64_t hash = util::hashKey(key);
  if (!armed_) return hash % shards_.size();
  return ring_.ownerOf(hash).value_or(hash % shards_.size());
}

std::vector<std::size_t> ShardedTier::replicasOf(std::string_view key,
                                                 std::size_t n) const {
  if (!armed_) return {ownerOf(key)};
  return ring_.replicasOf(util::hashKey(key), n);
}

void ShardedTier::admitMember(std::size_t node) {
  if (node >= shards_.size() || isMember(node)) return;
  dropShard(node);
  ring_.addMember(node);
}

void ShardedTier::drainMember(std::size_t node) {
  if (node >= shards_.size()) return;
  armRing();
  ring_.removeMember(node);
}

void ShardedTier::retireMember(std::size_t node) {
  if (node >= shards_.size() || !isMember(node)) return;
  drainMember(node);
  dropShard(node);
}

void ShardedTier::dropShard(std::size_t node) {
  if (node >= shards_.size()) return;
  shards_[node]->clear();
  syncMemory(node);
}

void ShardedTier::syncMemory(std::size_t node) noexcept {
  tier_->node(node).mem().use(shards_[node]->bytesUsed());
}

std::size_t ShardedTier::itemCount() const noexcept {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->itemCount();
  return total;
}

CacheStats ShardedTier::aggregateStats() const noexcept {
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
