#include "cache/hash_ring.hpp"

#include <algorithm>

#include "util/hash.hpp"

namespace dcache::cache {

void HashRing::addMember(std::size_t member) {
  if (contains(member)) return;
  members_.push_back(member);
  for (std::size_t v = 0; v < vnodes_; ++v) {
    const std::uint64_t point =
        util::hashCombine(util::hashU64(member), util::hashU64(v));
    ring_.emplace(point, member);
  }
}

bool HashRing::removeMember(std::size_t member) {
  const auto it = std::find(members_.begin(), members_.end(), member);
  if (it == members_.end()) return false;
  members_.erase(it);
  std::erase_if(ring_,
                [&](const auto& point) { return point.second == member; });
  return true;
}

std::optional<std::size_t> HashRing::ownerOf(
    std::uint64_t keyHash) const noexcept {
  if (ring_.empty()) return std::nullopt;
  auto it = ring_.lower_bound(keyHash);
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  return it->second;
}

std::vector<std::size_t> HashRing::replicasOf(std::uint64_t keyHash,
                                              std::size_t n) const {
  std::vector<std::size_t> out;
  if (ring_.empty() || n == 0) return out;
  const std::size_t want = std::min(n, members_.size());
  out.reserve(want);
  auto it = ring_.lower_bound(keyHash);
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  const auto start = it;
  do {
    // Linear membership scan: `want` is a replication factor (2–3), not a
    // fleet size, so this beats a set.
    if (std::find(out.begin(), out.end(), it->second) == out.end()) {
      out.push_back(it->second);
      if (out.size() == want) break;
    }
    ++it;
    if (it == ring_.end()) it = ring_.begin();
  } while (it != start);
  return out;
}

bool HashRing::contains(std::size_t member) const noexcept {
  return std::find(members_.begin(), members_.end(), member) !=
         members_.end();
}

std::vector<double> HashRing::ownershipShares(std::size_t sampleKeys) const {
  std::size_t maxMember = 0;
  for (const std::size_t m : members_) maxMember = std::max(maxMember, m);
  std::vector<double> shares(members_.empty() ? 0 : maxMember + 1, 0.0);
  if (ring_.empty() || sampleKeys == 0) return shares;
  for (std::size_t i = 0; i < sampleKeys; ++i) {
    const auto owner = ownerOf(util::hashU64(i));
    if (owner) shares[*owner] += 1.0;
  }
  for (double& s : shares) s /= static_cast<double>(sampleKeys);
  return shares;
}

}  // namespace dcache::cache
