#include "storage/raft.hpp"

#include <algorithm>

namespace dcache::storage {

RaftReplicator::RaftReplicator(sim::Tier& kvTier, sim::NetworkModel& network,
                               RaftCosts costs, std::size_t replicationFactor)
    : tier_(&kvTier),
      network_(&network),
      costs_(costs),
      replicationFactor_(std::clamp<std::size_t>(replicationFactor, 1,
                                                 kvTier.size())),
      applied_(kvTier.size(), 0) {}

double RaftReplicator::replicate(std::size_t leaderIndex,
                                 std::uint64_t bytes) {
  sim::Node& leader = tier_->node(leaderIndex);
  leader.charge(sim::CpuComponent::kReplication,
                costs_.leaderAppendMicros +
                    costs_.perByteMicros * static_cast<double>(bytes));
  ++committedIndex_;
  ++applied_[leaderIndex];

  double commitLatency = 0.0;
  for (std::size_t i = 1; i < replicationFactor_; ++i) {
    const std::size_t f = followerAt(leaderIndex, i);
    sim::Node& follower = tier_->node(f);
    follower.charge(sim::CpuComponent::kReplication,
                    costs_.followerApplyMicros +
                        costs_.perByteMicros * static_cast<double>(bytes));
    const double out = network_->transfer(leader, follower, bytes,
                                          sim::CpuComponent::kReplication);
    const double back =
        network_->transfer(follower, leader, 16,  // ack
                           sim::CpuComponent::kReplication);
    commitLatency = std::max(commitLatency, out + back);
    ++applied_[f];
  }
  return commitLatency;
}

void RaftReplicator::validateLease(std::size_t leaderIndex) {
  tier_->node(leaderIndex)
      .charge(sim::CpuComponent::kLeaseValidation, costs_.leaseValidateMicros);
  ++leaseChecks_;
}

}  // namespace dcache::storage
