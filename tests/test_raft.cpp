// Raft replication cost model tests.
#include <gtest/gtest.h>

#include <vector>

#include "sim/network.hpp"
#include "sim/tier.hpp"
#include "storage/raft.hpp"

namespace dcache::storage {
namespace {

class RaftTest : public ::testing::Test {
 protected:
  RaftTest() : tier_("kv", sim::TierKind::kKvStorage, 5) {}

  sim::NetworkModel network_;
  sim::Tier tier_;
};

/// The nodes a write led by `leader` applied on and charged, in node order.
std::vector<std::size_t> replicasOf(std::size_t leader, sim::Tier& tier,
                                    sim::NetworkModel& network) {
  RaftReplicator raft(tier, network, RaftCosts{}, 3);
  raft.replicate(leader, 100);
  std::vector<std::size_t> replicas;
  for (std::size_t n = 0; n < tier.size(); ++n) {
    const bool applied = raft.appliedIndex(n) == 1;
    EXPECT_EQ(applied, tier.node(n).cpu().totalMicros() > 0.0) << n;
    if (applied) replicas.push_back(n);
  }
  return replicas;
}

TEST_F(RaftTest, FollowersAreRingNeighbours) {
  EXPECT_EQ(replicasOf(0, tier_, network_),
            (std::vector<std::size_t>{0, 1, 2}));
  sim::Tier wrapped("kv", sim::TierKind::kKvStorage, 5);
  EXPECT_EQ(replicasOf(4, wrapped, network_),
            (std::vector<std::size_t>{0, 1, 4}));  // past the last node
}

TEST_F(RaftTest, ReplicationFactorClampedToTierSize) {
  RaftReplicator raft(tier_, network_, RaftCosts{}, 100);
  EXPECT_EQ(raft.replicationFactor(), 5u);
  raft.replicate(2, 10);  // every node applies once, none twice
  for (std::size_t n = 0; n < tier_.size(); ++n) {
    EXPECT_EQ(raft.appliedIndex(n), 1u) << n;
  }
}

TEST_F(RaftTest, ReplicateChargesLeaderAndFollowers) {
  const RaftCosts costs{};
  RaftReplicator raft(tier_, network_, costs, 3);
  const double latency = raft.replicate(1, 1000);
  EXPECT_GT(latency, 0.0);

  const double leaderExpected =
      costs.leaderAppendMicros + costs.perByteMicros * 1000;
  EXPECT_NEAR(
      tier_.node(1).cpu().micros(sim::CpuComponent::kReplication),
      leaderExpected + 2 * (network_.params().perMessageCpuMicros * 2 +
                            network_.params().perByteCpuMicros * 1016),
      1e-6);
  // Followers 2 and 3 charged; nodes 0 and 4 untouched.
  EXPECT_GT(tier_.node(2).cpu().totalMicros(), 0.0);
  EXPECT_GT(tier_.node(3).cpu().totalMicros(), 0.0);
  EXPECT_DOUBLE_EQ(tier_.node(0).cpu().totalMicros(), 0.0);
  EXPECT_DOUBLE_EQ(tier_.node(4).cpu().totalMicros(), 0.0);
}

TEST_F(RaftTest, IndexesAdvance) {
  RaftReplicator raft(tier_, network_, RaftCosts{}, 3);
  raft.replicate(0, 10);
  raft.replicate(0, 10);
  raft.replicate(3, 10);
  EXPECT_EQ(raft.committedIndex(), 3u);
  // Node 0 applied twice as leader and once as follower of node 3's group
  // (followers of 3 are nodes 4 and 0).
  EXPECT_EQ(raft.appliedIndex(0), 3u);
  EXPECT_EQ(raft.appliedIndex(1), 2u);  // follower of node 0 only
}

TEST_F(RaftTest, LeaseValidationCountsAndCharges) {
  const RaftCosts costs{};
  RaftReplicator raft(tier_, network_, costs, 3);
  raft.validateLease(2);
  raft.validateLease(2);
  EXPECT_EQ(raft.leaseChecks(), 2u);
  EXPECT_DOUBLE_EQ(
      tier_.node(2).cpu().micros(sim::CpuComponent::kLeaseValidation),
      2 * costs.leaseValidateMicros);
}

TEST_F(RaftTest, SingleReplicaHasNoFollowers) {
  RaftReplicator raft(tier_, network_, RaftCosts{}, 1);
  const double latency = raft.replicate(0, 100);
  EXPECT_DOUBLE_EQ(latency, 0.0);  // commits locally
  for (std::size_t n = 1; n < tier_.size(); ++n) {
    EXPECT_EQ(raft.appliedIndex(n), 0u) << n;
    EXPECT_DOUBLE_EQ(tier_.node(n).cpu().totalMicros(), 0.0) << n;
  }
}

}  // namespace
}  // namespace dcache::storage
