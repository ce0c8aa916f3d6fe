// Consistent-hash ring tests: routing stability, load balance, minimal
// disruption on membership change, the ShardedTier membership API in both
// placements, and the remote/linked cache front-ends' accounting.
#include <gtest/gtest.h>

#include <set>

#include "cache/hash_ring.hpp"
#include "cache/linked_cache.hpp"
#include "cache/remote_cache.hpp"
#include "cache/sharded_tier.hpp"
#include "util/hash.hpp"

namespace dcache::cache {
namespace {

TEST(HashRing, OwnerStableAcrossQueries) {
  HashRing ring;
  for (std::size_t m = 0; m < 5; ++m) ring.addMember(m);
  for (std::uint64_t k = 0; k < 100; ++k) {
    const auto owner = ring.ownerOf(util::hashU64(k));
    ASSERT_TRUE(owner.has_value());
    EXPECT_EQ(ring.ownerOf(util::hashU64(k)), owner);
  }
}

TEST(HashRing, EmptyRingHasNoOwner) {
  const HashRing ring;
  EXPECT_FALSE(ring.ownerOf(123).has_value());
}

TEST(HashRing, BalancedOwnership) {
  HashRing ring(160);
  for (std::size_t m = 0; m < 4; ++m) ring.addMember(m);
  const auto shares = ring.ownershipShares(50000);
  ASSERT_EQ(shares.size(), 4u);
  for (const double share : shares) {
    EXPECT_NEAR(share, 0.25, 0.08);
  }
}

TEST(HashRing, RemovalMovesOnlyVictimKeys) {
  HashRing ring;
  for (std::size_t m = 0; m < 4; ++m) ring.addMember(m);
  std::vector<std::size_t> before(10000);
  for (std::uint64_t k = 0; k < before.size(); ++k) {
    before[k] = *ring.ownerOf(util::hashU64(k));
  }
  ASSERT_TRUE(ring.removeMember(2));
  EXPECT_FALSE(ring.removeMember(2));
  std::size_t moved = 0;
  for (std::uint64_t k = 0; k < before.size(); ++k) {
    const std::size_t after = *ring.ownerOf(util::hashU64(k));
    EXPECT_NE(after, 2u);
    if (before[k] != 2 && after != before[k]) ++moved;
  }
  // Consistent hashing: keys not owned by the removed member must not move.
  EXPECT_EQ(moved, 0u);
}

TEST(HashRing, DuplicateAddIgnored) {
  HashRing ring;
  ring.addMember(1);
  ring.addMember(1);
  EXPECT_EQ(ring.memberCount(), 1u);
}

TEST(HashRing, ReplicasAreDistinctAndLedByTheOwner) {
  HashRing ring;
  for (std::size_t m = 0; m < 5; ++m) ring.addMember(m);
  for (std::uint64_t k = 0; k < 500; ++k) {
    const auto replicas = ring.replicasOf(util::hashU64(k), 3);
    ASSERT_EQ(replicas.size(), 3u);
    EXPECT_EQ(replicas[0], *ring.ownerOf(util::hashU64(k)));
    const std::set<std::size_t> distinct(replicas.begin(), replicas.end());
    EXPECT_EQ(distinct.size(), replicas.size());
  }
}

TEST(HashRing, ReplicaCountSaturatesAtMembership) {
  HashRing ring;
  EXPECT_TRUE(ring.replicasOf(42, 3).empty());  // empty ring: no owners
  ring.addMember(0);
  ring.addMember(1);
  // Asking for more replicas than members returns every member once.
  const auto replicas = ring.replicasOf(42, 5);
  ASSERT_EQ(replicas.size(), 2u);
  EXPECT_NE(replicas[0], replicas[1]);
  // n = 0 is a valid request for nothing.
  EXPECT_TRUE(ring.replicasOf(42, 0).empty());
}

TEST(HashRing, ChurnRestoresExactReplicaSets) {
  // Replica placement, like ownership, depends only on the membership
  // set — a removal and re-add of the same member must restore every
  // key's replica list exactly (vnode positions are index-derived).
  HashRing ring;
  for (std::size_t m = 0; m < 4; ++m) ring.addMember(m);
  std::vector<std::vector<std::size_t>> before(2000);
  for (std::uint64_t k = 0; k < before.size(); ++k) {
    before[k] = ring.replicasOf(util::hashU64(k), 2);
  }

  ASSERT_TRUE(ring.removeMember(2));
  for (std::uint64_t k = 0; k < before.size(); ++k) {
    const auto during = ring.replicasOf(util::hashU64(k), 2);
    ASSERT_EQ(during.size(), 2u);
    // The removed member never appears...
    EXPECT_NE(during[0], 2u);
    EXPECT_NE(during[1], 2u);
    // ...and keys it served neither of keep their exact replica set.
    if (before[k][0] != 2 && before[k][1] != 2) {
      EXPECT_EQ(during, before[k]);
    }
  }

  ring.addMember(2);
  for (std::uint64_t k = 0; k < before.size(); ++k) {
    EXPECT_EQ(ring.replicasOf(util::hashU64(k), 2), before[k]);
  }
}

// ---- ShardedTier: one placement, membership and replica API ----

/// Each case runs in both placements a tier can be in when its first
/// membership call lands: modulo (Remote and the far pool, not yet armed)
/// and the ring (Linked, or after replication or churn armed it).
class ShardedTierPlacement : public ::testing::TestWithParam<bool> {
 protected:
  ShardedTierPlacement()
      : nodes_("cache", sim::TierKind::kRemoteCache, 4),
        tier_(nodes_, util::Bytes::mb(64), EvictionPolicy::kLru, GetParam()),
        fullRing_(nodes_, util::Bytes::mb(1), EvictionPolicy::kLru, true) {}

  /// A key and its owner, stored on the owner's shard.
  std::size_t store(const std::string& key) {
    const std::size_t owner = tier_.ownerOf(key);
    tier_.shard(owner).put(key, CacheEntry::sized(128, 1));
    return owner;
  }

  sim::Tier nodes_;
  ShardedTier tier_;
  /// The same nodes, every one a ring member (the full-membership owners).
  ShardedTier fullRing_;
};

TEST_P(ShardedTierPlacement, EveryNodeStartsAMember) {
  EXPECT_EQ(tier_.ringArmed(), GetParam());
  EXPECT_EQ(tier_.memberCount(), nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    EXPECT_TRUE(tier_.isMember(i));
  }
  EXPECT_FALSE(tier_.isMember(nodes_.size()));
}

TEST_P(ShardedTierPlacement, AdmittingAMemberIsANoOp) {
  const std::size_t owner = store("k");
  tier_.admitMember(owner);
  EXPECT_EQ(tier_.ringArmed(), GetParam());  // nothing changed: not armed
  EXPECT_EQ(tier_.ownerOf("k"), owner);
  EXPECT_NE(tier_.shard(owner).peek("k"), nullptr);  // warm shard survives
}

TEST_P(ShardedTierPlacement, DrainMovesOwnershipAndKeepsTheShard) {
  const std::size_t owner = store("k");
  tier_.drainMember(owner);
  tier_.drainMember(owner);  // replayed: no-op
  EXPECT_TRUE(tier_.ringArmed());
  EXPECT_FALSE(tier_.isMember(owner));
  EXPECT_EQ(tier_.memberCount(), nodes_.size() - 1);
  EXPECT_NE(tier_.ownerOf("k"), owner);
  EXPECT_NE(tier_.shard(owner).peek("k"), nullptr);
  tier_.retireMember(owner);  // a non-member: the draining shard survives
  EXPECT_NE(tier_.shard(owner).peek("k"), nullptr);
  tier_.dropShard(owner);  // the window closes
  EXPECT_EQ(tier_.shard(owner).itemCount(), 0u);
}

TEST_P(ShardedTierPlacement, RetireDropsOnlyTheLeaversShard) {
  const std::size_t owner = store("k");
  const std::size_t other = (owner + 1) % nodes_.size();
  tier_.shard(other).put("x", CacheEntry::sized(128, 1));
  tier_.retireMember(owner);
  EXPECT_FALSE(tier_.isMember(owner));
  EXPECT_EQ(tier_.shard(owner).itemCount(), 0u);
  EXPECT_NE(tier_.shard(other).peek("x"), nullptr);
}

TEST_P(ShardedTierPlacement, RejoinComesBackColdToTheFullRingPartition) {
  const std::size_t owner = store("k");
  tier_.drainMember(owner);
  tier_.admitMember(owner);  // inside what would be its handoff window
  EXPECT_TRUE(tier_.isMember(owner));
  EXPECT_EQ(tier_.memberCount(), nodes_.size());
  EXPECT_EQ(tier_.shard(owner).itemCount(), 0u);  // the process restarted
  for (int k = 0; k < 200; ++k) {
    const std::string key = "key" + std::to_string(k);
    EXPECT_EQ(tier_.ownerOf(key), fullRing_.ownerOf(key));
  }
}

TEST_P(ShardedTierPlacement, PrimaryReplicaIsTheOwnerAcrossChurn) {
  const auto check = [&] {
    for (int k = 0; k < 300; ++k) {
      const std::string key = "key" + std::to_string(k);
      const auto replicas = tier_.replicasOf(key, 1);
      ASSERT_EQ(replicas.size(), 1u);
      EXPECT_EQ(replicas[0], tier_.ownerOf(key));
    }
  };
  check();
  tier_.drainMember(1);
  check();
  tier_.retireMember(3);
  check();
  tier_.admitMember(1);
  check();
  tier_.admitMember(3);
  check();
}

INSTANTIATE_TEST_SUITE_P(Placements, ShardedTierPlacement,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "ring" : "modulo";
                         });

// ---- Remote / linked cache front-ends over the sim fabric ----

class CacheFrontends : public ::testing::Test {
 protected:
  CacheFrontends()
      : appTier_("app", sim::TierKind::kAppServer, 3),
        cacheTier_("cache", sim::TierKind::kRemoteCache, 3),
        channel_(network_, rpc::SerializationModel{}) {}

  sim::NetworkModel network_;
  sim::Tier appTier_;
  sim::Tier cacheTier_;
  rpc::Channel channel_;
};

TEST_F(CacheFrontends, RemoteCacheMissThenHit) {
  RemoteCache remote(cacheTier_, util::Bytes::mb(64), channel_);
  sim::Node& app = appTier_.node(0);
  const std::size_t owner = remote.shards().ownerOf("k");

  auto miss = remote.get(app, owner, "k");
  EXPECT_FALSE(miss.hit);
  remote.put(app, owner, "k", 4096, 3);
  auto hit = remote.get(app, owner, "k");
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.size, 4096u);
  EXPECT_EQ(hit.version, 3u);
  EXPECT_GT(hit.latencyMicros, 0.0);

  // RPC + value serialization must have charged the app server.
  EXPECT_GT(app.cpu().micros(sim::CpuComponent::kRpcFraming), 0.0);
  EXPECT_GT(app.cpu().micros(sim::CpuComponent::kDeserialization), 0.0);
  // And the owning cache node paid for the probe.
  const CacheStats agg = remote.shards().aggregateStats();
  EXPECT_EQ(agg.hits, 1u);
  EXPECT_EQ(agg.misses, 1u);
}

TEST_F(CacheFrontends, RemoteInvalidateRemoves) {
  RemoteCache remote(cacheTier_, util::Bytes::mb(64), channel_);
  sim::Node& app = appTier_.node(0);
  const std::size_t owner = remote.shards().ownerOf("k");
  remote.put(app, owner, "k", 100, 1);
  remote.invalidate(app, owner, "k");
  EXPECT_FALSE(remote.get(app, owner, "k").hit);
}

TEST_F(CacheFrontends, LinkedLocalHitPaysNoRpcOrMarshalling) {
  LinkedCache linked(appTier_, util::Bytes::mb(64), channel_);
  const std::size_t owner = linked.shards().ownerOf("k");
  linked.fill(owner, "k", 4096, 9);

  // Snapshot app CPU, probe from the owner itself.
  const double framingBefore =
      appTier_.node(owner).cpu().micros(sim::CpuComponent::kRpcFraming);
  const auto hit = linked.get(owner, owner, "k");
  EXPECT_TRUE(hit.hit);
  EXPECT_TRUE(hit.local);
  EXPECT_EQ(hit.version, 9u);
  EXPECT_DOUBLE_EQ(hit.latencyMicros, 0.0);
  EXPECT_DOUBLE_EQ(
      appTier_.node(owner).cpu().micros(sim::CpuComponent::kRpcFraming),
      framingBefore);
}

TEST_F(CacheFrontends, LinkedForwardedProbePaysRpc) {
  LinkedCache linked(appTier_, util::Bytes::mb(64), channel_);
  const std::size_t owner = linked.shards().ownerOf("k");
  linked.fill(owner, "k", 4096, 1);
  const std::size_t other = (owner + 1) % appTier_.size();

  const auto hit = linked.get(other, owner, "k");
  EXPECT_TRUE(hit.hit);
  EXPECT_FALSE(hit.local);
  EXPECT_GT(hit.latencyMicros, 0.0);
  EXPECT_GT(appTier_.node(other).cpu().micros(sim::CpuComponent::kRpcFraming),
            0.0);
}

TEST_F(CacheFrontends, LinkedRemoveServerDropsShard) {
  LinkedCache linked(appTier_, util::Bytes::mb(64), channel_);
  ShardedTier& shards = linked.shards();
  const std::size_t owner = shards.ownerOf("k");
  linked.fill(owner, "k", 100, 1);
  shards.retireMember(owner);
  const std::size_t newOwner = shards.ownerOf("k");
  EXPECT_NE(newOwner, owner);
  // Shard content was dropped.
  EXPECT_FALSE(linked.get(newOwner, newOwner, "k").hit);
}

TEST_F(CacheFrontends, LinkedCrashRestartChurnRestoresExactOwnership) {
  LinkedCache linked(appTier_, util::Bytes::mb(64), channel_);
  ShardedTier& shards = linked.shards();
  constexpr int kKeys = 2000;
  std::vector<std::size_t> before(kKeys);
  for (int k = 0; k < kKeys; ++k) {
    before[k] = shards.ownerOf("key" + std::to_string(k));
  }

  const std::size_t victim = 1;
  shards.retireMember(victim);
  EXPECT_FALSE(shards.isMember(victim));
  for (int k = 0; k < kKeys; ++k) {
    const std::size_t after = shards.ownerOf("key" + std::to_string(k));
    // Routing never targets the removed member, and consistent hashing
    // moves only the victim's keys.
    EXPECT_NE(after, victim);
    if (before[k] != victim) {
      EXPECT_EQ(after, before[k]);
    }
  }

  // Restart: vnode points depend only on the member index, so ownership
  // returns to exactly the pre-crash partition.
  shards.admitMember(victim);
  EXPECT_TRUE(shards.isMember(victim));
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(shards.ownerOf("key" + std::to_string(k)), before[k]);
  }
}

TEST_F(CacheFrontends, LinkedRemoveServerSparesSurvivorShards) {
  LinkedCache linked(appTier_, util::Bytes::mb(64), channel_);
  ShardedTier& shards = linked.shards();
  // Fill until every server owns at least one key we can name.
  std::vector<std::string> keyOwnedBy(appTier_.size());
  for (int k = 0; keyOwnedBy[0].empty() || keyOwnedBy[1].empty() ||
                  keyOwnedBy[2].empty();
       ++k) {
    const std::string key = "key" + std::to_string(k);
    const std::size_t owner = shards.ownerOf(key);
    keyOwnedBy[owner] = key;
    linked.fill(owner, key, 128, 1);
  }

  const std::size_t victim = shards.ownerOf(keyOwnedBy[0]);
  shards.retireMember(victim);
  // Only the victim's shard was dropped: survivors still serve their keys.
  for (std::size_t s = 0; s < appTier_.size(); ++s) {
    if (s == victim) continue;
    const std::string& key = keyOwnedBy[s];
    const auto hit = linked.get(s, shards.ownerOf(key), key);
    EXPECT_TRUE(hit.hit) << "survivor " << s << " lost its shard";
  }
  const std::string& lost = keyOwnedBy[victim];
  EXPECT_FALSE(
      linked.get((victim + 1) % appTier_.size(), shards.ownerOf(lost), lost)
          .hit);
}

TEST_F(CacheFrontends, LinkedAddServerComesBackColdAndIdempotent) {
  LinkedCache linked(appTier_, util::Bytes::mb(64), channel_);
  ShardedTier& shards = linked.shards();
  const std::size_t owner = shards.ownerOf("k");
  linked.fill(owner, "k", 256, 7);

  // Admitting a current member is a no-op: the warm shard survives.
  shards.admitMember(owner);
  EXPECT_TRUE(linked.get(owner, owner, "k").hit);

  shards.retireMember(owner);
  shards.admitMember(owner);
  // A genuine restart rejoins cold.
  EXPECT_EQ(shards.shard(owner).itemCount(), 0u);
  EXPECT_FALSE(linked.get(owner, shards.ownerOf("k"), "k").hit);
}

TEST_F(CacheFrontends, LinkedDoubleRemoveSparesDrainingShard) {
  // Regression: a replayed cold remove must not double-apply. During a
  // warm drain the server is out of the ring but its shard still holds
  // the keys the handoff window is migrating — an unguarded second
  // retireMember would clear them mid-transfer.
  LinkedCache linked(appTier_, util::Bytes::mb(64), channel_);
  ShardedTier& shards = linked.shards();
  const std::size_t owner = shards.ownerOf("k");
  linked.fill(owner, "k", 256, 1);

  shards.drainMember(owner);
  EXPECT_FALSE(shards.isMember(owner));
  EXPECT_NE(shards.ownerOf("k"), owner);  // ownership moved immediately
  ASSERT_NE(shards.shard(owner).peek("k"), nullptr);  // contents kept

  shards.drainMember(owner);   // replayed drain: no-op
  shards.retireMember(owner);  // replayed cold remove: non-member, no-op
  EXPECT_NE(shards.shard(owner).peek("k"), nullptr);

  // Window closes: whatever was not migrated is retired with the process.
  shards.dropShard(owner);
  EXPECT_EQ(shards.shard(owner).itemCount(), 0u);
}

TEST_F(CacheFrontends, RemoteMembershipJoinLeaveIdempotent) {
  // Both placements: pods still on modulo when the first membership call
  // lands (it arms the ring), or already on the ring.
  for (const bool armed : {false, true}) {
    SCOPED_TRACE(armed ? "ring" : "modulo");
    RemoteCache remote(cacheTier_, util::Bytes::mb(64), channel_);
    ShardedTier& shards = remote.shards();
    if (armed) shards.armRing();
    sim::Node& app = appTier_.node(0);
    ASSERT_EQ(shards.memberCount(), cacheTier_.size());

    const std::size_t owner = shards.ownerOf("k");
    remote.put(app, owner, "k", 4096, 1);

    // Double join of a member: no-op, the warm shard survives.
    shards.admitMember(owner);
    EXPECT_TRUE(remote.get(app, shards.ownerOf("k"), "k").hit);

    // Leave moves ownership but keeps the pod's contents for the handoff
    // window; a replayed leave is a no-op.
    shards.drainMember(owner);
    const std::size_t home = [&] {
      ShardedTier full(cacheTier_, util::Bytes::mb(1), EvictionPolicy::kLru,
                       /*ringArmed=*/true);
      return full.ownerOf("k");
    }();
    shards.drainMember(owner);
    EXPECT_FALSE(shards.isMember(owner));
    EXPECT_EQ(shards.memberCount(), cacheTier_.size() - 1);
    EXPECT_NE(shards.ownerOf("k"), owner);
    EXPECT_NE(shards.shard(owner).peek("k"), nullptr);

    // Rejoin restores the exact full-membership ring partition (vnode
    // points depend only on the member index), so the key routes home
    // again — to the pod it started on once the ring was armed.
    shards.admitMember(owner);
    EXPECT_EQ(shards.memberCount(), cacheTier_.size());
    EXPECT_EQ(shards.ownerOf("k"), home);
    if (armed) {
      EXPECT_EQ(home, owner);
    }
  }
}

TEST_F(CacheFrontends, LinkedUpdateAndInvalidate) {
  LinkedCache linked(appTier_, util::Bytes::mb(64), channel_);
  const std::size_t owner = linked.shards().ownerOf("k");
  const std::size_t writer = (owner + 1) % appTier_.size();

  linked.update(writer, owner, "k", 256, 2);
  auto hit = linked.get(owner, owner, "k");
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.version, 2u);

  linked.invalidate(writer, owner, "k");
  EXPECT_FALSE(linked.get(owner, owner, "k").hit);
}

TEST_F(CacheFrontends, RemoteReplicationPlacesDistinctCopies) {
  RemoteCache remote(cacheTier_, util::Bytes::mb(64), channel_);
  ShardedTier& shards = remote.shards();
  // Off by default: modulo placement, the owner is the only copy.
  EXPECT_EQ(shards.replicasOf("k", 2),
            std::vector<std::size_t>{shards.ownerOf("k")});
  shards.armRing();  // what replication does
  const auto replicas = shards.replicasOf("k", 2);
  ASSERT_EQ(replicas.size(), 2u);
  EXPECT_NE(replicas[0], replicas[1]);
  EXPECT_EQ(shards.replicasOf("k", 2), replicas);  // placement is stable

  sim::Node& app = appTier_.node(0);
  remote.put(app, replicas[0], "k", 4096, 3);
  remote.put(app, replicas[1], "k", 4096, 3);
  // Each copy is independently probeable; the primary going down does not
  // take the replica's copy with it.
  EXPECT_TRUE(remote.get(app, replicas[1], "k").hit);
  cacheTier_.node(replicas[0]).setUp(false);
  EXPECT_FALSE(shards.nodeUp(replicas[0]));
  EXPECT_TRUE(remote.get(app, replicas[1], "k").hit);
}

TEST_F(CacheFrontends, LinkedReplicaFillsAreIndependentCopies) {
  LinkedCache linked(appTier_, util::Bytes::mb(64), channel_);
  const auto replicas = linked.shards().replicasOf("k", 2);
  ASSERT_EQ(replicas.size(), 2u);
  EXPECT_EQ(replicas[0], linked.shards().ownerOf("k"));
  EXPECT_NE(replicas[0], replicas[1]);

  linked.fill(replicas[0], "k", 256, 4);
  linked.update(replicas[1], replicas[1], "k", 256, 4);
  // A local probe at the fallback shard hits without touching the owner.
  const auto hit = linked.get(replicas[1], replicas[1], "k");
  EXPECT_TRUE(hit.hit);
  EXPECT_TRUE(hit.local);
  EXPECT_EQ(hit.version, 4u);
  // Invalidating one copy leaves the other (the deployment fans out).
  linked.invalidate(replicas[0], replicas[0], "k");
  EXPECT_FALSE(linked.get(replicas[0], replicas[0], "k").hit);
  EXPECT_TRUE(linked.get(replicas[1], replicas[1], "k").hit);
}

}  // namespace
}  // namespace dcache::cache
