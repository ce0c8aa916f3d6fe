// Integration tests: full deployments of all four architectures serving
// real workload streams — hit ratios, cost ordering, component charging,
// version-check behaviour, TTL freshness and the rich-object serving mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "core/deployment.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "workload/synthetic.hpp"
#include "workload/uc_trace.hpp"

namespace dcache::core {
namespace {

[[nodiscard]] DeploymentConfig smallDeployment(Architecture arch) {
  DeploymentConfig config;
  config.architecture = arch;
  config.appCachePerNode = util::Bytes::mb(64);
  config.remoteCachePerNode = util::Bytes::mb(64);
  config.blockCachePerNode = util::Bytes::mb(64);
  return config;
}

[[nodiscard]] workload::SyntheticConfig smallWorkload() {
  workload::SyntheticConfig config;
  config.numKeys = 2000;
  config.valueSize = 1024;
  config.readRatio = 0.9;
  return config;
}

TEST(Deployment, LinkedHitsAfterWarmup) {
  Deployment deployment(smallDeployment(Architecture::kLinked));
  workload::SyntheticWorkload workload(smallWorkload());
  deployment.populateKv(workload);
  for (int i = 0; i < 20000; ++i) deployment.serve(workload.next());
  EXPECT_GT(deployment.counters().hitRatio(), 0.8);
  EXPECT_GT(deployment.counters().reads, 0u);
  EXPECT_GT(deployment.counters().writes, 0u);
}

TEST(Deployment, BaseNeverUsesAppCache) {
  Deployment deployment(smallDeployment(Architecture::kBase));
  workload::SyntheticWorkload workload(smallWorkload());
  deployment.populateKv(workload);
  for (int i = 0; i < 2000; ++i) deployment.serve(workload.next());
  EXPECT_EQ(deployment.counters().cacheHits, 0u);
  EXPECT_EQ(deployment.linkedCache(), nullptr);
  EXPECT_EQ(deployment.remoteCache(), nullptr);
}

TEST(Deployment, RemoteTierOnlyExistsForRemote) {
  Deployment remote(smallDeployment(Architecture::kRemote));
  EXPECT_NE(remote.remoteCache(), nullptr);
  EXPECT_EQ(remote.tiers().size(), 5u);  // client, app, remote, sql, kv
  Deployment linked(smallDeployment(Architecture::kLinked));
  EXPECT_EQ(linked.tiers().size(), 4u);
  EXPECT_NE(linked.linkedCache(), nullptr);
}

TEST(Deployment, VersionChecksHappenOnlyInLinkedVersion) {
  for (const Architecture arch : kAllArchitectures) {
    Deployment deployment(smallDeployment(arch));
    workload::SyntheticWorkload workload(smallWorkload());
    deployment.populateKv(workload);
    for (int i = 0; i < 5000; ++i) deployment.serve(workload.next());
    if (arch == Architecture::kLinkedVersion) {
      EXPECT_GT(deployment.counters().versionChecks, 0u);
    } else {
      EXPECT_EQ(deployment.counters().versionChecks, 0u);
    }
  }
}

TEST(Deployment, WriteThenReadIsConsistentUnderVersionCheck) {
  // With write-through updates the cached version matches storage, so
  // version checks pass; disable write-through and they must miss.
  DeploymentConfig config = smallDeployment(Architecture::kLinkedVersion);
  config.writeThroughCache = false;  // invalidate on write
  Deployment deployment(config);
  workload::SyntheticWorkload workload(smallWorkload());
  deployment.populateKv(workload);
  for (int i = 0; i < 20000; ++i) deployment.serve(workload.next());
  // Invalidation-on-write means reads after writes miss but never serve a
  // stale version: mismatches only happen when a cached version raced a
  // write, which write-invalidate prevents entirely.
  EXPECT_EQ(deployment.counters().versionMismatches, 0u);
  EXPECT_GT(deployment.counters().versionChecks, 0u);
}

TEST(Deployment, WriteThroughKeepsVersionsFresh) {
  Deployment deployment(smallDeployment(Architecture::kLinkedVersion));
  workload::SyntheticWorkload workload(smallWorkload());
  deployment.populateKv(workload);
  for (int i = 0; i < 20000; ++i) deployment.serve(workload.next());
  // Write-through updates carry the storage version, so checks pass.
  EXPECT_EQ(deployment.counters().versionMismatches, 0u);
  EXPECT_GT(deployment.counters().hitRatio(), 0.8);
}

TEST(Deployment, ComponentChargingMatchesArchitecture) {
  // Linked: app servers must show cache ops but the remote tier does not
  // exist; Base: neither.
  Deployment linked(smallDeployment(Architecture::kLinked));
  workload::SyntheticWorkload workload(smallWorkload());
  linked.populateKv(workload);
  for (int i = 0; i < 5000; ++i) linked.serve(workload.next());
  EXPECT_GT(linked.appTier().aggregateCpu().micros(
                sim::CpuComponent::kCacheOp),
            0.0);
  EXPECT_GT(linked.appTier().aggregateCpu().micros(
                sim::CpuComponent::kClientComm),
            0.0);

  Deployment base(smallDeployment(Architecture::kBase));
  workload::SyntheticWorkload workload2(smallWorkload());
  base.populateKv(workload2);
  for (int i = 0; i < 5000; ++i) base.serve(workload2.next());
  EXPECT_DOUBLE_EQ(
      base.appTier().aggregateCpu().micros(sim::CpuComponent::kCacheOp), 0.0);
}

TEST(Deployment, ClearMetersResetsEverything) {
  Deployment deployment(smallDeployment(Architecture::kLinked));
  workload::SyntheticWorkload workload(smallWorkload());
  deployment.populateKv(workload);
  for (int i = 0; i < 1000; ++i) deployment.serve(workload.next());
  deployment.clearMeters();
  EXPECT_EQ(deployment.counters().reads, 0u);
  EXPECT_DOUBLE_EQ(deployment.appTier().aggregateCpu().totalMicros(), 0.0);
  EXPECT_EQ(deployment.latencies().count(), 0u);
  // The cache contents survive (only the meters reset).
  const workload::Op op = workload.next();
  deployment.serve(op);
  EXPECT_EQ(deployment.counters().reads + deployment.counters().writes, 1u);
}

TEST(Deployment, CostOrderingOnSkewedReadHeavyWorkload) {
  // The paper's headline: Linked < Remote < Base in total cost on a skewed
  // read-heavy workload; Linked+Version erases most of Linked's advantage.
  ExperimentConfig experiment;
  experiment.operations = 30000;
  experiment.warmupOperations = 30000;
  experiment.qps = 50000;

  std::map<Architecture, ExperimentResult> results;
  for (const Architecture arch : kAllArchitectures) {
    workload::SyntheticWorkload workload(smallWorkload());
    results.emplace(arch, runArchitecture(arch, workload,
                                          smallDeployment(arch), experiment));
  }
  const auto total = [&](Architecture arch) {
    return results.at(arch).cost.totalCost.dollars();
  };
  EXPECT_LT(total(Architecture::kLinked), total(Architecture::kRemote));
  EXPECT_LT(total(Architecture::kRemote), total(Architecture::kBase));
  EXPECT_GT(total(Architecture::kLinkedVersion),
            total(Architecture::kLinked) * 1.5);
}

TEST(Deployment, ObjectModeServesRichObjects) {
  workload::UcTraceConfig traceConfig;
  traceConfig.numTables = 300;
  workload::UcTraceWorkload trace(traceConfig);

  DeploymentConfig config = smallDeployment(Architecture::kLinked);
  Deployment deployment(config);
  deployment.populateCatalog(trace);
  ASSERT_NE(deployment.catalogStore(), nullptr);

  for (int i = 0; i < 5000; ++i) deployment.serveObject(trace.next());
  EXPECT_GT(deployment.counters().hitRatio(), 0.5);
  EXPECT_GT(deployment.counters().statementsIssued, 0u);
  // Query amplification: on average more than one statement per miss.
  EXPECT_GT(deployment.counters().statementsIssued,
            deployment.counters().cacheMisses);
}

TEST(Deployment, ObjectModeBaseAmplifiesQueries) {
  workload::UcTraceConfig traceConfig;
  traceConfig.numTables = 200;
  traceConfig.readRatio = 1.0;
  workload::UcTraceWorkload trace(traceConfig);

  Deployment deployment(smallDeployment(Architecture::kBase));
  deployment.populateCatalog(trace);
  for (int i = 0; i < 1000; ++i) deployment.serveObject(trace.next());
  // Base assembles every read: statements per read between 1 and 8.
  const double perRead =
      static_cast<double>(deployment.counters().statementsIssued) /
      static_cast<double>(deployment.counters().reads);
  EXPECT_GT(perRead, 2.0);
  EXPECT_LE(perRead, 8.0);
}

TEST(Deployment, TtlBookkeepingTracksCacheOccupancyNotKeyspace) {
  DeploymentConfig config = smallDeployment(Architecture::kLinked);
  config.appCachePerNode = util::Bytes::mb(1);  // ~1K entries per shard
  config.ttlFreshnessMicros = 50'000;
  Deployment deployment(config);

  workload::SyntheticConfig workloadConfig;
  workloadConfig.numKeys = 50000;
  workloadConfig.valueSize = 1024;
  workloadConfig.readRatio = 0.9;
  workloadConfig.alpha = 0.8;  // flat popularity: heavy eviction churn
  workload::SyntheticWorkload workload(workloadConfig);
  deployment.populateKv(workload);

  for (int i = 0; i < 60000; ++i) {
    deployment.setSimTimeMicros(static_cast<std::uint64_t>(i) * 10);
    deployment.serve(workload.next());
  }

  // The fill-time map must track what the cache holds, not every key the
  // workload ever touched (~tens of thousands here): evicted keys' entries
  // are swept once the map outgrows occupancy 2x.
  const std::size_t items = deployment.linkedCache()->shards().itemCount();
  EXPECT_GT(deployment.counters().cacheMisses, 10000u);  // real churn
  EXPECT_LE(deployment.ttlBookkeepingSize(),
            std::max<std::size_t>(1024, 2 * items) + 1);
}

// ---- TTL freshness (DeploymentConfig::ttlFreshnessMicros), key by key at
// explicit sim times ----

class LinkedTtl : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kTtl = 1'000;
  static constexpr std::uint64_t kKey = 7;

  /// Linked deployment with a kTtl freshness bound, storage populated: KV
  /// values, or (`objects`) a small UC catalog served as rich objects.
  void start(bool writeThrough = true,
             util::Bytes perNode = util::Bytes::mb(64), bool objects = false) {
    DeploymentConfig config = smallDeployment(Architecture::kLinked);
    config.ttlFreshnessMicros = kTtl;
    config.writeThroughCache = writeThrough;
    config.appCachePerNode = perNode;
    deployment_ = std::make_unique<Deployment>(config);
    objects_ = objects;
    if (objects) {
      workload::UcTraceConfig catalog;
      catalog.numTables = 100;
      trace_ = std::make_unique<workload::UcTraceWorkload>(catalog);
      deployment_->populateCatalog(*trace_);
    } else {
      deployment_->populateKv(workload::SyntheticWorkload(smallWorkload()));
    }
  }
  /// Read `keyIndex` at sim time `atMicros`; true when the cache served it.
  bool readHits(std::uint64_t atMicros, std::uint64_t keyIndex = kKey) {
    return serveAt(atMicros, workload::OpType::kRead, keyIndex).cacheHit;
  }
  void writeAt(std::uint64_t atMicros) {
    serveAt(atMicros, workload::OpType::kWrite, kKey);
  }
  [[nodiscard]] std::uint64_t expirations() const {
    return deployment_->counters().ttlExpirations;
  }

  /// Declared first so it outlives the deployment's catalog store.
  std::unique_ptr<workload::UcTraceWorkload> trace_;
  std::unique_ptr<Deployment> deployment_;

 private:
  Deployment::OpResult serveAt(std::uint64_t atMicros, workload::OpType type,
                               std::uint64_t keyIndex) {
    deployment_->setSimTimeMicros(atMicros);
    if (objects_) {
      const bool read = type == workload::OpType::kRead;
      return deployment_->serveObject(workload::Op{
          read ? workload::OpType::kObjectRead : type, keyIndex, 1024});
    }
    return deployment_->serve(workload::Op{type, keyIndex, 1024});
  }

  bool objects_ = false;
};

TEST_F(LinkedTtl, DeadlineIsInclusiveAndHitsDoNotExtendIt) {
  start();
  EXPECT_FALSE(readHits(10'000));  // miss: filled at 10'000
  EXPECT_TRUE(readHits(10'000 + kTtl - 1));
  EXPECT_EQ(expirations(), 0u);
  const std::uint64_t storageReads = deployment_->counters().storageReads;
  EXPECT_FALSE(readHits(10'000 + kTtl));  // expired exactly at the deadline
  EXPECT_EQ(expirations(), 1u);
  EXPECT_EQ(deployment_->counters().storageReads, storageReads + 1);
  // The revalidation refilled the entry with a full TTL of its own.
  EXPECT_TRUE(readHits(10'000 + 2 * kTtl - 1));
  EXPECT_EQ(expirations(), 1u);
}

TEST_F(LinkedTtl, ObjectReadsExpireAtTheInclusiveDeadline) {
  // Object ops share the KV read path, so the same bound covers them.
  start(/*writeThrough=*/true, util::Bytes::mb(64), /*objects=*/true);
  EXPECT_FALSE(readHits(10'000));  // miss: assembled and filled at 10'000
  const std::uint64_t statements = deployment_->counters().statementsIssued;
  EXPECT_GT(statements, 0u);
  EXPECT_TRUE(readHits(10'000 + kTtl - 1));
  EXPECT_EQ(expirations(), 0u);
  EXPECT_FALSE(readHits(10'000 + kTtl));  // expired exactly at the deadline
  EXPECT_EQ(expirations(), 1u);
  // Revalidation re-assembled the object and refilled it with a fresh TTL.
  EXPECT_GT(deployment_->counters().statementsIssued, statements);
  EXPECT_TRUE(readHits(10'000 + 2 * kTtl - 1));
  EXPECT_EQ(expirations(), 1u);
}

TEST_F(LinkedTtl, WriteThroughRestartsTheClock) {
  start();
  EXPECT_FALSE(readHits(0));
  writeAt(600);
  EXPECT_TRUE(readHits(kTtl));  // past the fill's deadline, not the write's
  EXPECT_TRUE(readHits(600 + kTtl - 1));
  EXPECT_FALSE(readHits(600 + kTtl));
  EXPECT_EQ(expirations(), 1u);
}

TEST_F(LinkedTtl, InvalidatingWriteDropsEntryAndFillTime) {
  start(/*writeThrough=*/false);
  EXPECT_FALSE(readHits(0));
  EXPECT_EQ(deployment_->ttlBookkeepingSize(), 1u);
  writeAt(100);
  EXPECT_EQ(deployment_->linkedCache()->shards().itemCount(), 0u);
  EXPECT_EQ(deployment_->ttlBookkeepingSize(), 0u);
  // The next read is a plain miss, and its refill starts a fresh deadline.
  EXPECT_FALSE(readHits(5'000));
  EXPECT_EQ(expirations(), 0u);
  EXPECT_TRUE(readHits(5'000 + kTtl - 1));
  EXPECT_FALSE(readHits(5'000 + kTtl));
  EXPECT_EQ(expirations(), 1u);
}

TEST_F(LinkedTtl, EvictionIsNotAnExpirationAndRefillGetsFreshDeadline) {
  start(/*writeThrough=*/true, util::Bytes::of(4 * 1200));  // ~4 per shard
  cache::ShardedTier& linked = deployment_->linkedCache()->shards();
  const std::string key = workload::keyName(kKey);
  const std::size_t owner = linked.ownerOf(key);
  EXPECT_FALSE(readHits(0));
  // Fill the owner's shard with other keys until LRU pressure evicts kKey.
  for (std::uint64_t k = kKey + 1;
       k < 100 && linked.shard(owner).peek(key) != nullptr; ++k) {
    if (linked.ownerOf(workload::keyName(k)) == owner) readHits(1, k);
  }
  ASSERT_EQ(linked.shard(owner).peek(key), nullptr);
  // Long past the first fill's deadline: a plain miss, not an expiration.
  EXPECT_FALSE(readHits(5 * kTtl));
  EXPECT_EQ(expirations(), 0u);
  EXPECT_TRUE(readHits(6 * kTtl - 1));
  EXPECT_FALSE(readHits(6 * kTtl));
  EXPECT_EQ(expirations(), 1u);
}

// ---- planned churn: a node that rejoins inside its own leave window ----

class RejoinInsideLeaveWindow : public ::testing::TestWithParam<Architecture> {
 protected:
  /// The architecture's sharded cache tier and its kind.
  static cache::ShardedTier& ring(Deployment& d) {
    if (d.remoteCache() != nullptr) return d.remoteCache()->shards();
    if (d.linkedCache() != nullptr) return d.linkedCache()->shards();
    return d.disaggCache()->shards();
  }
};

TEST_P(RejoinInsideLeaveWindow, KeepsTheNodeUpAndServing) {
  Deployment deployment(smallDeployment(GetParam()));
  workload::SyntheticWorkload workload(smallWorkload());
  deployment.populateKv(workload);
  cache::ShardedTier& shards = ring(deployment);
  const sim::TierKind tier = shards.tier().kind();

  // Node 0 leaves at 10 ms and rejoins at 12 ms; its warm-handoff window
  // runs to 30 ms. 10 us per op, 80 ms in all.
  MembershipSchedule schedule;
  schedule.leave(10'000, tier, 0);
  schedule.join(12'000, tier, 0);
  HandoffConfig handoff;
  handoff.enabled = true;
  handoff.windowMicros = 20'000;
  deployment.installMembershipSchedule(std::move(schedule), handoff);
  const auto serveUntil = [&](std::uint64_t from, std::uint64_t to) {
    for (std::uint64_t t = from; t < to; t += 10) {
      deployment.setSimTimeMicros(t);
      deployment.serve(workload.next());
    }
  };
  serveUntil(0, 40'000);
  EXPECT_EQ(deployment.counters().plannedJoins, 1u);
  EXPECT_EQ(deployment.counters().plannedLeaves, 1u);

  // The leave window closed at 30 ms without retiring the rejoined node.
  deployment.clearMeters();
  serveUntil(40'000, 80'000);
  EXPECT_TRUE(shards.isMember(0));
  EXPECT_TRUE(shards.tier().node(0).isUp());
  EXPECT_GT(shards.shard(0).itemCount(), 0u);
  EXPECT_EQ(deployment.counters().degradedReads, 0u);
  EXPECT_EQ(deployment.counters().failedOps, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    RingTiers, RejoinInsideLeaveWindow,
    ::testing::Values(Architecture::kRemote, Architecture::kLinked,
                      Architecture::kDisaggregated),
    [](const ::testing::TestParamInfo<Architecture>& info) {
      return std::string(architectureName(info.param));
    });

TEST(Deployment, TotalCacheMemoryProvisioned) {
  DeploymentConfig config = smallDeployment(Architecture::kLinked);
  Deployment deployment(config);
  // 3 app shards × 64 MB + 3 block caches × 64 MB.
  EXPECT_EQ(deployment.totalCacheMemoryProvisioned().count(),
            util::Bytes::mb(64 * 6).count());
}

}  // namespace
}  // namespace dcache::core
