// Cross-module integration tests, parameterized over all four
// architectures: serving invariants, accounting conservation, determinism,
// and failure injection (reshard mid-run).
#include <gtest/gtest.h>

#include <string>

#include "core/deployment.hpp"
#include "core/experiment.hpp"
#include "workload/synthetic.hpp"

namespace dcache::core {
namespace {

[[nodiscard]] DeploymentConfig smallConfig(Architecture arch) {
  DeploymentConfig config;
  config.architecture = arch;
  config.appCachePerNode = util::Bytes::mb(64);
  config.remoteCachePerNode = util::Bytes::mb(64);
  config.blockCachePerNode = util::Bytes::mb(64);
  return config;
}

[[nodiscard]] workload::SyntheticConfig smallWorkload() {
  workload::SyntheticConfig config;
  config.numKeys = 1500;
  config.valueSize = 2048;
  config.readRatio = 0.9;
  return config;
}

class ArchitectureContract : public ::testing::TestWithParam<Architecture> {
 protected:
  [[nodiscard]] Architecture arch() const { return GetParam(); }
};

TEST_P(ArchitectureContract, CountersAddUp) {
  Deployment deployment(smallConfig(arch()));
  workload::SyntheticWorkload workload(smallWorkload());
  deployment.populateKv(workload);
  constexpr std::uint64_t kOps = 5000;
  for (std::uint64_t i = 0; i < kOps; ++i) deployment.serve(workload.next());

  const ServeCounters& counters = deployment.counters();
  EXPECT_EQ(counters.reads + counters.writes, kOps);
  EXPECT_EQ(deployment.latencies().count(), kOps);
  if (arch() == Architecture::kBase) {
    EXPECT_EQ(counters.cacheHits + counters.cacheMisses, 0u);
  } else {
    EXPECT_EQ(counters.cacheHits + counters.cacheMisses, counters.reads);
  }
}

TEST_P(ArchitectureContract, CpuConservationAcrossAllTiers) {
  Deployment deployment(smallConfig(arch()));
  workload::SyntheticWorkload workload(smallWorkload());
  deployment.populateKv(workload);
  for (int i = 0; i < 3000; ++i) deployment.serve(workload.next());

  for (const sim::Tier* tier : deployment.tiers()) {
    for (std::size_t n = 0; n < tier->size(); ++n) {
      const sim::CpuMeter& cpu = tier->node(n).cpu();
      double sum = 0.0;
      for (std::size_t c = 0; c < sim::kNumCpuComponents; ++c) {
        sum += cpu.micros(static_cast<sim::CpuComponent>(c));
      }
      EXPECT_NEAR(sum, cpu.totalMicros(), 1e-6)
          << tier->name() << "[" << n << "]";
    }
  }
}

TEST_P(ArchitectureContract, EveryRequestReachesTheClientLeg) {
  // The client node pays framing for every request under every
  // architecture — no request is served without answering someone.
  Deployment deployment(smallConfig(arch()));
  workload::SyntheticWorkload workload(smallWorkload());
  deployment.populateKv(workload);
  for (int i = 0; i < 1000; ++i) deployment.serve(workload.next());
  const sim::Tier* clients = deployment.tiers().front();
  ASSERT_EQ(clients->kind(), sim::TierKind::kClient);
  EXPECT_GT(clients->aggregateCpu().micros(sim::CpuComponent::kClientComm),
            0.0);
}

TEST_P(ArchitectureContract, DeterministicAcrossRuns) {
  auto runOnce = [&] {
    Deployment deployment(smallConfig(arch()));
    workload::SyntheticWorkload workload(smallWorkload());
    deployment.populateKv(workload);
    ExperimentConfig experiment;
    experiment.operations = 4000;
    experiment.warmupOperations = 2000;
    ExperimentRunner runner(experiment);
    return runner.run(deployment, workload);
  };
  const auto a = runOnce();
  const auto b = runOnce();
  EXPECT_EQ(a.cost.totalCost.micros(), b.cost.totalCost.micros());
  EXPECT_EQ(a.counters.cacheHits, b.counters.cacheHits);
  EXPECT_DOUBLE_EQ(a.meanLatencyMicros, b.meanLatencyMicros);
}

TEST_P(ArchitectureContract, ReadsAfterWritesSeeLatestSize) {
  // Functional correctness through the full stack: write a new size, read
  // it back through whatever path the architecture uses.
  Deployment deployment(smallConfig(arch()));
  workload::SyntheticWorkload workload(smallWorkload());
  deployment.populateKv(workload);

  workload::Op write;
  write.type = workload::OpType::kWrite;
  write.keyIndex = 42;
  write.valueSize = 7777;
  deployment.serve(write);

  workload::Op read;
  read.type = workload::OpType::kRead;
  read.keyIndex = 42;
  read.valueSize = 7777;
  deployment.serve(read);

  // Storage must hold the new size regardless of architecture.
  sim::Node probe("probe", sim::TierKind::kClient);
  const auto stored = deployment.db().readValue(
      probe, workload::keyName(42));
  EXPECT_TRUE(stored.found);
  EXPECT_EQ(stored.size, 7777u);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, ArchitectureContract,
    ::testing::ValuesIn(kAllArchitectures),
    [](const auto& info) {
      std::string name(architectureName(info.param));
      for (char& c : name) {
        if (c == '+') c = '_';
      }
      return name;
    });

TEST(FailureInjection, ReshardDropsShardButServiceRecovers) {
  DeploymentConfig config = smallConfig(Architecture::kLinked);
  Deployment deployment(config);
  workload::SyntheticWorkload workload(smallWorkload());
  deployment.populateKv(workload);

  // Warm, then kill one app server's shard (ring removal).
  for (int i = 0; i < 10000; ++i) deployment.serve(workload.next());
  deployment.clearMeters();
  ASSERT_NE(deployment.linkedCache(), nullptr);
  deployment.linkedCache()->shards().retireMember(1);

  // Service continues; the lost shard's keys re-warm via misses.
  for (int i = 0; i < 10000; ++i) deployment.serve(workload.next());
  EXPECT_GT(deployment.counters().cacheMisses, 0u);
  EXPECT_GT(deployment.counters().hitRatio(), 0.5);

  // Steady state again after the re-warm.
  deployment.clearMeters();
  for (int i = 0; i < 5000; ++i) deployment.serve(workload.next());
  EXPECT_GT(deployment.counters().hitRatio(), 0.8);
}

TEST(FailureInjection, ReshardNeverServesStaleUnderVersionChecks) {
  // Even across a reshard, the Linked+Version path must never serve a
  // version that storage has already superseded.
  DeploymentConfig config = smallConfig(Architecture::kLinkedVersion);
  Deployment deployment(config);
  workload::SyntheticWorkload workload(smallWorkload());
  deployment.populateKv(workload);
  for (int i = 0; i < 5000; ++i) deployment.serve(workload.next());
  deployment.linkedCache()->shards().retireMember(0);
  for (int i = 0; i < 5000; ++i) deployment.serve(workload.next());
  // Mismatches may occur (that is the check working); what may not happen
  // is a served stale hit: every mismatch was refilled, so hits + misses
  // still account for all reads.
  const ServeCounters& counters = deployment.counters();
  EXPECT_EQ(counters.cacheHits + counters.cacheMisses, counters.reads);
  EXPECT_GT(counters.versionChecks, 0u);
}

TEST(Integration, NonAffinityRoutingCostsMoreButWorks) {
  // Without Slicer-style affinity, ~2/3 of probes forward to the owning
  // shard over the app tier: same hit ratio, strictly more CPU.
  auto runWith = [&](bool affinity) {
    DeploymentConfig config = smallConfig(Architecture::kLinked);
    config.affinityRouting = affinity;
    workload::SyntheticWorkload workload(smallWorkload());
    ExperimentConfig experiment;
    experiment.operations = 10000;
    experiment.warmupOperations = 10000;
    experiment.qps = 100000;
    return runArchitecture(Architecture::kLinked, workload, config,
                           experiment);
  };
  const auto affinity = runWith(true);
  const auto sprayed = runWith(false);
  EXPECT_NEAR(affinity.counters.hitRatio(), sprayed.counters.hitRatio(),
              0.01);
  EXPECT_GT(sprayed.cost.computeCost.micros(),
            affinity.cost.computeCost.micros());
  // Forwarding adds latency too.
  EXPECT_GT(sprayed.meanLatencyMicros, affinity.meanLatencyMicros);
}

TEST(Integration, ColderCacheCostsMore) {
  // Same workload, smaller cache, higher bill — the MRC connection.
  auto runWithCache = [&](util::Bytes perNode) {
    DeploymentConfig config = smallConfig(Architecture::kLinked);
    config.appCachePerNode = perNode;
    workload::SyntheticWorkload workload(smallWorkload());
    ExperimentConfig experiment;
    experiment.operations = 10000;
    experiment.warmupOperations = 10000;
    experiment.qps = 100000;
    return runArchitecture(Architecture::kLinked, workload, config,
                           experiment);
  };
  const auto big = runWithCache(util::Bytes::mb(64));
  const auto tiny = runWithCache(util::Bytes::of(100 * 1024));
  EXPECT_GT(big.counters.hitRatio(), tiny.counters.hitRatio());
  EXPECT_LT(big.cost.computeCost.micros(), tiny.cost.computeCost.micros());
}

TEST(Integration, RemoteCacheSharableAcrossAppServers) {
  // §2.4: remote caches are shared — a fill from one app server serves
  // hits probed via any other.
  DeploymentConfig config = smallConfig(Architecture::kRemote);
  Deployment deployment(config);
  workload::SyntheticWorkload workload(smallWorkload());
  deployment.populateKv(workload);
  ASSERT_NE(deployment.remoteCache(), nullptr);

  const std::string key = workload::keyName(7);
  auto& appTier = deployment.appTier();
  cache::RemoteCache& remote = *deployment.remoteCache();
  const std::size_t pod = remote.shards().ownerOf(key);
  remote.put(appTier.node(0), pod, key, 2048, 1);
  const auto hit = remote.get(appTier.node(2), pod, key);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.size, 2048u);
}

}  // namespace
}  // namespace dcache::core
