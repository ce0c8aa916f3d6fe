// The memory-disaggregated architecture's lockdown suite: exact byte
// accounting of one-sided reads, the hot-cache/far-pool interaction (an
// in-process hit must never touch the fabric), DiFache-style decentralized
// invalidation correctness (the writer's fan-out reaches every cached
// copy; no stale hot copy survives an epoch fence), and fault interplay
// (far-pool crash degrades to storage, a gray-slow pool node gets ejected
// and routed around by the health monitor).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cache/disagg_cache.hpp"
#include "core/deployment.hpp"
#include "rpc/channel.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/tier.hpp"
#include "workload/synthetic.hpp"
#include "workload/workload.hpp"

namespace dcache {
namespace {

// ---- one-sided read byte accounting (channel level) ----

TEST(OneSidedRead, PerBytePriceTimesBytesChargedExactly) {
  sim::NetworkModel network;
  rpc::Channel channel(network, rpc::SerializationModel{});
  sim::Node initiator("app", sim::TierKind::kAppServer);
  sim::Node target("far", sim::TierKind::kFarMemory);

  // Zero out the fixed parts so the charge IS bytes x per-byte price —
  // the contract must hold bit-exactly, not approximately.
  rpc::OneSidedParams params;
  params.issueMicros = 0.0;
  params.completionMicros = 0.0;
  params.targetTouchMicros = 0.0;
  params.perByteCpuMicros = 0.0002;
  const std::uint64_t bytes = 123457;
  const auto result = channel.oneSidedRead(initiator, target, bytes, params);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(initiator.cpu().micros(sim::CpuComponent::kFarMemAccess),
            params.perByteCpuMicros * static_cast<double>(bytes));
  EXPECT_EQ(target.cpu().micros(sim::CpuComponent::kFarMemAccess), 0.0);
}

TEST(OneSidedRead, DefaultShapeChargesInitiatorThreePartsTargetNearZero) {
  sim::NetworkModel network;
  rpc::Channel channel(network, rpc::SerializationModel{});
  sim::Node initiator("app", sim::TierKind::kAppServer);
  sim::Node target("far", sim::TierKind::kFarMemory);

  const rpc::OneSidedParams params;
  const std::uint64_t bytes = 4096;
  channel.oneSidedRead(initiator, target, bytes, params);
  // Accumulate in the same order the channel charges (issue, per-byte,
  // completion) so the comparison is exact under floating point.
  double expected = 0.0;
  expected += params.issueMicros;
  expected += params.perByteCpuMicros * static_cast<double>(bytes);
  expected += params.completionMicros;
  EXPECT_EQ(initiator.cpu().micros(sim::CpuComponent::kFarMemAccess),
            expected);
  EXPECT_EQ(target.cpu().micros(sim::CpuComponent::kFarMemAccess),
            params.targetTouchMicros);
  // The defining asymmetry: the pool's CPU cost per access is orders of
  // magnitude below the initiator's.
  EXPECT_LT(params.targetTouchMicros, 0.1 * expected);
  // No marshalling components anywhere — one-sided means no RPC stack.
  EXPECT_EQ(initiator.cpu().micros(sim::CpuComponent::kSerialization), 0.0);
  EXPECT_EQ(target.cpu().micros(sim::CpuComponent::kDeserialization), 0.0);
  EXPECT_EQ(target.cpu().micros(sim::CpuComponent::kRpcFraming), 0.0);
}

// ---- one-sided fault ladder (bare armed channel) ----

/// A bare far-memory hop on an armed channel (default CallPolicy).
struct ArmedFarHop {
  ArmedFarHop()
      : initiator("app", sim::TierKind::kAppServer),
        target("far", sim::TierKind::kFarMemory),
        channel(network, rpc::SerializationModel{}) {
    channel.enableFaults(/*seed=*/7);
  }

  rpc::CallResult read() {
    return channel.oneSidedRead(initiator, target, 4096, params);
  }
  double initiatorFarCpu() const {
    return initiator.cpu().micros(sim::CpuComponent::kFarMemAccess);
  }
  double targetFarCpu() const {
    return target.cpu().micros(sim::CpuComponent::kFarMemAccess);
  }

  sim::NetworkModel network;
  sim::Node initiator;
  sim::Node target;
  rpc::Channel channel;
  const rpc::OneSidedParams params{};
};

TEST(OneSidedRead, DownTargetRunsEveryAttemptAndChargesOnlyIssue) {
  ArmedFarHop hop;
  hop.target.setUp(false);
  const auto result = hop.read();
  EXPECT_FALSE(result.ok);

  const rpc::CallPolicy& policy = hop.channel.defaultPolicy();
  const auto& counters = hop.channel.faultCounters();
  EXPECT_EQ(counters.timeouts, policy.maxAttempts);
  EXPECT_EQ(counters.retries, policy.maxAttempts - 1);
  EXPECT_EQ(counters.failedCalls, 1u);
  EXPECT_EQ(hop.channel.callCount(), policy.maxAttempts);
  // Each lost posting costs the initiator its issue and nothing else; the
  // target never saw a request.
  double expected = 0.0;
  for (std::size_t i = 0; i < policy.maxAttempts; ++i) {
    expected += hop.params.issueMicros;
  }
  EXPECT_EQ(hop.initiatorFarCpu(), expected);
  EXPECT_EQ(hop.initiator.cpu().totalMicros(), expected);
  EXPECT_EQ(hop.target.cpu().totalMicros(), 0.0);
  EXPECT_EQ(counters.wastedCpuMicros, expected);
  EXPECT_EQ(hop.network.messagesSent(), 0u);
  EXPECT_GE(result.latencyMicros,
            policy.timeoutMicros * static_cast<double>(policy.maxAttempts));
}

TEST(OneSidedRead, CutReturnDirectionWastesIssueAndTargetTouch) {
  ArmedFarHop hop;
  hop.network.cutLink(sim::TierKind::kFarMemory, sim::TierKind::kAppServer);
  const auto result = hop.read();
  EXPECT_FALSE(result.ok);

  const rpc::CallPolicy& policy = hop.channel.defaultPolicy();
  double issue = 0.0;
  double touch = 0.0;
  double wasted = 0.0;
  for (std::size_t i = 0; i < policy.maxAttempts; ++i) {
    issue += hop.params.issueMicros;
    touch += hop.params.targetTouchMicros;
    wasted += hop.params.issueMicros + hop.params.targetTouchMicros;
  }
  // The target's memory was read every time; the payload never landed.
  EXPECT_EQ(hop.initiatorFarCpu(), issue);
  EXPECT_EQ(hop.targetFarCpu(), touch);
  EXPECT_EQ(hop.channel.faultCounters().wastedCpuMicros, wasted);
  EXPECT_EQ(hop.channel.faultCounters().timeouts, policy.maxAttempts);
  EXPECT_EQ(hop.channel.faultCounters().failedCalls, 1u);
  EXPECT_EQ(hop.network.messagesSent(), 0u);
}

TEST(OneSidedRead, OpenBreakerShortCircuitsAtIssueCostWithoutWire) {
  ArmedFarHop hop;
  rpc::BreakerPolicy breaker;
  breaker.windowSize = 4;
  breaker.minSamples = 2;
  breaker.openMicros = 1e9;  // never cools down within this test
  hop.channel.enableBreakers(breaker);
  hop.target.setUp(false);
  for (int i = 0; i < 2; ++i) (void)hop.read();
  ASSERT_NE(hop.channel.breakerFor(hop.target), nullptr);
  ASSERT_EQ(hop.channel.breakerFor(hop.target)->state(),
            rpc::CircuitBreaker::State::kOpen);

  // The target is healthy again, so a read that got past the breaker would
  // put its payload on the wire — the open breaker must stop it first.
  hop.target.setUp(true);
  const auto before = hop.channel.faultCounters();
  const double initiatorBefore = hop.initiatorFarCpu();
  const double targetBefore = hop.target.cpu().totalMicros();
  const std::uint64_t messagesBefore = hop.network.messagesSent();
  const std::uint64_t bytesBefore = hop.network.bytesSent();

  const auto result = hop.read();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.latencyMicros, 0.0);
  EXPECT_EQ(hop.initiatorFarCpu(), initiatorBefore + hop.params.issueMicros);
  EXPECT_EQ(hop.target.cpu().totalMicros(), targetBefore);
  const auto& after = hop.channel.faultCounters();
  EXPECT_EQ(after.wastedCpuMicros,
            before.wastedCpuMicros + hop.params.issueMicros);
  EXPECT_EQ(after.breakerShortCircuits, before.breakerShortCircuits + 1);
  EXPECT_EQ(after.timeouts, before.timeouts);
  EXPECT_EQ(hop.network.messagesSent(), messagesBefore);
  EXPECT_EQ(hop.network.bytesSent(), bytesBefore);
}

TEST(OneSidedRead, ObserverSeesOneOutcomePerCallWithTotalLatency) {
  struct Outcome {
    const sim::Node* dst;
    bool ok;
    double latencyMicros;
    std::uint64_t nowMicros;
  };
  struct Recorder : rpc::CallObserver {
    void onCallOutcome(const sim::Node& dst, bool ok, double latencyMicros,
                       std::uint64_t nowMicros) override {
      seen.push_back({&dst, ok, latencyMicros, nowMicros});
    }
    std::vector<Outcome> seen;
  } recorder;
  ArmedFarHop hop;
  hop.channel.setCallObserver(&recorder);
  hop.channel.setNowMicros(1234);

  const auto healthy = hop.read();
  hop.target.setUp(false);
  const auto down = hop.read();

  ASSERT_EQ(recorder.seen.size(), 2u);
  EXPECT_TRUE(healthy.ok);
  EXPECT_EQ(recorder.seen[0].dst, &hop.target);
  EXPECT_TRUE(recorder.seen[0].ok);
  EXPECT_EQ(recorder.seen[0].latencyMicros, healthy.latencyMicros);
  EXPECT_EQ(recorder.seen[0].nowMicros, 1234u);
  EXPECT_FALSE(down.ok);
  EXPECT_EQ(recorder.seen[1].dst, &hop.target);
  EXPECT_FALSE(recorder.seen[1].ok);
  // The failed call's latency is the whole ladder: every timed-out wait
  // and backoff, not just the last attempt.
  EXPECT_EQ(recorder.seen[1].latencyMicros, down.latencyMicros);
  const rpc::CallPolicy& policy = hop.channel.defaultPolicy();
  EXPECT_GE(down.latencyMicros,
            policy.timeoutMicros * static_cast<double>(policy.maxAttempts));
}

// ---- DisaggCache wire accounting ----

class DisaggCacheTest : public ::testing::Test {
 protected:
  DisaggCacheTest()
      : farTier_("far-memory", sim::TierKind::kFarMemory, 3),
        appTier_("app", sim::TierKind::kAppServer, 2),
        channel_(network_, rpc::SerializationModel{}),
        cache_(farTier_, util::Bytes::mb(4), appTier_, util::Bytes::kb(64),
               channel_) {}

  sim::NetworkModel network_;
  sim::Tier farTier_;
  sim::Tier appTier_;
  rpc::Channel channel_;
  cache::DisaggCache cache_;
};

TEST_F(DisaggCacheTest, WireBytesAreHeaderPlusValueOnHitHeaderOnMiss) {
  sim::Node& app = appTier_.node(0);
  const std::string key = "wire-key";
  const std::uint64_t size = 1000;
  const std::size_t slot = cache_.shards().ownerOf(key);

  const auto miss = cache_.farGet(app, slot, key);
  EXPECT_FALSE(miss.hit);
  EXPECT_FALSE(miss.failed);
  EXPECT_EQ(miss.wireBytes, cache::kFarSlotHeaderBytes);

  cache_.farPut(app, slot, key, size, /*version=*/7);
  const auto hit = cache_.farGet(app, slot, key);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.size, size);
  EXPECT_EQ(hit.version, 7u);
  EXPECT_EQ(hit.wireBytes, cache::kFarSlotHeaderBytes + size);
}

TEST_F(DisaggCacheTest, HotHitChargesNoFarAccessCpu) {
  sim::Node& app = appTier_.node(0);
  cache_.hotFill(0, "hot-key", 500, 1);
  const double farCpuBefore =
      app.cpu().micros(sim::CpuComponent::kFarMemAccess);
  const auto hot = cache_.hotGet(0, "hot-key");
  EXPECT_TRUE(hot.hit);
  EXPECT_EQ(hot.size, 500u);
  EXPECT_EQ(app.cpu().micros(sim::CpuComponent::kFarMemAccess),
            farCpuBefore);
  for (std::size_t i = 0; i < farTier_.size(); ++i) {
    EXPECT_EQ(farTier_.node(i).cpu().totalMicros(), 0.0) << "pool node " << i;
  }
  // The hot cache is per app server: node 1 does not share node 0's copy.
  EXPECT_FALSE(cache_.hotGet(1, "hot-key").hit);
}

// ---- Deployment serve path ----

[[nodiscard]] core::DeploymentConfig disaggDeployment() {
  core::DeploymentConfig config;
  config.architecture = core::Architecture::kDisaggregated;
  config.farMemoryPerNode = util::Bytes::mb(64);
  config.hotCachePerNode = util::Bytes::mb(8);
  return config;
}

[[nodiscard]] workload::SyntheticConfig smallWorkload() {
  workload::SyntheticConfig config;
  config.numKeys = 2000;
  config.valueSize = 1024;
  config.readRatio = 0.9;
  return config;
}

[[nodiscard]] workload::Op readOp(std::uint64_t keyIndex,
                                  std::uint64_t size) {
  return workload::Op{workload::OpType::kRead, keyIndex, size};
}

[[nodiscard]] workload::Op writeOp(std::uint64_t keyIndex,
                                   std::uint64_t size) {
  return workload::Op{workload::OpType::kWrite, keyIndex, size};
}

TEST(DisaggDeployment, TiersAndWiringExistOnlyForDisaggregated) {
  core::Deployment disagg(disaggDeployment());
  EXPECT_NE(disagg.disaggCache(), nullptr);
  EXPECT_NE(disagg.invalidationBus(), nullptr);
  // client, app, far-memory, sql, kv — and one bus subscriber per server.
  EXPECT_EQ(disagg.tiers().size(), 5u);
  EXPECT_EQ(disagg.invalidationBus()->subscriberCount(),
            disagg.appTier().size());

  for (const core::Architecture arch :
       {core::Architecture::kBase, core::Architecture::kRemote,
        core::Architecture::kLinked, core::Architecture::kLinkedVersion}) {
    core::DeploymentConfig config;
    config.architecture = arch;
    core::Deployment other(config);
    EXPECT_EQ(other.disaggCache(), nullptr);
    EXPECT_EQ(other.invalidationBus(), nullptr);
  }
}

TEST(DisaggDeployment, HotHitNeverTouchesFarMemory) {
  core::Deployment deployment(disaggDeployment());
  workload::SyntheticWorkload workload(smallWorkload());
  deployment.populateKv(workload);

  // Round-robin sends consecutive ops to app 0, 1, 2; the fourth read of
  // the same key re-lands on app 0, whose hot cache now holds it.
  const std::uint64_t keyIndex = 42;
  const std::string key = workload::keyName(keyIndex);
  const std::uint64_t size = workload.valueSizeFor(keyIndex);
  deployment.serve(readOp(keyIndex, size));  // app0: far miss, storage fill
  deployment.serve(readOp(keyIndex, size));  // app1: far hit, hot fill
  deployment.serve(readOp(keyIndex, size));  // app2: far hit, hot fill
  const core::ServeCounters& mid = deployment.counters();
  EXPECT_EQ(mid.farMemoryReads, 3u);
  EXPECT_EQ(mid.cacheHits, 2u);
  EXPECT_EQ(mid.hotCacheHits, 0u);
  EXPECT_EQ(mid.cacheMisses, 1u);
  EXPECT_EQ(mid.storageReads, 1u);
  // Exact wire accounting: the miss pulled only the slot header, each hit
  // pulled header + value.
  EXPECT_EQ(mid.farMemoryBytes,
            3 * cache::kFarSlotHeaderBytes + 2 * size);

  const auto result = deployment.serve(readOp(keyIndex, size));  // app0: hot
  EXPECT_TRUE(result.cacheHit);
  const core::ServeCounters& after = deployment.counters();
  EXPECT_EQ(after.hotCacheHits, 1u);
  EXPECT_EQ(after.farMemoryReads, 3u);  // unchanged: never touched the pool
  EXPECT_EQ(after.farMemoryBytes, mid.farMemoryBytes);
  EXPECT_EQ(after.cacheHits, 3u);
}

TEST(DisaggDeployment, WriterInvalidationReachesEveryCachedCopy) {
  core::Deployment deployment(disaggDeployment());
  workload::SyntheticWorkload workload(smallWorkload());
  deployment.populateKv(workload);
  cache::DisaggCache& cache = *deployment.disaggCache();

  const std::uint64_t keyIndex = 7;
  const std::string key = workload::keyName(keyIndex);
  const std::uint64_t size = workload.valueSizeFor(keyIndex);
  // Prime every app server's hot cache (apps 0, 1, 2 in rr order).
  for (int i = 0; i < 3; ++i) deployment.serve(readOp(keyIndex, size));
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_NE(cache.hotShard(i).peek(key), nullptr) << "app " << i;
  }

  // The write lands on app 0 (rr continues); it refreshes the far slot and
  // its own copy and fans the invalidation to apps 1 and 2 itself.
  deployment.serve(writeOp(keyIndex, size));
  EXPECT_EQ(deployment.counters().clientInvalidations, 2u);
  EXPECT_EQ(deployment.invalidationBus()->published(), 1u);

  const cache::CacheEntry* writer = cache.hotShard(0).peek(key);
  ASSERT_NE(writer, nullptr);
  EXPECT_EQ(cache.hotShard(1).peek(key), nullptr);
  EXPECT_EQ(cache.hotShard(2).peek(key), nullptr);
  // Far slot and the writer's hot copy agree on the new version — the
  // copies that could have gone stale are gone instead.
  const cache::CacheEntry* far =
      cache.shards().shard(cache.shards().ownerOf(key)).peek(key);
  ASSERT_NE(far, nullptr);
  EXPECT_EQ(far->version, writer->version);

  // Re-reads re-pull from the far pool and converge on the new version:
  // a stale hit is impossible.
  for (int i = 0; i < 3; ++i) deployment.serve(readOp(keyIndex, size));
  for (std::size_t i = 0; i < 3; ++i) {
    const cache::CacheEntry* hot = cache.hotShard(i).peek(key);
    ASSERT_NE(hot, nullptr) << "app " << i;
    EXPECT_EQ(hot->version, far->version) << "app " << i;
  }
}

TEST(DisaggDeployment, PoolCrashFencesEpochAndFallsBackToStorage) {
  core::DeploymentConfig config = disaggDeployment();
  core::Deployment deployment(config);
  workload::SyntheticWorkload workload(smallWorkload());
  deployment.populateKv(workload);
  cache::DisaggCache& cache = *deployment.disaggCache();

  const std::uint64_t keyIndex = 11;
  const std::string key = workload::keyName(keyIndex);
  const std::uint64_t size = workload.valueSizeFor(keyIndex);
  const std::size_t farIdx = cache.shards().ownerOf(key);

  for (int i = 0; i < 3; ++i) deployment.serve(readOp(keyIndex, size));
  const std::uint64_t epochBefore = deployment.ownershipEpoch();

  sim::FaultSchedule faults;
  faults.crashNode(1000, sim::TierKind::kFarMemory, farIdx);
  deployment.installFaultSchedule(std::move(faults));
  deployment.setSimTimeMicros(2000);  // the crash fires here

  // Epoch fence: membership changed, every hot copy is dropped at once so
  // client-driven placement cannot read a slot that moved or died.
  EXPECT_EQ(deployment.ownershipEpoch(), epochBefore + 1);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(cache.hotShard(i).peek(key), nullptr) << "app " << i;
  }

  // Reads for the dead node's keys degrade to storage — no far access is
  // even attempted, so no retry budget burns on a known-dead pool node.
  const core::ServeCounters before = deployment.counters();
  const auto result = deployment.serve(readOp(keyIndex, size));
  const core::ServeCounters& after = deployment.counters();
  EXPECT_FALSE(result.cacheHit);
  EXPECT_EQ(after.farMemoryReads, before.farMemoryReads);
  EXPECT_EQ(after.degradedReads, before.degradedReads + 1);
  EXPECT_EQ(after.storageReads, before.storageReads + 1);
  EXPECT_EQ(after.failedOps, before.failedOps);  // served, just degraded
}

TEST(DisaggDeployment, GraySlowPoolNodeIsEjectedAndRoutedAround) {
  core::DeploymentConfig config = disaggDeployment();
  config.health.enabled = true;
  core::Deployment deployment(config);
  workload::SyntheticWorkload workload(smallWorkload());
  deployment.populateKv(workload);

  constexpr double kMicrosPerOp = 1e6 / 120000.0;
  std::uint64_t opIndex = 0;
  auto serveOne = [&] {
    deployment.setSimTimeMicros(static_cast<std::uint64_t>(
        kMicrosPerOp * static_cast<double>(opIndex)));
    ++opIndex;
    deployment.serve(workload.next());
  };
  for (int i = 0; i < 4000; ++i) serveOne();

  // Node 0 of the pool turns gray: answers, 20x slower, for the rest of
  // the run. The health monitor must notice from the one-sided reads'
  // latency feed alone and eject it.
  sim::FaultSchedule faults;
  faults.slowNode(static_cast<std::uint64_t>(kMicrosPerOp * 4000.0),
                  static_cast<std::uint64_t>(kMicrosPerOp * 40000.0),
                  sim::TierKind::kFarMemory, 0, 20.0);
  deployment.installFaultSchedule(std::move(faults));
  for (int i = 0; i < 12000; ++i) serveOne();

  const core::ServeCounters& c = deployment.counters();
  EXPECT_GE(c.ejectedNodes, 1u) << "gray far-memory node was never ejected";
  EXPECT_GT(c.detectionLagMicros, 0.0);

  // Ejected != failed: ops for the slow node's keys degrade to storage
  // while the other pool nodes keep serving one-sided reads.
  const std::uint64_t farReadsAtEjection = c.farMemoryReads;
  for (int i = 0; i < 2000; ++i) serveOne();
  EXPECT_GT(deployment.counters().farMemoryReads, farReadsAtEjection);
  EXPECT_GT(deployment.counters().degradedReads, 0u);
}

TEST(DisaggDeployment, HitsAfterWarmupAndProvisionedMemoryCoversBothLayers) {
  core::DeploymentConfig config = disaggDeployment();
  core::Deployment deployment(config);
  workload::SyntheticWorkload workload(smallWorkload());
  deployment.populateKv(workload);
  for (int i = 0; i < 20000; ++i) deployment.serve(workload.next());
  EXPECT_GT(deployment.counters().hitRatio(), 0.8);
  EXPECT_GT(deployment.counters().hotCacheHits, 0u);
  EXPECT_LE(deployment.counters().hotCacheHits,
            deployment.counters().cacheHits);
  EXPECT_LE(deployment.counters().farMemoryReads,
            deployment.counters().reads);

  // Cache memory = far pool + every app server's hot front (plus the
  // storage block caches every architecture carries).
  const util::Bytes expected = config.farMemoryPerNode * 3.0 +
                               config.hotCachePerNode * 3.0 +
                               config.blockCachePerNode * 3.0;
  EXPECT_EQ(deployment.totalCacheMemoryProvisioned().count(),
            expected.count());
}

}  // namespace
}  // namespace dcache
