// Fault-injection subsystem tests: FaultSchedule ordering and builders, the
// channel's retry/timeout/backoff policy path (including its "retries are a
// cost" accounting), degradation windows, and the deployment-level failure
// semantics — graceful degradation, ring resharding, single-flight miss
// coalescing, and the guarantee that an empty schedule changes nothing.
#include <gtest/gtest.h>

#include "core/deployment.hpp"
#include "rpc/channel.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "workload/synthetic.hpp"

namespace dcache {
namespace {

// ---------------------------------------------------------------- schedule

TEST(FaultSchedule, EventsSortByTimeWithInsertionOrderBreakingTies) {
  sim::FaultSchedule schedule;
  schedule.crashNode(3000, sim::TierKind::kAppServer, 1);
  schedule.crashNode(1000, sim::TierKind::kAppServer, 0);
  schedule.restartNode(1000, sim::TierKind::kAppServer, 2);

  const auto& events = schedule.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].atMicros, 1000u);
  EXPECT_EQ(events[0].nodeIndex, 0u);  // inserted before the tie
  EXPECT_EQ(events[1].atMicros, 1000u);
  EXPECT_EQ(events[1].nodeIndex, 2u);
  EXPECT_EQ(events[2].atMicros, 3000u);
}

TEST(FaultSchedule, BuildersExpandToPairedEvents) {
  sim::FaultSchedule schedule;
  schedule.crashWindow(100, 500, sim::TierKind::kRemoteCache, 2);
  schedule.tierOutage(200, 400, sim::TierKind::kKvStorage);
  schedule.degradeNetwork(50, 600, 2.5, 0.1);
  ASSERT_EQ(schedule.size(), 6u);

  const auto& events = schedule.events();
  EXPECT_EQ(events[0].kind, sim::FaultKind::kDegradeBegin);
  EXPECT_DOUBLE_EQ(events[0].latencyFactor, 2.5);
  EXPECT_DOUBLE_EQ(events[0].dropProbability, 0.1);
  EXPECT_EQ(events[1].kind, sim::FaultKind::kNodeCrash);
  EXPECT_EQ(events[1].nodeIndex, 2u);
  EXPECT_EQ(events[2].kind, sim::FaultKind::kTierOutage);
  EXPECT_EQ(events[3].kind, sim::FaultKind::kTierRecover);
  EXPECT_EQ(events[4].kind, sim::FaultKind::kNodeRestart);
  EXPECT_EQ(events[5].kind, sim::FaultKind::kDegradeEnd);
}

TEST(FaultSchedule, KindNamesAreDistinct) {
  EXPECT_NE(sim::faultKindName(sim::FaultKind::kNodeCrash),
            sim::faultKindName(sim::FaultKind::kNodeRestart));
  EXPECT_NE(sim::faultKindName(sim::FaultKind::kTierOutage),
            sim::faultKindName(sim::FaultKind::kDegradeBegin));
  EXPECT_EQ(sim::faultKindName(sim::FaultKind::kNodeSlowBegin),
            "node-slow-begin");
  EXPECT_EQ(sim::faultKindName(sim::FaultKind::kPartialPartitionEnd),
            "partial-partition-end");
  EXPECT_EQ(sim::faultKindName(sim::FaultKind::kNodeFlakyBegin),
            "node-flaky-begin");
}

TEST(FaultSchedule, GrayBuildersExpandToPairedEvents) {
  sim::FaultSchedule schedule;
  schedule.slowNode(100, 500, sim::TierKind::kAppServer, 1, 10.0);
  schedule.partialPartition(200, 400, sim::TierKind::kSqlFrontend,
                            sim::TierKind::kKvStorage);
  schedule.flakyNode(300, 600, sim::TierKind::kRemoteCache, 2, 0.25);
  ASSERT_EQ(schedule.size(), 6u);

  const auto& events = schedule.events();
  EXPECT_EQ(events[0].kind, sim::FaultKind::kNodeSlowBegin);
  EXPECT_DOUBLE_EQ(events[0].latencyFactor, 10.0);
  EXPECT_EQ(events[0].nodeIndex, 1u);
  EXPECT_EQ(events[1].kind, sim::FaultKind::kPartialPartitionBegin);
  EXPECT_EQ(events[1].tier, sim::TierKind::kSqlFrontend);
  EXPECT_EQ(events[1].dstTier, sim::TierKind::kKvStorage);
  EXPECT_EQ(events[2].kind, sim::FaultKind::kNodeFlakyBegin);
  EXPECT_DOUBLE_EQ(events[2].dropProbability, 0.25);
  EXPECT_EQ(events[3].kind, sim::FaultKind::kPartialPartitionEnd);
  EXPECT_EQ(events[3].dstTier, sim::TierKind::kKvStorage);
  EXPECT_EQ(events[4].kind, sim::FaultKind::kNodeSlowEnd);
  EXPECT_EQ(events[5].kind, sim::FaultKind::kNodeFlakyEnd);
}

TEST(FaultSchedule, GrayBuildersClampOutOfRangeKnobs) {
  sim::FaultSchedule schedule;
  schedule.slowNode(0, 100, sim::TierKind::kAppServer, 0, 0.25);  // < 1x
  schedule.flakyNode(0, 100, sim::TierKind::kAppServer, 0, 1.75);
  const auto& events = schedule.events();
  // A "slow" factor below 1 would be a speedup; it clamps to neutral.
  EXPECT_DOUBLE_EQ(events[0].latencyFactor, 1.0);
  // Drop probabilities are probabilities.
  EXPECT_DOUBLE_EQ(events[1].dropProbability, 1.0);
}

TEST(FaultSchedule, InvertedWindowsClampToEmptyLength) {
  // Regression: an inverted window (until < from) used to sort its end
  // event before its begin event — closing a window that never opened,
  // then opening it with no matching close. The builders now clamp the
  // end up to the start, making the window empty instead of eternal.
  sim::FaultSchedule schedule;
  schedule.crashWindow(500, 100, sim::TierKind::kAppServer, 0);
  schedule.tierOutage(500, 100, sim::TierKind::kRemoteCache);
  schedule.degradeNetwork(500, 100, 2.0, 0.1);
  schedule.slowNode(500, 100, sim::TierKind::kAppServer, 1, 10.0);
  schedule.partialPartition(500, 100, sim::TierKind::kAppServer,
                            sim::TierKind::kRemoteCache);
  schedule.flakyNode(500, 100, sim::TierKind::kRemoteCache, 0, 0.3);

  const auto& events = schedule.events();
  ASSERT_EQ(events.size(), 12u);
  for (const auto& event : events) EXPECT_EQ(event.atMicros, 500u);
  // Insertion order survives the (stable) sort, so every begin still
  // precedes its end and the net effect at t=500 is a no-op.
  EXPECT_EQ(events[0].kind, sim::FaultKind::kNodeCrash);
  EXPECT_EQ(events[1].kind, sim::FaultKind::kNodeRestart);
  EXPECT_EQ(events[6].kind, sim::FaultKind::kNodeSlowBegin);
  EXPECT_EQ(events[7].kind, sim::FaultKind::kNodeSlowEnd);
}

// ----------------------------------------------------------- channel policy

class FaultChannelTest : public ::testing::Test {
 protected:
  FaultChannelTest()
      : client_("client", sim::TierKind::kAppServer),
        server_("server", sim::TierKind::kRemoteCache),
        channel_(network_, rpc::SerializationModel{}) {}

  sim::NetworkModel network_;
  sim::Node client_;
  sim::Node server_;
  rpc::Channel channel_;
};

TEST_F(FaultChannelTest, DownServerExhaustsRetryBudget) {
  channel_.enableFaults(7);
  server_.setUp(false);
  rpc::CallPolicy policy;  // 3 attempts, 2000us timeout
  const auto result =
      channel_.callWithPolicy(client_, server_, 128, 4096, policy);

  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.attempts, policy.maxAttempts);
  EXPECT_EQ(result.timedOutLegs, policy.maxAttempts);
  // Every attempt waits out the timeout; retries add jittered backoff.
  EXPECT_GE(result.latencyMicros,
            static_cast<double>(policy.maxAttempts) * policy.timeoutMicros);
  EXPECT_GT(result.wastedCpuMicros, 0.0);

  const auto& counters = channel_.faultCounters();
  EXPECT_EQ(counters.retries, policy.maxAttempts - 1);
  EXPECT_EQ(counters.timeouts, policy.maxAttempts);
  EXPECT_EQ(counters.failedCalls, 1u);
  EXPECT_DOUBLE_EQ(counters.wastedCpuMicros, result.wastedCpuMicros);
}

TEST_F(FaultChannelTest, FailedLegsStillChargeTheClient) {
  channel_.enableFaults(7);
  server_.setUp(false);
  channel_.callWithPolicy(client_, server_, 128, 4096, rpc::CallPolicy{});
  // Retries are a cost: the client marshalled and framed every attempt...
  EXPECT_GT(client_.cpu().totalMicros(), 0.0);
  // ...while the dead server never did any work.
  EXPECT_DOUBLE_EQ(server_.cpu().totalMicros(), 0.0);
}

TEST_F(FaultChannelTest, HappyPathUnderFaultsMatchesDirectAccounting) {
  sim::NetworkModel cleanNetwork;
  rpc::Channel clean(cleanNetwork, rpc::SerializationModel{});
  sim::Node refClient("client", sim::TierKind::kAppServer);
  sim::Node refServer("server", sim::TierKind::kRemoteCache);

  channel_.enableFaults(7);
  const auto faulted = channel_.call(client_, server_, 256, 8192);
  const auto direct = clean.call(refClient, refServer, 256, 8192);

  ASSERT_TRUE(faulted.ok);
  EXPECT_DOUBLE_EQ(faulted.latencyMicros, direct.latencyMicros);
  for (std::size_t c = 0; c < sim::kNumCpuComponents; ++c) {
    const auto component = static_cast<sim::CpuComponent>(c);
    EXPECT_DOUBLE_EQ(client_.cpu().micros(component),
                     refClient.cpu().micros(component));
    EXPECT_DOUBLE_EQ(server_.cpu().micros(component),
                     refServer.cpu().micros(component));
  }
  EXPECT_EQ(channel_.faultCounters().timeouts, 0u);
  EXPECT_EQ(channel_.faultCounters().retries, 0u);
}

TEST_F(FaultChannelTest, CertainDropFailsDespiteHealthyServer) {
  channel_.enableFaults(7);
  network_.setDegradation(1.0, 1.0);  // every leg lost
  const auto result = channel_.call(client_, server_, 128, 1024);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(channel_.faultCounters().failedCalls, 1u);
  EXPECT_DOUBLE_EQ(server_.cpu().totalMicros(), 0.0);
}

TEST_F(FaultChannelTest, DegradationWindowScalesLatencyAndClears) {
  const double clean =
      channel_.call(client_, server_, 128, 4096).latencyMicros;
  network_.setDegradation(2.0, 0.0);
  EXPECT_TRUE(network_.degraded());
  const double degraded =
      channel_.call(client_, server_, 128, 4096).latencyMicros;
  EXPECT_DOUBLE_EQ(degraded, 2.0 * clean);
  network_.clearDegradation();
  EXPECT_FALSE(network_.degraded());
  EXPECT_DOUBLE_EQ(channel_.call(client_, server_, 128, 4096).latencyMicros,
                   clean);
}

TEST_F(FaultChannelTest, SeededDropSequenceIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    sim::NetworkModel network;
    rpc::Channel channel(network, rpc::SerializationModel{});
    sim::Node client("client", sim::TierKind::kAppServer);
    sim::Node server("server", sim::TierKind::kRemoteCache);
    channel.enableFaults(seed);
    network.setDegradation(1.5, 0.3);
    double latency = 0.0;
    for (int i = 0; i < 200; ++i) {
      latency += channel.call(client, server, 64, 512).latencyMicros;
    }
    return std::pair<double, rpc::Channel::FaultCounters>(
        latency, channel.faultCounters());
  };
  const auto [latencyA, countersA] = run(42);
  const auto [latencyB, countersB] = run(42);
  const auto [latencyC, countersC] = run(43);
  EXPECT_DOUBLE_EQ(latencyA, latencyB);
  EXPECT_EQ(countersA.timeouts, countersB.timeouts);
  EXPECT_EQ(countersA.retries, countersB.retries);
  EXPECT_DOUBLE_EQ(countersA.wastedCpuMicros, countersB.wastedCpuMicros);
  // A different seed rolls different drops (overwhelmingly likely at 30%).
  EXPECT_NE(countersA.timeouts, countersC.timeouts);
}

// ------------------------------------------------------- deployment faults

workload::SyntheticConfig smallWorkload() {
  workload::SyntheticConfig config;
  config.numKeys = 2000;
  config.valueSize = 1024;
  config.readRatio = 0.95;
  return config;
}

/// Drive `ops` operations, advancing the sim clock 10us per op from
/// `startMicros`. Returns the clock after the last op.
std::uint64_t drive(core::Deployment& deployment,
                    workload::SyntheticWorkload& workload, std::uint64_t ops,
                    std::uint64_t startMicros) {
  constexpr std::uint64_t kMicrosPerOp = 10;
  for (std::uint64_t i = 0; i < ops; ++i) {
    deployment.setSimTimeMicros(startMicros + i * kMicrosPerOp);
    deployment.serve(workload.next());
  }
  return startMicros + ops * kMicrosPerOp;
}

TEST(DeploymentFaults, EmptyScheduleIsBehaviorIdenticalToNoSchedule) {
  core::DeploymentConfig config;
  config.architecture = core::Architecture::kLinked;

  core::Deployment plain(config);
  core::Deployment faulted(config);
  workload::SyntheticWorkload workloadA{smallWorkload()};
  workload::SyntheticWorkload workloadB{smallWorkload()};
  plain.populateKv(workloadA);
  faulted.populateKv(workloadB);
  faulted.installFaultSchedule(sim::FaultSchedule{});
  ASSERT_TRUE(faulted.faultsInstalled());

  drive(plain, workloadA, 5000, 0);
  drive(faulted, workloadB, 5000, 0);

  EXPECT_EQ(plain.counters().cacheHits, faulted.counters().cacheHits);
  EXPECT_EQ(plain.counters().cacheMisses, faulted.counters().cacheMisses);
  EXPECT_DOUBLE_EQ(plain.latencies().mean(), faulted.latencies().mean());
  const auto plainTiers = plain.tiers();
  const auto faultedTiers = faulted.tiers();
  ASSERT_EQ(plainTiers.size(), faultedTiers.size());
  for (std::size_t t = 0; t < plainTiers.size(); ++t) {
    EXPECT_DOUBLE_EQ(plainTiers[t]->aggregateCpu().totalMicros(),
                     faultedTiers[t]->aggregateCpu().totalMicros())
        << plainTiers[t]->name();
  }
  // No fault-path accounting leaked in.
  EXPECT_EQ(faulted.counters().retries, 0u);
  EXPECT_EQ(faulted.counters().timeouts, 0u);
  EXPECT_EQ(faulted.counters().degradedReads, 0u);
  EXPECT_DOUBLE_EQ(faulted.counters().wastedCpuMicros, 0.0);
}

TEST(DeploymentFaults, LinkedCrashShedsOwnershipAndHitRatio) {
  core::DeploymentConfig config;
  config.architecture = core::Architecture::kLinked;
  core::Deployment deployment(config);
  workload::SyntheticWorkload workload{smallWorkload()};
  deployment.populateKv(workload);

  std::uint64_t now = drive(deployment, workload, 8000, 0);  // warm
  deployment.clearMeters();
  now = drive(deployment, workload, 1500, now);
  const double steadyHitRatio = deployment.counters().hitRatio();
  EXPECT_GT(steadyHitRatio, 0.8);

  sim::FaultSchedule schedule;
  schedule.crashNode(now, sim::TierKind::kAppServer, 0);
  deployment.installFaultSchedule(std::move(schedule));
  const std::uint64_t epochBefore = deployment.ownershipEpoch();

  deployment.clearMeters();
  now = drive(deployment, workload, 1500, now);

  // The ring resharded: node 0 lost its shard, the epoch and its lease
  // fencing epoch bumped, and ~1/N of the working set went cold.
  EXPECT_FALSE(deployment.linkedCache()->shards().isMember(0));
  EXPECT_GT(deployment.ownershipEpoch(), epochBefore);
  ASSERT_NE(deployment.leases(), nullptr);
  EXPECT_GE(deployment.leases()->epoch(0), 2u);
  // The dead node owned ~1/N of the ring; its share of the working set
  // re-misses in the window right after the crash.
  const double crashHitRatio = deployment.counters().hitRatio();
  EXPECT_LT(crashHitRatio, steadyHitRatio - 0.03);

  // Routing never targets the dead node: it does no work at all.
  EXPECT_DOUBLE_EQ(deployment.appTier().node(0).cpu().totalMicros(), 0.0);
  EXPECT_EQ(deployment.appTier().upCount(), deployment.appTier().size() - 1);
}

TEST(DeploymentFaults, LinkedRestartRestoresOwnershipCold) {
  core::DeploymentConfig config;
  config.architecture = core::Architecture::kLinked;
  core::Deployment deployment(config);
  workload::SyntheticWorkload workload{smallWorkload()};
  deployment.populateKv(workload);

  std::uint64_t now = drive(deployment, workload, 6000, 0);
  sim::FaultSchedule schedule;
  schedule.crashWindow(now, now + 50000, sim::TierKind::kAppServer, 0);
  deployment.installFaultSchedule(std::move(schedule));

  now = drive(deployment, workload, 3000, now);  // down period (30ms)
  ASSERT_FALSE(deployment.linkedCache()->shards().isMember(0));

  deployment.setSimTimeMicros(now + 20000);  // restart event fires
  EXPECT_TRUE(deployment.linkedCache()->shards().isMember(0));
  EXPECT_TRUE(deployment.appTier().node(0).isUp());
  // Cold restart: the shard comes back empty and re-warms from traffic.
  EXPECT_EQ(deployment.linkedCache()->shards().shard(0).itemCount(), 0u);
  deployment.clearMeters();
  drive(deployment, workload, 8000, now + 20000);
  EXPECT_GT(deployment.linkedCache()->shards().shard(0).itemCount(), 0u);
  EXPECT_GT(deployment.counters().hitRatio(), 0.5);
}

TEST(DeploymentFaults, RemoteCrashDegradesReadsToStorage) {
  core::DeploymentConfig config;
  config.architecture = core::Architecture::kRemote;
  core::Deployment deployment(config);
  workload::SyntheticWorkload workload{smallWorkload()};
  deployment.populateKv(workload);

  std::uint64_t now = drive(deployment, workload, 6000, 0);
  deployment.clearMeters();
  now = drive(deployment, workload, 3000, now);
  const double steadyHitRatio = deployment.counters().hitRatio();
  const std::uint64_t steadyReads = deployment.counters().storageReads;

  sim::FaultSchedule schedule;
  schedule.crashNode(now, sim::TierKind::kRemoteCache, 0);
  deployment.installFaultSchedule(std::move(schedule));
  deployment.clearMeters();
  drive(deployment, workload, 3000, now);

  const core::ServeCounters& counters = deployment.counters();
  // Reads for the dead pod's keys fail fast and fall back to storage —
  // availability survives, the cost moves to the database tier.
  EXPECT_GT(counters.degradedReads, 0u);
  EXPECT_GT(counters.failedCalls, 0u);
  EXPECT_GT(counters.timeouts, 0u);
  EXPECT_GT(counters.wastedCpuMicros, 0.0);
  EXPECT_LT(counters.hitRatio(), steadyHitRatio);
  EXPECT_GT(counters.storageReads, steadyReads);
}

TEST(DeploymentFaults, SingleFlightCoalescesConcurrentMisses) {
  core::DeploymentConfig config;
  config.architecture = core::Architecture::kRemote;
  core::Deployment deployment(config);
  workload::SyntheticWorkload workload{smallWorkload()};
  deployment.populateKv(workload);

  sim::FaultSchedule schedule;
  schedule.crashNode(0, sim::TierKind::kRemoteCache, 0);
  deployment.installFaultSchedule(std::move(schedule));
  deployment.setSimTimeMicros(1);

  // Find a key owned by the dead pod: its fills are skipped (circuit
  // breaker), so every read misses and hits the storage path.
  std::uint64_t victim = 0;
  const cache::ShardedTier& pods = deployment.remoteCache()->shards();
  while (pods.nodeUp(pods.ownerOf(workload::keyName(victim)))) {
    ++victim;
  }
  workload::Op op;
  op.keyIndex = victim;
  op.valueSize = 1024;

  // Burst of reads for the same key at the same instant: the first issues
  // the storage read, the rest join it.
  deployment.serve(op);
  const std::uint64_t readsAfterFirst = deployment.counters().storageReads;
  for (int i = 0; i < 9; ++i) deployment.serve(op);
  EXPECT_EQ(deployment.counters().coalescedMisses, 9u);
  EXPECT_EQ(deployment.counters().storageReads, readsAfterFirst);

  // Once the in-flight read completes, the next miss issues its own.
  deployment.setSimTimeMicros(10'000'000);
  deployment.serve(op);
  EXPECT_EQ(deployment.counters().storageReads, readsAfterFirst + 1);
}

TEST(DeploymentFaults, KvCrashOnlyColdsTheBlockCache) {
  core::DeploymentConfig config;
  config.architecture = core::Architecture::kBase;
  core::Deployment deployment(config);
  workload::SyntheticWorkload workload{smallWorkload()};
  deployment.populateKv(workload);

  std::uint64_t now = drive(deployment, workload, 6000, 0);
  const std::uint64_t missesBefore = deployment.db().blockCacheMisses();

  sim::FaultSchedule schedule;
  schedule.crashNode(now, sim::TierKind::kKvStorage, 0);
  deployment.installFaultSchedule(std::move(schedule));
  drive(deployment, workload, 3000, now);

  // Raft failover keeps every node serving; the only scar is a cold block
  // cache paying the disk path until it re-warms.
  const auto tiers = deployment.tiers();
  const sim::Tier* kvTier = tiers.back();
  EXPECT_EQ(kvTier->upCount(), kvTier->size());
  EXPECT_GT(deployment.db().blockCacheMisses(), missesBefore);
}

TEST(DeploymentFaults, TierOutageKeepsShardContentsWarm) {
  core::DeploymentConfig config;
  config.architecture = core::Architecture::kRemote;
  core::Deployment deployment(config);
  workload::SyntheticWorkload workload{smallWorkload()};
  deployment.populateKv(workload);

  std::uint64_t now = drive(deployment, workload, 6000, 0);
  sim::FaultSchedule schedule;
  schedule.tierOutage(now, now + 10000, sim::TierKind::kRemoteCache);
  deployment.installFaultSchedule(std::move(schedule));

  deployment.clearMeters();
  now = drive(deployment, workload, 1000, now);  // during the outage
  EXPECT_GT(deployment.counters().degradedReads, 0u);
  EXPECT_DOUBLE_EQ(deployment.counters().hitRatio(), 0.0);

  // Unreachable is not dead: the partition heals and the caches are still
  // warm — hit ratio snaps back without a re-warm period.
  deployment.setSimTimeMicros(now + 20000);
  deployment.clearMeters();
  drive(deployment, workload, 2000, now + 20000);
  EXPECT_GT(deployment.counters().hitRatio(), 0.5);
}

TEST(DeploymentFaults, InvertedSlowWindowLeavesNodeAtNeutralSpeed) {
  core::DeploymentConfig config;
  config.architecture = core::Architecture::kLinked;
  core::Deployment deployment(config);
  workload::SyntheticWorkload workload{smallWorkload()};
  deployment.populateKv(workload);

  sim::FaultSchedule schedule;
  schedule.slowNode(5000, 1000, sim::TierKind::kAppServer, 0, 10.0);
  deployment.installFaultSchedule(std::move(schedule));

  deployment.setSimTimeMicros(6000);  // both events fired, in clamp order
  EXPECT_DOUBLE_EQ(deployment.appTier().node(0).slowFactor(), 1.0);
}

TEST(DeploymentFaults, IdenticalSeedsReplayIdenticalTimelines) {
  auto run = [](std::uint64_t faultSeed) {
    core::DeploymentConfig config;
    config.architecture = core::Architecture::kRemote;
    config.faultSeed = faultSeed;
    core::Deployment deployment(config);
    workload::SyntheticWorkload workload{smallWorkload()};
    deployment.populateKv(workload);
    std::uint64_t now = drive(deployment, workload, 3000, 0);
    sim::FaultSchedule schedule;
    schedule.degradeNetwork(now, now + 30000, 2.0, 0.05);
    schedule.crashNode(now + 5000, sim::TierKind::kRemoteCache, 1);
    deployment.installFaultSchedule(std::move(schedule));
    drive(deployment, workload, 5000, now);
    return deployment.counters();
  };
  const core::ServeCounters a = run(99);
  const core::ServeCounters b = run(99);
  EXPECT_EQ(a.cacheHits, b.cacheHits);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.failedCalls, b.failedCalls);
  EXPECT_EQ(a.degradedReads, b.degradedReads);
  EXPECT_DOUBLE_EQ(a.wastedCpuMicros, b.wastedCpuMicros);
}

}  // namespace
}  // namespace dcache
