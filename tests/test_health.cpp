// Gray-failure detection and survival tests: the HealthMonitor's
// phi-accrual-style suspicion accounting (failure- and outlier-driven
// ejection, probing re-admission, the per-tier quorum guard), its wiring
// into the RPC channel as a CallObserver, and the deployment-level loop —
// a slow/flaky node gets ejected, reads fall back to replicas, and the
// whole timeline replays byte-for-byte from the same seed.
#include <gtest/gtest.h>

#include "core/deployment.hpp"
#include "core/health.hpp"
#include "rpc/channel.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "workload/synthetic.hpp"
#include "workload/uc_trace.hpp"

namespace dcache {
namespace {

// ------------------------------------------------------------ monitor unit

core::HealthPolicy testPolicy() {
  core::HealthPolicy policy;
  policy.enabled = true;
  return policy;
}

class HealthMonitorTest : public ::testing::Test {
 protected:
  HealthMonitorTest() : monitor_(testPolicy()) {
    nodes_.reserve(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      nodes_.emplace_back("cache", sim::TierKind::kRemoteCache);
      monitor_.registerNode(nodes_[i], sim::TierKind::kRemoteCache, i);
    }
  }

  /// Feed `count` ok calls at `latency` to node `i` (clock unused by the
  /// non-probe path).
  void okCalls(std::size_t i, int count, double latency) {
    for (int c = 0; c < count; ++c) {
      monitor_.onCallOutcome(nodes_[i], true, latency, 0);
    }
  }

  static constexpr std::size_t kNodes = 4;
  core::HealthMonitor monitor_;
  std::vector<sim::Node> nodes_;
};

TEST_F(HealthMonitorTest, ConsecutiveFailuresEject) {
  const auto toEject =
      static_cast<int>(monitor_.policy().suspicionToEject /
                       monitor_.policy().failureSuspicion);
  for (int c = 0; c < toEject - 1; ++c) {
    monitor_.onCallOutcome(nodes_[0], false, 0.0, 100);
  }
  EXPECT_FALSE(monitor_.ejected(sim::TierKind::kRemoteCache, 0));
  monitor_.onCallOutcome(nodes_[0], false, 0.0, 100);
  EXPECT_TRUE(monitor_.ejected(sim::TierKind::kRemoteCache, 0));
  ASSERT_EQ(monitor_.totalEjections(), 1u);
  EXPECT_EQ(monitor_.ejections()[0].index, 0u);
  EXPECT_EQ(monitor_.ejections()[0].atMicros, 100u);
}

TEST_F(HealthMonitorTest, LatencyOutlierEjectsWithoutASingleFailure) {
  // Three healthy peers at ~50us establish the tier reference...
  for (std::size_t i = 1; i < kNodes; ++i) okCalls(i, 20, 50.0);
  EXPECT_NEAR(monitor_.tierReferenceLatency(sim::TierKind::kRemoteCache),
              50.0, 1.0);
  // ...and a node answering 10x slower — every call succeeding — accrues
  // outlier suspicion until it is ejected. This is the signal circuit
  // breakers never see.
  int calls = 0;
  while (!monitor_.ejected(sim::TierKind::kRemoteCache, 0) && calls < 200) {
    monitor_.onCallOutcome(nodes_[0], true, 500.0, 0);
    ++calls;
  }
  EXPECT_TRUE(monitor_.ejected(sim::TierKind::kRemoteCache, 0));
  // It took minSamples to qualify plus suspicionToEject outlier hits.
  EXPECT_GE(calls, static_cast<int>(monitor_.policy().minSamples));
}

TEST_F(HealthMonitorTest, HealthyCallsDecaySuspicion) {
  okCalls(1, 20, 50.0);
  okCalls(2, 20, 50.0);
  monitor_.onCallOutcome(nodes_[0], false, 0.0, 0);
  monitor_.onCallOutcome(nodes_[0], false, 0.0, 0);
  const double accrued = monitor_.suspicion(sim::TierKind::kRemoteCache, 0);
  EXPECT_DOUBLE_EQ(accrued, 2.0 * monitor_.policy().failureSuspicion);
  okCalls(0, 20, 50.0);
  // A burst of clean calls walks the score back down (never below zero).
  EXPECT_LT(monitor_.suspicion(sim::TierKind::kRemoteCache, 0), accrued);
  okCalls(0, 100, 50.0);
  EXPECT_DOUBLE_EQ(monitor_.suspicion(sim::TierKind::kRemoteCache, 0), 0.0);
}

TEST_F(HealthMonitorTest, EjectionQuotaProtectsTheQuorum) {
  // Every node failing at once is a tier-wide event (outage, overload),
  // not a bad apple: the quota stops ejection at maxEjectedPerTier.
  for (std::size_t i = 0; i < kNodes; ++i) {
    for (int c = 0; c < 20; ++c) {
      monitor_.onCallOutcome(nodes_[i], false, 0.0, 0);
    }
  }
  EXPECT_EQ(monitor_.currentlyEjected(sim::TierKind::kRemoteCache),
            monitor_.policy().maxEjectedPerTier);
  EXPECT_EQ(monitor_.totalEjections(), monitor_.policy().maxEjectedPerTier);
}

TEST_F(HealthMonitorTest, ProbeCadenceAndCleanProbesReadmit) {
  for (int c = 0; c < 6; ++c) monitor_.onCallOutcome(nodes_[0], false, 0.0, 0);
  ASSERT_TRUE(monitor_.ejected(sim::TierKind::kRemoteCache, 0));
  const auto interval =
      static_cast<std::uint64_t>(monitor_.policy().probeIntervalMicros);

  // Healthy nodes always pass the routing gate; the ejected node admits
  // exactly one probe per interval.
  EXPECT_TRUE(monitor_.allowRequest(sim::TierKind::kRemoteCache, 1, 0));
  EXPECT_FALSE(monitor_.allowRequest(sim::TierKind::kRemoteCache, 0,
                                     interval - 1));
  EXPECT_TRUE(monitor_.allowRequest(sim::TierKind::kRemoteCache, 0, interval));
  EXPECT_FALSE(monitor_.allowRequest(sim::TierKind::kRemoteCache, 0,
                                     interval + 1));
  EXPECT_EQ(monitor_.probesGranted(), 1u);

  // Clean probes re-admit after reAdmitProbes in a row.
  std::uint64_t now = interval;
  for (std::size_t p = 0; p < monitor_.policy().reAdmitProbes; ++p) {
    monitor_.onCallOutcome(nodes_[0], true, 50.0, now);
    now += interval;
  }
  EXPECT_FALSE(monitor_.ejected(sim::TierKind::kRemoteCache, 0));
  EXPECT_EQ(monitor_.readmissions(), 1u);
  EXPECT_EQ(monitor_.currentlyEjected(sim::TierKind::kRemoteCache), 0u);
}

TEST_F(HealthMonitorTest, SlowProbesDoNotReadmit) {
  // Peers at 50us set the reference; the ejected node's probes *succeed*
  // but crawl — a probe that comes home slow is not evidence of recovery.
  for (std::size_t i = 1; i < kNodes; ++i) okCalls(i, 20, 50.0);
  for (int c = 0; c < 6; ++c) monitor_.onCallOutcome(nodes_[0], false, 0.0, 0);
  ASSERT_TRUE(monitor_.ejected(sim::TierKind::kRemoteCache, 0));
  for (int p = 0; p < 10; ++p) {
    monitor_.onCallOutcome(nodes_[0], true, 500.0, 0);
  }
  EXPECT_TRUE(monitor_.ejected(sim::TierKind::kRemoteCache, 0));
  EXPECT_EQ(monitor_.readmissions(), 0u);
}

TEST_F(HealthMonitorTest, ReadmissionCarriesHysteresis) {
  for (int c = 0; c < 6; ++c) monitor_.onCallOutcome(nodes_[0], false, 0.0, 0);
  for (std::size_t p = 0; p < monitor_.policy().reAdmitProbes; ++p) {
    monitor_.onCallOutcome(nodes_[0], true, 50.0, 0);
  }
  ASSERT_FALSE(monitor_.ejected(sim::TierKind::kRemoteCache, 0));
  // A readmitted node re-enters half-way to the threshold: if it is still
  // sick (flapping), a couple of fresh failures re-eject it instead of a
  // full window's worth of damage.
  EXPECT_DOUBLE_EQ(monitor_.suspicion(sim::TierKind::kRemoteCache, 0),
                   0.5 * monitor_.policy().suspicionToEject);
  monitor_.onCallOutcome(nodes_[0], false, 0.0, 0);
  monitor_.onCallOutcome(nodes_[0], false, 0.0, 0);
  monitor_.onCallOutcome(nodes_[0], false, 0.0, 0);
  EXPECT_TRUE(monitor_.ejected(sim::TierKind::kRemoteCache, 0));
  EXPECT_EQ(monitor_.totalEjections(), 2u);
}

TEST_F(HealthMonitorTest, ReferenceLatencyUsesLowerMedian) {
  // In a 2-qualified-node tier [healthy, slow] the reference must be the
  // healthy node, or the slow one could never read as an outlier.
  okCalls(0, 20, 50.0);
  okCalls(1, 20, 500.0);
  EXPECT_NEAR(monitor_.tierReferenceLatency(sim::TierKind::kRemoteCache),
              50.0, 1.0);
}

TEST_F(HealthMonitorTest, UnregisteredNodesAreIgnored) {
  sim::Node stranger("stranger", sim::TierKind::kSqlFrontend);
  for (int c = 0; c < 20; ++c) {
    monitor_.onCallOutcome(stranger, false, 0.0, 0);
  }
  EXPECT_EQ(monitor_.totalEjections(), 0u);
  EXPECT_FALSE(monitor_.ejected(sim::TierKind::kSqlFrontend, 0));
}

TEST_F(HealthMonitorTest, DeregisteredNodeDropsProbeAndEjectionState) {
  // Eject node 0, then deregister it — the planned-leave path. A departed
  // pod must not linger as a ghost: no probe cadence against it, its
  // ejection slot released, its suspicion gone.
  for (int c = 0; c < 20; ++c) monitor_.onCallOutcome(nodes_[0], false, 0.0, 0);
  ASSERT_TRUE(monitor_.ejected(sim::TierKind::kRemoteCache, 0));
  ASSERT_EQ(monitor_.currentlyEjected(sim::TierKind::kRemoteCache), 1u);

  monitor_.deregisterNode(nodes_[0], sim::TierKind::kRemoteCache, 0);
  EXPECT_FALSE(monitor_.ejected(sim::TierKind::kRemoteCache, 0));
  EXPECT_EQ(monitor_.currentlyEjected(sim::TierKind::kRemoteCache), 0u);
  EXPECT_DOUBLE_EQ(monitor_.suspicion(sim::TierKind::kRemoteCache, 0), 0.0);

  // Straggler outcomes from in-flight calls to the departed pod are
  // ignored — the observer no longer knows the node.
  monitor_.onCallOutcome(nodes_[0], false, 0.0, 0);
  EXPECT_DOUBLE_EQ(monitor_.suspicion(sim::TierKind::kRemoteCache, 0), 0.0);

  // The released ejection slot is real: with the per-tier quota of 1 a
  // genuine bad apple can still be ejected after the planned leave.
  for (int c = 0; c < 20; ++c) monitor_.onCallOutcome(nodes_[1], false, 0.0, 0);
  EXPECT_TRUE(monitor_.ejected(sim::TierKind::kRemoteCache, 1));

  // A rejoin registers fresh state: healthy, unsuspected, routable.
  monitor_.registerNode(nodes_[0], sim::TierKind::kRemoteCache, 0);
  EXPECT_FALSE(monitor_.ejected(sim::TierKind::kRemoteCache, 0));
  EXPECT_DOUBLE_EQ(monitor_.suspicion(sim::TierKind::kRemoteCache, 0), 0.0);
  EXPECT_TRUE(monitor_.allowRequest(sim::TierKind::kRemoteCache, 0, 12345));
}

// ------------------------------------------------- channel observer wiring

TEST(HealthChannelWiring, ObserverSeesPolicyPathOutcomes) {
  sim::NetworkModel network;
  rpc::Channel channel(network, rpc::SerializationModel{});
  sim::Node client("client", sim::TierKind::kAppServer);
  sim::Node server("server", sim::TierKind::kRemoteCache);
  channel.enableFaults(7);

  core::HealthMonitor monitor(testPolicy());
  monitor.registerNode(server, sim::TierKind::kRemoteCache, 0);
  channel.setCallObserver(&monitor);

  // A dead server: every policy call is a failure the monitor counts,
  // and after enough of them the node is ejected.
  server.setUp(false);
  for (int c = 0; c < 6; ++c) {
    channel.callWithPolicy(client, server, 128, 1024, rpc::CallPolicy{});
  }
  EXPECT_TRUE(monitor.ejected(sim::TierKind::kRemoteCache, 0));
  EXPECT_EQ(monitor.totalEjections(), 1u);
}

// ------------------------------------------------- deployment-level loops

workload::SyntheticConfig smallWorkload() {
  workload::SyntheticConfig config;
  config.numKeys = 2000;
  config.valueSize = 1024;
  config.readRatio = 0.95;
  return config;
}

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

/// drive() for rich-object ops (UC catalog reads and writes).
std::uint64_t driveObjects(core::Deployment& deployment,
                           workload::UcTraceWorkload& trace, std::uint64_t ops,
                           std::uint64_t startMicros) {
  constexpr std::uint64_t kMicrosPerOp = 10;
  for (std::uint64_t i = 0; i < ops; ++i) {
    deployment.setSimTimeMicros(startMicros + i * kMicrosPerOp);
    deployment.serveObject(trace.next());
  }
  return startMicros + ops * kMicrosPerOp;
}

core::DeploymentConfig grayConfig(core::Architecture arch) {
  core::DeploymentConfig config;
  config.architecture = arch;
  config.health.enabled = true;
  return config;
}

TEST(DeploymentHealth, DisabledByDefaultAndOffMeansNoMonitor) {
  core::DeploymentConfig config;
  EXPECT_FALSE(config.health.enabled);
  EXPECT_EQ(config.cacheReplicationFactor, 1u);
  core::Deployment deployment(config);
  EXPECT_EQ(deployment.healthMonitor(), nullptr);
  EXPECT_FALSE(deployment.replicationInstalled());
}

TEST(DeploymentHealth, FlakyNodeGetsEjectedAndCounted) {
  core::DeploymentConfig config = grayConfig(core::Architecture::kRemote);
  core::Deployment deployment(config);
  workload::SyntheticWorkload workload{smallWorkload()};
  deployment.populateKv(workload);

  std::uint64_t now = drive(deployment, workload, 6000, 0);
  sim::FaultSchedule schedule;
  // Drop every leg: calls to the pod fail deterministically, so ejection
  // needs no luck. The node itself stays "up" — a gray failure.
  schedule.flakyNode(now, now + 400000, sim::TierKind::kRemoteCache, 0, 1.0);
  deployment.installFaultSchedule(std::move(schedule));
  deployment.clearMeters();
  now = drive(deployment, workload, 8000, now);

  ASSERT_NE(deployment.healthMonitor(), nullptr);
  EXPECT_GE(deployment.healthMonitor()->totalEjections(), 1u);
  EXPECT_TRUE(
      deployment.healthMonitor()->ejected(sim::TierKind::kRemoteCache, 0));
  EXPECT_TRUE(deployment.remoteCache()->shards().nodeUp(0));  // up, just lossy
  const core::ServeCounters& counters = deployment.counters();
  EXPECT_GE(counters.ejectedNodes, 1u);
  // Detection lag is measured from the fault's onset to the ejection.
  EXPECT_GT(counters.detectionLagMicros, 0.0);
}

TEST(DeploymentHealth, ReplicaFallbackKeepsServingTheEjectedPodsKeys) {
  core::DeploymentConfig config = grayConfig(core::Architecture::kRemote);
  config.cacheReplicationFactor = 2;
  core::Deployment deployment(config);
  ASSERT_TRUE(deployment.replicationInstalled());
  workload::SyntheticWorkload workload{smallWorkload()};
  deployment.populateKv(workload);

  std::uint64_t now = drive(deployment, workload, 8000, 0);
  // Fan-out writes populate both replicas from the start.
  EXPECT_GT(deployment.counters().replicaWriteFanout, 0u);

  sim::FaultSchedule schedule;
  schedule.flakyNode(now, now + 800000, sim::TierKind::kRemoteCache, 0, 1.0);
  deployment.installFaultSchedule(std::move(schedule));
  deployment.clearMeters();
  now = drive(deployment, workload, 8000, now);

  const core::ServeCounters& counters = deployment.counters();
  // Once the pod is ejected its keys are served by the next replica —
  // hits, not storage degradations.
  EXPECT_GT(counters.replicaFallbackReads, 0u);
  EXPECT_GT(counters.hitRatio(), 0.5);

  // Rich objects take the same read path, so the same posture serves the
  // ejected pod's objects from their replicas too.
  workload::UcTraceConfig catalog;
  catalog.numTables = 300;
  workload::UcTraceWorkload trace(catalog);
  core::Deployment objects(config);
  objects.populateCatalog(trace);
  now = driveObjects(objects, trace, 6000, 0);
  EXPECT_GT(objects.counters().replicaWriteFanout, 0u);
  sim::FaultSchedule objectFaults;
  objectFaults.flakyNode(now, now + 800000, sim::TierKind::kRemoteCache, 0,
                         1.0);
  objects.installFaultSchedule(std::move(objectFaults));
  objects.clearMeters();
  driveObjects(objects, trace, 6000, now);
  EXPECT_GT(objects.counters().replicaFallbackReads, 0u);
  EXPECT_GT(objects.counters().hitRatio(), 0.5);
}

TEST(DeploymentHealth, LinkedSlowNodeIsRoutedAroundViaReplicas) {
  core::DeploymentConfig config = grayConfig(core::Architecture::kLinked);
  config.cacheReplicationFactor = 2;
  core::Deployment deployment(config);
  workload::SyntheticWorkload workload{smallWorkload()};
  deployment.populateKv(workload);

  std::uint64_t now = drive(deployment, workload, 8000, 0);
  sim::FaultSchedule schedule;
  schedule.slowNode(now, now + 800000, sim::TierKind::kAppServer, 0, 50.0);
  deployment.installFaultSchedule(std::move(schedule));
  deployment.clearMeters();
  now = drive(deployment, workload, 12000, now);

  ASSERT_NE(deployment.healthMonitor(), nullptr);
  EXPECT_DOUBLE_EQ(deployment.appTier().node(0).slowFactor(), 50.0);
  EXPECT_GE(deployment.healthMonitor()->totalEjections(), 1u);
  EXPECT_GT(deployment.counters().replicaFallbackReads, 0u);

  // The window closes: the node recovers its speed and, after clean
  // probes, its traffic.
  deployment.setSimTimeMicros(now + 800000);
  EXPECT_DOUBLE_EQ(deployment.appTier().node(0).slowFactor(), 1.0);
}

TEST(DeploymentHealth, GrayTimelineReplaysByteForByte) {
  auto run = [] {
    core::DeploymentConfig config = grayConfig(core::Architecture::kRemote);
    config.cacheReplicationFactor = 2;
    core::Deployment deployment(config);
    workload::SyntheticWorkload workload{smallWorkload()};
    deployment.populateKv(workload);
    std::uint64_t now = drive(deployment, workload, 4000, 0);
    sim::FaultSchedule schedule;
    schedule.slowNode(now, now + 200000, sim::TierKind::kRemoteCache, 0,
                      10.0);
    schedule.flakyNode(now + 100000, now + 300000,
                       sim::TierKind::kRemoteCache, 1, 0.5);
    schedule.partialPartition(now + 150000, now + 250000,
                              sim::TierKind::kAppServer,
                              sim::TierKind::kRemoteCache);
    deployment.installFaultSchedule(std::move(schedule));
    drive(deployment, workload, 10000, now);
    return deployment.counters();
  };
  const core::ServeCounters a = run();
  const core::ServeCounters b = run();
  EXPECT_EQ(a.cacheHits, b.cacheHits);
  EXPECT_EQ(a.ejectedNodes, b.ejectedNodes);
  EXPECT_EQ(a.replicaFallbackReads, b.replicaFallbackReads);
  EXPECT_EQ(a.staleReplicaReads, b.staleReplicaReads);
  EXPECT_EQ(a.replicaWriteFanout, b.replicaWriteFanout);
  EXPECT_EQ(a.failedCalls, b.failedCalls);
  EXPECT_EQ(a.degradedReads, b.degradedReads);
  EXPECT_DOUBLE_EQ(a.detectionLagMicros, b.detectionLagMicros);
  EXPECT_DOUBLE_EQ(a.wastedCpuMicros, b.wastedCpuMicros);
}

TEST(DeploymentHealth, PartialPartitionIsAsymmetric) {
  core::DeploymentConfig config;
  config.architecture = core::Architecture::kRemote;
  core::Deployment deployment(config);
  workload::SyntheticWorkload workload{smallWorkload()};
  deployment.populateKv(workload);

  std::uint64_t now = drive(deployment, workload, 4000, 0);
  deployment.clearMeters();
  const std::uint64_t degradedBefore = deployment.counters().degradedReads;

  sim::FaultSchedule schedule;
  schedule.partialPartition(now, now + 100000, sim::TierKind::kAppServer,
                            sim::TierKind::kRemoteCache);
  deployment.installFaultSchedule(std::move(schedule));
  now = drive(deployment, workload, 2000, now);
  // Requests toward the cache are lost: reads degrade to storage.
  EXPECT_GT(deployment.counters().degradedReads, degradedBefore);

  // The cut heals; the caches were unreachable, not dead.
  deployment.setSimTimeMicros(now + 200000);
  deployment.clearMeters();
  drive(deployment, workload, 3000, now + 200000);
  EXPECT_GT(deployment.counters().hitRatio(), 0.5);
}

}  // namespace
}  // namespace dcache
