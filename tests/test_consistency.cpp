// Consistency machinery tests: ownership leases, invalidation bus, the
// Fig. 8 delayed-write scenario, and the linearizability checker. The
// version check itself is Deployment::versionCurrent (test_deployment).
#include <gtest/gtest.h>

#include "consistency/delayed_write.hpp"
#include "consistency/invalidation.hpp"
#include "consistency/lease.hpp"
#include "consistency/linearizability.hpp"
#include "rpc/channel.hpp"
#include "sim/tier.hpp"

namespace dcache::consistency {
namespace {

class ConsistencyTest : public ::testing::Test {
 protected:
  ConsistencyTest()
      : kvTier_("kv", sim::TierKind::kKvStorage, 3),
        appTier_("app", sim::TierKind::kAppServer, 3),
        channel_(network_, rpc::SerializationModel{}) {}

  sim::NetworkModel network_;
  sim::Tier kvTier_;
  sim::Tier appTier_;
  rpc::Channel channel_;
};

TEST_F(ConsistencyTest, LeaseLifecycle) {
  LeaseConfig config;
  config.leaseTermMicros = 1000;
  LeaseManager leases(appTier_, kvTier_.node(0), channel_, config);

  // No lease yet: cannot serve.
  EXPECT_FALSE(leases.canServeLocally(0, 0));
  leases.renew(0, 0);
  EXPECT_EQ(leases.renewals(), 1u);
  EXPECT_TRUE(leases.canServeLocally(0, 500));
  // Expired.
  EXPECT_FALSE(leases.canServeLocally(0, 1000));
  // Renew-at-half-term: a renewal right after acquiring is a no-op.
  leases.renew(0, 1100);
  EXPECT_EQ(leases.renewals(), 2u);
  leases.renew(0, 1101);
  EXPECT_EQ(leases.renewals(), 2u);  // still fresh, skipped
}

TEST_F(ConsistencyTest, LeaseRevocationBumpsEpoch) {
  LeaseManager leases(appTier_, kvTier_.node(0), channel_);
  leases.renew(1, 0);
  const auto epoch = leases.epoch(1);
  EXPECT_TRUE(leases.canServeLocally(1, 10));
  leases.revoke(1);
  EXPECT_FALSE(leases.canServeLocally(1, 10));
  EXPECT_GT(leases.epoch(1), epoch);
  // Re-acquisition starts yet another epoch.
  leases.renew(1, 20);
  EXPECT_GT(leases.epoch(1), epoch + 1);
  EXPECT_TRUE(leases.canServeLocally(1, 30));
}

TEST_F(ConsistencyTest, LeaseRenewalChargesRpcNotReads) {
  LeaseManager leases(appTier_, kvTier_.node(0), channel_);
  leases.renew(0, 0);
  const double afterRenew = appTier_.node(0).cpu().totalMicros();
  EXPECT_GT(afterRenew, 0.0);  // one RPC to the authority
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(leases.canServeLocally(0, 100));
  }
  // 1000 local checks cost far less than one more renewal RPC would.
  const double checksCpu = appTier_.node(0).cpu().totalMicros() - afterRenew;
  EXPECT_LT(checksCpu, afterRenew * 10);
  EXPECT_EQ(leases.localChecks(), 1000u);
}

TEST_F(ConsistencyTest, InvalidationBusDeliversToAllButWriter) {
  InvalidationBus bus(channel_);
  std::vector<int> delivered(3, 0);
  for (std::size_t i = 0; i < 3; ++i) {
    bus.subscribe(appTier_.node(i), [&delivered, i](std::string_view,
                                                    std::uint64_t) {
      ++delivered[i];
    });
  }
  bus.publish(appTier_.node(0), "k", 5, /*skipSubscriber=*/0);
  EXPECT_EQ(delivered, (std::vector<int>{0, 1, 1}));
  EXPECT_EQ(bus.published(), 1u);
  EXPECT_EQ(bus.delivered(), 2u);
}

TEST_F(ConsistencyTest, InvalidationPublishToOneOwner) {
  InvalidationBus bus(channel_);
  int hits = 0;
  std::uint64_t seenVersion = 0;
  bus.subscribe(appTier_.node(0), [&](std::string_view key, std::uint64_t v) {
    ++hits;
    seenVersion = v;
    EXPECT_EQ(key, "the-key");
  });
  bus.subscribe(appTier_.node(1),
                [&](std::string_view, std::uint64_t) { ++hits; });
  bus.publishTo(0, appTier_.node(2), "the-key", 42);
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(seenVersion, 42u);
}

TEST(DelayedWrite, AnomalyWithoutFencing) {
  DelayedWriteConfig config;  // write lands after the reshard + warm read
  config.epochFencing = false;
  const auto outcome = runDelayedWriteScenario(config);
  EXPECT_TRUE(outcome.anomaly);
  EXPECT_EQ(outcome.cacheVersion, 1u);    // new owner warmed the old value
  EXPECT_EQ(outcome.storageVersion, 2u);  // delayed write landed afterwards
  EXPECT_FALSE(outcome.writeRejected);
  EXPECT_NE(outcome.history.find("ANOMALY"), std::string::npos);
}

TEST(DelayedWrite, EpochFencingPreventsAnomaly) {
  DelayedWriteConfig config;
  config.epochFencing = true;
  const auto outcome = runDelayedWriteScenario(config);
  EXPECT_FALSE(outcome.anomaly);
  EXPECT_TRUE(outcome.writeRejected);
  EXPECT_EQ(outcome.cacheVersion, outcome.storageVersion);
}

TEST(DelayedWrite, NoAnomalyWhenWriteLandsFirst) {
  DelayedWriteConfig config;
  config.writeDelayMicros = 100;   // write commits before the reshard
  config.reshardAtMicros = 2000;
  config.warmReadAtMicros = 3000;
  config.epochFencing = false;
  const auto outcome = runDelayedWriteScenario(config);
  EXPECT_FALSE(outcome.anomaly);
  EXPECT_EQ(outcome.cacheVersion, 2u);  // warmed the new value
}

TEST(DelayedWrite, SweepRatesMatchTheFix) {
  util::Pcg32 rng(55, 1);
  const double unfenced = delayedWriteAnomalyRate(400, false, rng);
  util::Pcg32 rng2(55, 1);
  const double fenced = delayedWriteAnomalyRate(400, true, rng2);
  EXPECT_GT(unfenced, 0.1);  // the race is common under random timing
  EXPECT_DOUBLE_EQ(fenced, 0.0);
}

// ---- Fault-injected reshard (crash-driven Fig. 8) ----

TEST(FaultInjectedReshard, LeaseRevocationFencesStaleWrite) {
  FaultInjectedReshardConfig config;  // crash at 2ms, write lands at 5ms
  ASSERT_TRUE(config.epochFencing);
  const auto outcome = runFaultInjectedReshardScenario(config);
  // The injected crash revoked the owner's lease before the delayed write
  // landed: storage fenced it on the bumped epoch.
  EXPECT_TRUE(outcome.writeRejected);
  EXPECT_FALSE(outcome.anomaly);
  EXPECT_EQ(outcome.cacheVersion, outcome.storageVersion);
  EXPECT_NE(outcome.history.find("REJECTED"), std::string::npos);
  EXPECT_NE(outcome.history.find("fault: node 0 crashed"),
            std::string::npos);
}

TEST(FaultInjectedReshard, WithoutFencingTheCrashReproducesTheAnomaly) {
  FaultInjectedReshardConfig config;
  config.epochFencing = false;
  const auto outcome = runFaultInjectedReshardScenario(config);
  EXPECT_TRUE(outcome.anomaly);
  EXPECT_FALSE(outcome.writeRejected);
  EXPECT_EQ(outcome.cacheVersion, 1u);    // successor warmed the old value
  EXPECT_EQ(outcome.storageVersion, 2u);  // stale write landed anyway
}

TEST(FaultInjectedReshard, WriteBeforeCrashIsNotFenced) {
  FaultInjectedReshardConfig config;
  config.writeDelayMicros = 100;  // commits before the crash revokes
  config.crashAtMicros = 2000;
  config.warmReadAtMicros = 3000;
  const auto outcome = runFaultInjectedReshardScenario(config);
  EXPECT_FALSE(outcome.writeRejected);
  EXPECT_FALSE(outcome.anomaly);
  EXPECT_EQ(outcome.cacheVersion, 2u);  // successor warmed the new value
}

// ---- Linearizability checker ----

TEST(Linearizability, AcceptsSequentialHistory) {
  History history;
  history.record({HistoryOpType::kWrite, "k", 1, 0, 10, 0});
  history.record({HistoryOpType::kRead, "k", 1, 20, 30, 0});
  history.record({HistoryOpType::kWrite, "k", 2, 40, 50, 1});
  history.record({HistoryOpType::kRead, "k", 2, 60, 70, 0});
  EXPECT_TRUE(isLinearizable(history));
}

TEST(Linearizability, DetectsStaleRead) {
  History history;
  history.record({HistoryOpType::kWrite, "k", 1, 0, 10, 0});
  history.record({HistoryOpType::kWrite, "k", 2, 20, 30, 0});
  // Read begins after write v2 completed but returns v1.
  history.record({HistoryOpType::kRead, "k", 1, 40, 50, 1});
  const auto violations = checkLinearizable(history);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].reason.find("stale read"), std::string::npos);
}

TEST(Linearizability, AllowsEitherValueDuringConcurrentWrite) {
  History history;
  history.record({HistoryOpType::kWrite, "k", 1, 0, 10, 0});
  history.record({HistoryOpType::kWrite, "k", 2, 20, 60, 0});  // in flight
  history.record({HistoryOpType::kRead, "k", 1, 30, 40, 1});   // old ok
  history.record({HistoryOpType::kRead, "k", 2, 45, 55, 2});   // new ok
  EXPECT_TRUE(isLinearizable(history));
}

TEST(Linearizability, DetectsReadFromTheFuture) {
  History history;
  history.record({HistoryOpType::kWrite, "k", 1, 0, 10, 0});
  history.record({HistoryOpType::kRead, "k", 7, 20, 30, 1});  // no such write
  const auto violations = checkLinearizable(history);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].reason.find("future"), std::string::npos);
}

TEST(Linearizability, DetectsNonMonotonicSessionReads) {
  History history;
  history.record({HistoryOpType::kWrite, "k", 1, 0, 10, 0});
  history.record({HistoryOpType::kWrite, "k", 2, 15, 60, 0});  // concurrent
  history.record({HistoryOpType::kRead, "k", 2, 20, 30, 7});
  history.record({HistoryOpType::kRead, "k", 1, 40, 50, 7});  // goes back
  const auto violations = checkLinearizable(history);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].reason.find("non-monotonic"), std::string::npos);
}

TEST(Linearizability, KeysAreIndependent) {
  History history;
  history.record({HistoryOpType::kWrite, "a", 5, 0, 10, 0});
  history.record({HistoryOpType::kWrite, "b", 9, 0, 10, 0});
  history.record({HistoryOpType::kRead, "a", 5, 20, 30, 0});
  history.record({HistoryOpType::kRead, "b", 9, 20, 30, 0});
  EXPECT_TRUE(isLinearizable(history));
}

}  // namespace
}  // namespace dcache::consistency
