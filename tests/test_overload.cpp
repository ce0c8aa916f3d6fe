// Overload-control subsystem tests: the queueing model's drain math, the
// circuit-breaker state machine (hysteresis, probe accounting, reopen on a
// failed probe), the deterministic CoDel-style shedder (grace window,
// monotone shed rate, error-diffusion accuracy), the per-call deadline
// budget, hedged requests, and — end to end — that arming the defenses
// strictly reduces the retry-storm amplification of a saturated
// deployment.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/deployment.hpp"
#include "core/overload.hpp"
#include "rpc/channel.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/queue.hpp"
#include "workload/synthetic.hpp"

namespace dcache {
namespace {

// ---------------------------------------------------------------- NodeQueue

TEST(NodeQueue, DisabledByDefaultAndCostFree) {
  sim::NodeQueue queue;
  EXPECT_FALSE(queue.enabled());
  queue.addWork(1e9);
  EXPECT_DOUBLE_EQ(queue.waitMicros(), 0.0);
  EXPECT_DOUBLE_EQ(queue.backlogMicros(), 0.0);
}

TEST(NodeQueue, DrainMathAgainstSimClock) {
  sim::NodeQueue queue;
  queue.configure({/*capacityMicrosPerSec=*/1e6, /*maxWaitMicros=*/1e5});
  ASSERT_TRUE(queue.enabled());

  queue.addWork(1000.0);  // at capacity 1 µs/µs: wait == backlog
  EXPECT_DOUBLE_EQ(queue.waitMicros(), 1000.0);

  queue.drainTo(400);  // 400 µs elapsed drains 400 µs of work
  EXPECT_DOUBLE_EQ(queue.backlogMicros(), 600.0);

  queue.drainTo(300);  // stale clock: monotone no-op
  EXPECT_DOUBLE_EQ(queue.backlogMicros(), 600.0);

  queue.drainTo(10000);  // over-draining floors at empty, never negative
  EXPECT_DOUBLE_EQ(queue.backlogMicros(), 0.0);
  EXPECT_DOUBLE_EQ(queue.waitMicros(), 0.0);
}

TEST(NodeQueue, WaitScalesInverselyWithCapacity) {
  sim::NodeQueue fast, slow;
  fast.configure({2e6, 1e5});
  slow.configure({5e5, 1e5});
  fast.addWork(1000.0);
  slow.addWork(1000.0);
  EXPECT_DOUBLE_EQ(fast.waitMicros(), 500.0);
  EXPECT_DOUBLE_EQ(slow.waitMicros(), 2000.0);
}

TEST(NodeQueue, NodeChargeFeedsBacklogAndCrashClearsIt) {
  sim::Node node("n", sim::TierKind::kAppServer);
  node.queue().configure({1e6, 1e5});
  node.charge(sim::CpuComponent::kRequestPrep, 250.0);
  EXPECT_DOUBLE_EQ(node.queue().backlogMicros(), 250.0);
  // The meters saw the same charge: one funnel, one accounting.
  EXPECT_DOUBLE_EQ(node.cpu().totalMicros(), 250.0);
  node.setUp(false);  // a crashed process takes its run queue with it
  EXPECT_DOUBLE_EQ(node.queue().backlogMicros(), 0.0);
}

// ----------------------------------------------------------- CircuitBreaker

rpc::BreakerPolicy tinyBreaker() {
  rpc::BreakerPolicy policy;
  policy.windowSize = 8;
  policy.minSamples = 4;
  policy.failureRateToOpen = 0.5;
  policy.openMicros = 1000.0;
  return policy;
}

TEST(CircuitBreaker, StaysClosedBelowMinSamples) {
  rpc::CircuitBreaker breaker(tinyBreaker());
  for (int i = 0; i < 3; ++i) breaker.record(false, 0.0);
  EXPECT_EQ(breaker.state(), rpc::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allowRequest(0.0));
  EXPECT_EQ(breaker.opens(), 0u);
}

TEST(CircuitBreaker, HysteresisBelowFailureRate) {
  rpc::CircuitBreaker breaker(tinyBreaker());
  // 3 failures in a window of 8 = 37.5% < 50%: never trips.
  for (int round = 0; round < 10; ++round) {
    breaker.record(round % 3 == 0, 0.0);
    breaker.record(true, 0.0);
  }
  EXPECT_EQ(breaker.state(), rpc::CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.opens(), 0u);
}

TEST(CircuitBreaker, TripsAtFailureRateAndShortCircuits) {
  rpc::CircuitBreaker breaker(tinyBreaker());
  for (int i = 0; i < 4; ++i) breaker.record(false, 100.0);
  EXPECT_EQ(breaker.state(), rpc::CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);
  EXPECT_FALSE(breaker.allowRequest(100.0));
  EXPECT_FALSE(breaker.allowRequest(1099.0));  // cool-down not yet elapsed
}

TEST(CircuitBreaker, HalfOpenAdmitsExactlyOneProbe) {
  rpc::CircuitBreaker breaker(tinyBreaker());
  for (int i = 0; i < 4; ++i) breaker.record(false, 0.0);
  ASSERT_EQ(breaker.state(), rpc::CircuitBreaker::State::kOpen);

  EXPECT_TRUE(breaker.allowRequest(1000.0));  // cool-down elapsed: the probe
  EXPECT_EQ(breaker.state(), rpc::CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.allowRequest(1000.0));  // probe in flight: hold

  breaker.record(true, 1000.0);  // probe succeeds: closed, window reset
  EXPECT_EQ(breaker.state(), rpc::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allowRequest(1000.0));
  // A single post-probe failure must not trip a freshly reset window.
  breaker.record(false, 1000.0);
  EXPECT_EQ(breaker.state(), rpc::CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, FailedProbeReopensWithFreshCooldown) {
  rpc::CircuitBreaker breaker(tinyBreaker());
  for (int i = 0; i < 4; ++i) breaker.record(false, 0.0);
  ASSERT_TRUE(breaker.allowRequest(1000.0));  // probe admitted
  breaker.record(false, 1000.0);              // probe fails
  EXPECT_EQ(breaker.state(), rpc::CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 2u);
  EXPECT_FALSE(breaker.allowRequest(1500.0));  // new cool-down from t=1000
  EXPECT_TRUE(breaker.allowRequest(2000.0));
}

// ----------------------------------------------------------------- Shedder

core::ShedPolicy shedPolicy() {
  core::ShedPolicy policy;
  policy.enabled = true;
  policy.targetDelayMicros = 1000.0;
  policy.graceMicros = 500.0;
  policy.rampMicros = 2000.0;
  policy.maxShedFraction = 0.95;
  return policy;
}

TEST(Shedder, NeverShedsBelowTarget) {
  core::Shedder shedder(shedPolicy());
  for (std::uint64_t t = 0; t < 10000; t += 10) {
    EXPECT_FALSE(shedder.offer(999.0, t));
  }
  EXPECT_FALSE(shedder.dropping());
  EXPECT_EQ(shedder.shedCount(), 0u);
}

TEST(Shedder, DisabledPolicyIsInert) {
  core::Shedder shedder{core::ShedPolicy{}};  // enabled defaults to false
  for (std::uint64_t t = 0; t < 1000; t += 10) {
    EXPECT_FALSE(shedder.offer(1e9, t));
  }
}

TEST(Shedder, GraceWindowRidesShortBursts) {
  core::Shedder shedder(shedPolicy());
  // Overshoot appears at t=0 but shedding must hold off for graceMicros.
  EXPECT_FALSE(shedder.offer(5000.0, 0));
  EXPECT_FALSE(shedder.offer(5000.0, 499));
  EXPECT_FALSE(shedder.dropping());
  // A dip below target before the grace elapses resets the clock entirely.
  EXPECT_FALSE(shedder.offer(500.0, 500));
  EXPECT_FALSE(shedder.offer(5000.0, 600));
  EXPECT_FALSE(shedder.offer(5000.0, 1099));
  EXPECT_FALSE(shedder.dropping());
}

/// Sheds observed over `offers` consecutive offers at a constant delay,
/// starting past the grace window.
std::uint64_t shedsAtDelay(double delayMicros, int offers) {
  core::Shedder shedder(shedPolicy());
  (void)shedder.offer(delayMicros, 0);  // starts the grace clock
  std::uint64_t shed = 0;
  for (int i = 0; i < offers; ++i) {
    if (shedder.offer(delayMicros, 1000 + static_cast<std::uint64_t>(i))) {
      ++shed;
    }
  }
  return shed;
}

TEST(Shedder, ShedRateIsMonotoneInQueueDelay) {
  std::uint64_t previous = 0;
  for (double delay = 1200.0; delay <= 6000.0; delay += 400.0) {
    const std::uint64_t shed = shedsAtDelay(delay, 1000);
    EXPECT_GE(shed, previous) << "delay " << delay;
    previous = shed;
  }
  EXPECT_GT(previous, 0u);
}

TEST(Shedder, ErrorDiffusionHitsTheExactRate) {
  // Overshoot of half the ramp => shed fraction 0.5 => exactly every other
  // offer, no RNG involved.
  const std::uint64_t shed = shedsAtDelay(2000.0, 1000);
  EXPECT_EQ(shed, 500u);
}

TEST(Shedder, MaxShedFractionCapsTheRate) {
  // Overshoot way past the ramp: fraction capped at 0.95, never 100%
  // (float accumulation may land one shy of the exact product).
  const std::uint64_t shed = shedsAtDelay(1e6, 1000);
  EXPECT_GE(shed, 949u);
  EXPECT_LE(shed, 950u);
}

TEST(Shedder, RecoveryBelowTargetStopsSheddingImmediately) {
  core::Shedder shedder(shedPolicy());
  (void)shedder.offer(5000.0, 0);
  std::uint64_t shed = 0;
  for (int i = 0; i < 100; ++i) {
    if (shedder.offer(5000.0, 1000 + static_cast<std::uint64_t>(i))) ++shed;
  }
  ASSERT_TRUE(shedder.dropping());
  ASSERT_GT(shed, 0u);
  EXPECT_FALSE(shedder.offer(200.0, 2000));
  EXPECT_FALSE(shedder.dropping());
  EXPECT_FALSE(shedder.offer(999.0, 2001));
}

// --------------------------------------------------- Channel-level defenses

class OverloadChannelTest : public ::testing::Test {
 protected:
  OverloadChannelTest()
      : client_("client", sim::TierKind::kClient),
        server_("server", sim::TierKind::kAppServer),
        backup_("backup", sim::TierKind::kAppServer),
        channel_(network_, rpc::SerializationModel{}) {
    channel_.enableFaults(/*seed=*/7, rpc::CallPolicy{});
  }

  sim::NetworkModel network_;
  sim::Node client_;
  sim::Node server_;
  sim::Node backup_;
  rpc::Channel channel_;
};

TEST_F(OverloadChannelTest, DeadlineBudgetStopsTheRetryLadder) {
  server_.setUp(false);
  rpc::CallPolicy unbounded;  // deadlineMicros == 0: the legacy ladder
  const auto full =
      channel_.callWithPolicy(client_, server_, 64, 64, unbounded);
  EXPECT_FALSE(full.ok);
  EXPECT_EQ(full.attempts, unbounded.maxAttempts);
  EXPECT_EQ(channel_.faultCounters().budgetExhausted, 0u);

  rpc::CallPolicy bounded = unbounded;
  bounded.deadlineMicros = bounded.timeoutMicros * 1.25;  // < 2 full waits
  const auto capped =
      channel_.callWithPolicy(client_, server_, 64, 64, bounded);
  EXPECT_FALSE(capped.ok);
  EXPECT_LT(capped.attempts, unbounded.maxAttempts);
  EXPECT_LE(capped.latencyMicros, bounded.deadlineMicros + 1e-9);
  EXPECT_LT(capped.latencyMicros, full.latencyMicros);
  EXPECT_EQ(channel_.faultCounters().budgetExhausted, 1u);
}

TEST_F(OverloadChannelTest, GenerousDeadlineChangesNothing) {
  // Twin channels with identical RNG seeds, so the backoff jitter streams
  // match call for call; only the deadline differs.
  sim::NetworkModel networkA, networkB;
  rpc::Channel a(networkA, rpc::SerializationModel{});
  rpc::Channel b(networkB, rpc::SerializationModel{});
  a.enableFaults(/*seed=*/11, rpc::CallPolicy{});
  b.enableFaults(/*seed=*/11, rpc::CallPolicy{});
  server_.setUp(false);

  rpc::CallPolicy unbounded;
  rpc::CallPolicy generous;
  generous.deadlineMicros = 1e9;
  const auto full = a.callWithPolicy(client_, server_, 64, 64, unbounded);
  const auto same = b.callWithPolicy(client_, server_, 64, 64, generous);
  EXPECT_EQ(same.attempts, full.attempts);
  EXPECT_DOUBLE_EQ(same.latencyMicros, full.latencyMicros);
  EXPECT_EQ(b.faultCounters().budgetExhausted, 0u);
}

TEST(DeadlineBudget, NoCallOnEitherTransportFinishesPastTheDeadline) {
  // fig10's budget (2.5 timeouts) under a 50 % drop window: the third
  // attempt's backoff always outlasts what the first two left, so this is
  // exactly where an attempt could start with an empty budget.
  rpc::CallPolicy policy;
  policy.deadlineMicros = policy.timeoutMicros * 2.5;
  const rpc::OneSidedParams oneSided;
  std::uint64_t stoppedByBudget = 0;
  std::uint64_t budgetExhausted = 0;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    sim::NetworkModel network;
    network.setDegradation(1.0, 0.5);
    rpc::Channel channel(network, rpc::SerializationModel{});
    channel.enableFaults(seed, policy);
    sim::Node client("client", sim::TierKind::kAppServer);
    sim::Node server("server", sim::TierKind::kRemoteCache);
    sim::Node far("far", sim::TierKind::kFarMemory);

    const rpc::CallResult calls[] = {
        channel.callWithPolicy(client, server, 64, 4096, policy),
        channel.oneSidedRead(client, far, 4096, oneSided)};
    for (const rpc::CallResult& call : calls) {
      EXPECT_LE(call.latencyMicros, policy.deadlineMicros) << "seed " << seed;
      // A failed call that did not use every attempt was stopped by the
      // budget, and is counted as such.
      if (!call.ok && call.attempts < policy.maxAttempts) ++stoppedByBudget;
    }
    budgetExhausted += channel.faultCounters().budgetExhausted;
  }
  EXPECT_GT(stoppedByBudget, 0u);
  EXPECT_EQ(budgetExhausted, stoppedByBudget);
}

TEST_F(OverloadChannelTest, QueueBacklogAddsWaitToLatency) {
  server_.queue().configure({1e6, 1e5});
  server_.queue().addWork(300.0);  // 300 µs of standing backlog
  channel_.setNowMicros(0);
  const auto baseline = [&] {
    sim::Node idle("idle", sim::TierKind::kAppServer);
    return channel_.callWithPolicy(client_, idle, 64, 64, rpc::CallPolicy{});
  }();
  const auto queued =
      channel_.callWithPolicy(client_, server_, 64, 64, rpc::CallPolicy{});
  ASSERT_TRUE(queued.ok);
  EXPECT_NEAR(queued.latencyMicros - baseline.latencyMicros, 300.0, 1e-6);
}

TEST_F(OverloadChannelTest, DeepBacklogTimesOutButStillChargesTheServer) {
  server_.queue().configure({1e6, 1e5});
  server_.queue().addWork(5000.0);  // wait 5000 µs > 2000 µs timeout
  channel_.setNowMicros(0);
  const double serverCpuBefore = server_.cpu().totalMicros();
  const auto result =
      channel_.callWithPolicy(client_, server_, 64, 64, rpc::CallPolicy{});
  EXPECT_FALSE(result.ok);
  EXPECT_GT(channel_.faultCounters().queueTimeouts, 0u);
  // The metastable amplifier: the abandoned attempts still did server-side
  // request work, deepening the very backlog that timed them out.
  EXPECT_GT(server_.cpu().totalMicros(), serverCpuBefore);
  EXPECT_GT(server_.queue().backlogMicros(), 5000.0);
}

TEST_F(OverloadChannelTest, FullQueueRejectsWithoutServerWork) {
  server_.queue().configure({1e6, /*maxWaitMicros=*/1000.0});
  server_.queue().addWork(2000.0);  // wait 2000 µs >= 1000 µs bound
  channel_.setNowMicros(0);
  const auto result =
      channel_.callWithPolicy(client_, server_, 64, 64, rpc::CallPolicy{});
  EXPECT_FALSE(result.ok);
  EXPECT_GT(channel_.faultCounters().queueRejections, 0u);
  // Rejection bounces at the listener: no request work enters the backlog.
  EXPECT_DOUBLE_EQ(server_.queue().backlogMicros(), 2000.0);
}

TEST_F(OverloadChannelTest, LostAnswerNeverOutlastsTheDeadline) {
  // Every answer is lost. The second attempt starts with a sliver of
  // budget left, and its request leg alone takes longer than that.
  network_.cutLink(server_.tier(), client_.tier());
  rpc::CallPolicy policy;
  policy.jitterFraction = 0.0;
  policy.backoffBaseMicros = 450.0;
  policy.deadlineMicros = policy.timeoutMicros * 1.25;
  const auto result =
      channel_.callWithPolicy(client_, server_, 64, 64, policy);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_DOUBLE_EQ(result.latencyMicros, policy.deadlineMicros);
  EXPECT_EQ(channel_.faultCounters().budgetExhausted, 1u);
}

TEST_F(OverloadChannelTest, RejectionBounceNeverOutlastsTheDeadline) {
  server_.queue().configure({1e6, /*maxWaitMicros=*/1000.0});
  server_.queue().addWork(2000.0);
  channel_.setNowMicros(0);
  rpc::CallPolicy policy;
  // Less budget than the bounce's round trip: the caller gives up first.
  policy.deadlineMicros = network_.params().oneWayLatencyMicros;
  const auto result =
      channel_.callWithPolicy(client_, server_, 64, 64, policy);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.attempts, 1u);
  EXPECT_DOUBLE_EQ(result.latencyMicros, policy.deadlineMicros);
  EXPECT_EQ(channel_.faultCounters().queueRejections, 1u);
  EXPECT_EQ(channel_.faultCounters().budgetExhausted, 1u);
}

TEST_F(OverloadChannelTest, BreakerOpensThenShortCircuitsWithoutWire) {
  rpc::BreakerPolicy policy = tinyBreaker();
  policy.openMicros = 1e9;  // never cools down within this test
  channel_.enableBreakers(policy);
  server_.setUp(false);
  channel_.setNowMicros(0);

  for (int i = 0; i < 4; ++i) {
    (void)channel_.callWithPolicy(client_, server_, 64, 64,
                                  rpc::CallPolicy{});
  }
  const rpc::CircuitBreaker* breaker = channel_.breakerFor(server_);
  ASSERT_NE(breaker, nullptr);
  EXPECT_EQ(breaker->state(), rpc::CircuitBreaker::State::kOpen);
  EXPECT_GE(channel_.faultCounters().breakerOpens, 1u);

  const std::uint64_t wireBefore = network_.messagesSent();
  const auto fast =
      channel_.callWithPolicy(client_, server_, 64, 64, rpc::CallPolicy{});
  EXPECT_FALSE(fast.ok);
  EXPECT_EQ(fast.attempts, 0u);
  EXPECT_DOUBLE_EQ(fast.latencyMicros, 0.0);
  EXPECT_EQ(network_.messagesSent(), wireBefore);  // failed fast, no traffic
  EXPECT_GE(channel_.faultCounters().breakerShortCircuits, 1u);
  // Tripping is cheap, not free: the caller still built the request.
  EXPECT_GT(fast.wastedCpuMicros, 0.0);
}

TEST_F(OverloadChannelTest, HalfOpenProbeRecoversARestartedServer) {
  channel_.enableBreakers(tinyBreaker());  // openMicros = 1000
  server_.setUp(false);
  channel_.setNowMicros(0);
  for (int i = 0; i < 4; ++i) {
    (void)channel_.callWithPolicy(client_, server_, 64, 64,
                                  rpc::CallPolicy{});
  }
  ASSERT_EQ(channel_.breakerFor(server_)->state(),
            rpc::CircuitBreaker::State::kOpen);

  server_.setUp(true);
  channel_.setNowMicros(2000);  // past the cool-down: next call is the probe
  const auto probe =
      channel_.callWithPolicy(client_, server_, 64, 64, rpc::CallPolicy{});
  EXPECT_TRUE(probe.ok);
  EXPECT_EQ(channel_.breakerFor(server_)->state(),
            rpc::CircuitBreaker::State::kClosed);
}

TEST_F(OverloadChannelTest, HedgeRescuesADownPrimary) {
  channel_.enableHedging(rpc::HedgePolicy{});
  server_.setUp(false);
  const auto result = channel_.callHedged(client_, server_, &backup_, 64, 64,
                                          rpc::CallPolicy{});
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(channel_.faultCounters().hedgesSent, 1u);
  EXPECT_EQ(channel_.faultCounters().hedgeWins, 1u);
  // The rescued call is faster than riding the primary's full retry ladder
  // (its latency includes the hedge delay, not three timeouts).
  const rpc::CallPolicy policy;
  EXPECT_LT(result.latencyMicros,
            policy.timeoutMicros * static_cast<double>(policy.maxAttempts));
}

TEST_F(OverloadChannelTest, HedgingOffFallsBackToPolicyCall) {
  server_.setUp(false);
  const auto result = channel_.callHedged(client_, server_, &backup_, 64, 64,
                                          rpc::CallPolicy{});
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(channel_.faultCounters().hedgesSent, 0u);
  EXPECT_EQ(channel_.faultCounters().hedgeWins, 0u);
}

TEST_F(OverloadChannelTest, HedgeDelayFloorsDuringTrackerWarmup) {
  rpc::HedgePolicy policy;
  policy.minSamples = 4;
  channel_.enableHedging(policy);
  EXPECT_DOUBLE_EQ(channel_.hedgeDelayMicros(sim::TierKind::kAppServer),
                   policy.minHedgeDelayMicros);
  // Feed the tracker past warm-up: the threshold becomes the p99, floored.
  for (int i = 0; i < 8; ++i) {
    (void)channel_.callHedged(client_, server_, &backup_, 64, 64,
                              rpc::CallPolicy{});
  }
  EXPECT_GE(channel_.hedgeDelayMicros(sim::TierKind::kAppServer),
            policy.minHedgeDelayMicros);
}

// ------------------------------------------------ Deployment-level wiring

TEST(DeploymentOverload, OffByDefault) {
  core::DeploymentConfig config;
  config.architecture = core::Architecture::kLinked;
  core::Deployment deployment(config);
  EXPECT_FALSE(deployment.overloadInstalled());
  EXPECT_EQ(deployment.shedder(), nullptr);
  EXPECT_FALSE(deployment.channel().breakersEnabled());
  EXPECT_FALSE(deployment.channel().hedgingEnabled());
}

/// Counters after driving `arch` through a saturating open-loop surge.
core::ServeCounters runSaturated(core::Architecture arch, bool defenses) {
  constexpr std::uint64_t kCalibrateOps = 2000;
  constexpr std::uint64_t kSurgeOps = 4000;
  constexpr double kQps = 120000.0;
  constexpr double kSurgeFactor = 6.0;

  // Calibrate: steady per-node app-tier demand with infinite capacity.
  double appDemandPerSec = 0.0;
  {
    core::DeploymentConfig config;
    config.architecture = arch;
    core::Deployment calibration(config);
    workload::SyntheticWorkload workload{workload::SyntheticConfig{}};
    calibration.populateKv(workload);
    for (std::uint64_t i = 0; i < kCalibrateOps; ++i) {
      calibration.setSimTimeMicros(
          static_cast<std::uint64_t>(1e6 / kQps * static_cast<double>(i)));
      calibration.serve(workload.next());
    }
    for (const sim::Tier* tier : calibration.tiers()) {
      if (tier->kind() == sim::TierKind::kAppServer) {
        appDemandPerSec = tier->aggregateCpu().totalMicros() /
                          (static_cast<double>(kCalibrateOps) / kQps) /
                          static_cast<double>(tier->size());
      }
    }
  }

  core::DeploymentConfig config;
  config.architecture = arch;
  config.overload.appCapacityMicrosPerSec = appDemandPerSec * 2.0;
  if (defenses) {
    config.overload.shed.enabled = true;
    config.overload.shed.targetDelayMicros =
        config.rpcPolicy.timeoutMicros * 0.5;
    config.overload.shed.graceMicros = config.rpcPolicy.timeoutMicros;
    config.overload.shed.rampMicros = config.rpcPolicy.timeoutMicros;
    config.overload.breakersEnabled = true;
    config.overload.hedgingEnabled = true;
    config.rpcPolicy.deadlineMicros = config.rpcPolicy.timeoutMicros * 2.5;
  }
  core::Deployment deployment(config);
  workload::SyntheticWorkload workload{workload::SyntheticConfig{}};
  deployment.populateKv(workload);

  // Warm at steady pace, then an open-loop surge at kSurgeFactor x the
  // calibrated rate: 3x the provisioned capacity, guaranteed saturation.
  double simMicros = 0.0;
  for (std::uint64_t i = 0; i < kCalibrateOps; ++i) {
    deployment.setSimTimeMicros(static_cast<std::uint64_t>(simMicros));
    simMicros += 1e6 / kQps;
    deployment.serve(workload.next());
  }
  deployment.clearMeters();
  for (std::uint64_t i = 0; i < kSurgeOps; ++i) {
    deployment.setSimTimeMicros(static_cast<std::uint64_t>(simMicros));
    simMicros += 1e6 / (kQps * kSurgeFactor);
    deployment.serve(workload.next());
  }
  return deployment.counters();
}

TEST(DeploymentOverload, DefensesStrictlyReduceRetryAmplification) {
  const core::ServeCounters off =
      runSaturated(core::Architecture::kLinked, false);
  const core::ServeCounters on =
      runSaturated(core::Architecture::kLinked, true);

  // The bare deployment melts: queue timeouts feed retries feed backlog.
  EXPECT_GT(off.queueTimeouts + off.queueRejections, 0u);
  EXPECT_GT(off.retries, 0u);
  EXPECT_EQ(off.sheddedRequests, 0u);

  // Armed, the shedder + breakers + budget turn the storm into shed load.
  EXPECT_GT(on.sheddedRequests, 0u);
  EXPECT_LT(on.retries, off.retries);
  EXPECT_LT(on.queueTimeouts + on.queueRejections,
            off.queueTimeouts + off.queueRejections);
}

TEST(DeploymentOverload, ShedsPreserveReadConservation) {
  const core::ServeCounters on =
      runSaturated(core::Architecture::kLinked, true);
  ASSERT_GT(on.sheddedRequests, 0u);
  // Every read either probed the cache (hit or miss) or was shed at
  // admission — nothing double-counted, nothing lost.
  EXPECT_EQ(on.cacheHits + on.cacheMisses + on.sheddedRequests, on.reads);
  // Writes are never shed.
  EXPECT_GT(on.writes, 0u);
}

TEST(DeploymentOverload, WritesAreNeverShed) {
  // A read-free workload through a collapsed deployment sheds nothing.
  core::DeploymentConfig config;
  config.architecture = core::Architecture::kLinked;
  config.overload.appCapacityMicrosPerSec = 1.0;  // hopelessly undersized
  config.overload.shed.enabled = true;
  core::Deployment deployment(config);
  workload::SyntheticConfig writeOnly;
  writeOnly.readRatio = 0.0;
  workload::SyntheticWorkload workload{writeOnly};
  deployment.populateKv(workload);
  for (std::uint64_t i = 0; i < 500; ++i) {
    deployment.setSimTimeMicros(i * 8);
    deployment.serve(workload.next());
  }
  EXPECT_GT(deployment.counters().writes, 0u);
  EXPECT_EQ(deployment.counters().sheddedRequests, 0u);
}

}  // namespace
}  // namespace dcache
