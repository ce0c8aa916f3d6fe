// Timeline harness tests: the semantics every fig9-12 spec relies on —
// exact window budgets on both clocks, headroom calibration, schedule
// install points, per-window metrics, and worker-count independence.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "core/timeline.hpp"
#include "obs/metrics.hpp"

namespace dcache::core {
namespace {

constexpr TimelineBudget kTiny{/*warmupOps=*/2000, /*windowOps=*/500,
                               /*calibrateWarmOps=*/1000,
                               /*calibrateOps=*/500};
constexpr std::size_t kEventWindow = 2;

[[nodiscard]] TimelineSpec tinySpec(std::vector<Architecture> archs,
                                    std::size_t windows) {
  TimelineSpec spec;
  spec.name = "test";
  spec.architectures = std::move(archs);
  spec.phases.assign(windows, "window");
  spec.budget = kTiny;
  return spec;
}

[[nodiscard]] std::vector<TimelineResult> run(const TimelineSpec& spec,
                                              std::size_t jobs = 2) {
  MatrixOptions options;
  options.jobs = jobs;
  return runTimeline(spec, options);
}

TEST(Timeline, EveryWindowServesExactlyWindowOps) {
  TimelineSpec spec =
      tinySpec({Architecture::kBase, Architecture::kRemote}, 3);
  spec.postures = {"a", "b"};
  const std::vector<TimelineResult> cells = run(spec);
  ASSERT_EQ(cells.size(), 4u);  // posture-major
  EXPECT_EQ(cells[1].label, "Remote.a");
  EXPECT_EQ(cells[2].label, "Base.b");
  for (const TimelineResult& cell : cells) {
    ASSERT_EQ(cell.windows.size(), 3u);
    for (const ExperimentResult& window : cell.windows) {
      EXPECT_EQ(window.counters.reads + window.counters.writes,
                kTiny.windowOps);
      EXPECT_EQ(window.latencies.count(), kTiny.windowOps);
      EXPECT_DOUBLE_EQ(window.simulatedSeconds,
                       static_cast<double>(kTiny.windowOps) / kTimelineQps);
    }
  }
}

TEST(Timeline, SurgeClockPricesElapsedSimTime) {
  TimelineSpec spec = tinySpec({Architecture::kLinked}, 3);
  spec.surge = [](std::size_t window) {
    workload::SurgePhase phase;
    if (window == 1) phase.qpsMultiplier = 4.0;
    return phase;
  };
  const std::vector<TimelineResult> cells = run(spec);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells.front().label, "Linked");
  const std::vector<ExperimentResult>& windows = cells.front().windows;
  for (const ExperimentResult& window : windows) {
    EXPECT_EQ(window.counters.reads + window.counters.writes,
              kTiny.windowOps);
    EXPECT_EQ(window.latencies.count(), kTiny.windowOps);
  }
  const double steadySeconds =
      static_cast<double>(kTiny.windowOps) / kTimelineQps;
  EXPECT_NEAR(windows[0].simulatedSeconds, steadySeconds, 1e-9);
  EXPECT_NEAR(windows[1].simulatedSeconds, steadySeconds / 4.0, 1e-9);
  EXPECT_NEAR(windows[2].simulatedSeconds, steadySeconds, 1e-9);
}

TEST(Timeline, HeadroomCapsTiersAtMultipleOfUncappedSteadyDemand) {
  // The uncapped reference run, measured exactly as calibration measures.
  TimelineSpec uncapped = tinySpec({Architecture::kRemote}, 1);
  uncapped.budget.warmupOps = kTiny.calibrateWarmOps;
  uncapped.budget.windowOps = kTiny.calibrateOps;
  const ExperimentResult steady = run(uncapped).front().windows.front();
  const auto demand = [&steady](sim::TierKind kind) {
    const TierUsage* tier = steady.cost.tier(kind);
    return tier->cpuMicrosTotal / steady.simulatedSeconds /
           static_cast<double>(tier->nodes);
  };

  constexpr double kHeadroom = 2.5;
  TimelineSpec capped = tinySpec({Architecture::kRemote}, 1);
  capped.headroom = kHeadroom;
  const std::vector<TimelineResult> cells = run(capped);
  const OverloadConfig& overload = cells.front().config.overload;
  EXPECT_GT(demand(sim::TierKind::kRemoteCache), 0.0);
  EXPECT_DOUBLE_EQ(overload.appCapacityMicrosPerSec,
                   kHeadroom * demand(sim::TierKind::kAppServer));
  EXPECT_DOUBLE_EQ(overload.remoteCacheCapacityMicrosPerSec,
                   kHeadroom * demand(sim::TierKind::kRemoteCache));
  EXPECT_DOUBLE_EQ(overload.sqlCapacityMicrosPerSec,
                   kHeadroom * demand(sim::TierKind::kSqlFrontend));
  EXPECT_DOUBLE_EQ(overload.kvCapacityMicrosPerSec,
                   kHeadroom * demand(sim::TierKind::kKvStorage));
}

TEST(Timeline, ZeroHeadroomLeavesTiersUncapped) {
  const std::vector<TimelineResult> cells =
      run(tinySpec({Architecture::kRemote}, 1));
  const OverloadConfig& overload = cells.front().config.overload;
  EXPECT_EQ(overload.appCapacityMicrosPerSec, 0.0);
  EXPECT_EQ(overload.remoteCacheCapacityMicrosPerSec, 0.0);
  EXPECT_EQ(overload.sqlCapacityMicrosPerSec, 0.0);
  EXPECT_EQ(overload.kvCapacityMicrosPerSec, 0.0);
}

TEST(Timeline, CrashDegradesReadsFromItsWindowOn) {
  TimelineSpec spec = tinySpec({Architecture::kRemote}, 4);
  spec.faults = [](const TimelineCell& cell, sim::FaultSchedule& faults) {
    faults.crashNode(cell.windowStartMicros(kEventWindow),
                     sim::TierKind::kRemoteCache, 0);
  };
  const std::vector<TimelineResult> cells = run(spec);
  const std::vector<ExperimentResult>& windows = cells.front().windows;
  for (std::size_t w = 0; w < kEventWindow; ++w) {
    EXPECT_EQ(windows[w].counters.degradedReads, 0u) << "window " << w;
  }
  EXPECT_GT(windows[kEventWindow].counters.degradedReads, 0u);
}

TEST(Timeline, StartAbsentSpareJoinsOnlyInItsWindow) {
  TimelineSpec spec = tinySpec({Architecture::kRemote}, 4);
  spec.configure = [](const TimelineCell&, DeploymentConfig& config) {
    config.remoteCacheNodes = 4;
  };
  spec.membership = [](const TimelineCell& cell, MembershipSchedule& schedule,
                       HandoffConfig&) {
    schedule.startAbsent(sim::TierKind::kRemoteCache, 3);
    schedule.join(cell.windowStartMicros(kEventWindow),
                  sim::TierKind::kRemoteCache, 3);
  };
  const std::vector<TimelineResult> cells = run(spec);
  const std::vector<ExperimentResult>& windows = cells.front().windows;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    EXPECT_EQ(windows[w].counters.plannedJoins, w == kEventWindow ? 1u : 0u)
        << "window " << w;
  }
}

TEST(Timeline, MetricsCarryEveryWindowOfEveryCell) {
  TimelineSpec spec =
      tinySpec({Architecture::kBase, Architecture::kRemote}, 2);
  spec.postures = {"x", "y"};
  const std::vector<TimelineResult> cells = run(spec);
  obs::MetricsRegistry registry;
  exportTimelineMetrics(registry, "t.", cells);
  for (const TimelineResult& cell : cells) {
    for (std::size_t w = 0; w < cell.windows.size(); ++w) {
      obs::MetricsRegistry window;
      exportExperimentMetrics(window, "", cell.windows[w]);
      const std::string base =
          "t." + cell.label + ".window_" + std::to_string(w) + ".";
      for (const obs::MetricsRegistry::Metric& metric : window.metrics()) {
        EXPECT_NE(registry.find(base + metric.name), nullptr)
            << base + metric.name;
      }
    }
    EXPECT_NE(registry.find("t." + cell.label + ".health.total_ejections"),
              nullptr);
  }
  EXPECT_NE(registry.find("t.Remote.y.window_1.epoch_fences"), nullptr);
}

TEST(Timeline, WindowsIdenticalAtOneAndFourWorkers) {
  TimelineSpec spec =
      tinySpec({Architecture::kRemote, Architecture::kLinked}, 3);
  spec.postures = {"bare", "breaker"};
  spec.headroom = 2.0;
  spec.configure = [](const TimelineCell& cell, DeploymentConfig& config) {
    config.overload.breakersEnabled = cell.posture == 1;
  };
  spec.faults = [](const TimelineCell& cell, sim::FaultSchedule& faults) {
    faults.degradeNetwork(cell.windowStartMicros(1), cell.windowStartMicros(2),
                          2.0, 0.05);
  };
  const auto exported = [&spec](std::size_t jobs) {
    obs::MetricsRegistry registry;
    exportTimelineMetrics(registry, "t.", run(spec, jobs));
    return registry.toJson();
  };
  const std::string sequential = exported(1);
  EXPECT_EQ(sequential, exported(4));
  EXPECT_NE(sequential.find("\"t.Linked.breaker.window_2.cost.total_usd\""),
            std::string::npos);
}

}  // namespace
}  // namespace dcache::core
