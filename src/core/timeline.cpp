#include "core/timeline.hpp"

#include <memory>
#include <utility>

#include "core/report.hpp"
#include "util/thread_pool.hpp"
#include "workload/synthetic.hpp"

namespace dcache::core {

TimelineBudget timelineBudget() {
  if (const std::uint64_t cap = goldenOpsCap(); cap > 0) {
    return {cap * 4, cap, cap, cap};
  }
  return {};
}

std::uint64_t TimelineCell::windowStartMicros(std::size_t w) const {
  return static_cast<std::uint64_t>(
      1e6 / kTimelineQps *
      static_cast<double>(budget.warmupOps + w * budget.windowOps));
}

std::uint64_t TimelineCell::windowMicros() const {
  return static_cast<std::uint64_t>(1e6 / kTimelineQps *
                                    static_cast<double>(budget.windowOps));
}

namespace {

/// Build, populate, install membership, warm up, install faults, then
/// serve and snapshot every window.
TimelineResult runCell(const TimelineSpec& spec, const TimelineCell& cell,
                       const DeploymentConfig& config,
                       std::uint64_t rootSeed) {
  Deployment deployment(config);
  std::unique_ptr<workload::Workload> workload;
  const workload::SurgeWorkload* surge = nullptr;
  if (spec.surge) {
    std::vector<workload::SurgePhase> phases{
        {cell.budget.warmupOps, 1.0, 0.0, 0, "warmup"}};
    for (std::size_t w = 0; w < spec.phases.size(); ++w) {
      phases.push_back(spec.surge(w));
      phases.back().ops = cell.budget.windowOps;
      phases.back().name = spec.phases[w].c_str();
    }
    auto owned = std::make_unique<workload::SurgeWorkload>(
        workload::SyntheticConfig{}, std::move(phases),
        cellSeed(rootSeed, cell.index + 100));
    surge = owned.get();
    workload = std::move(owned);
  } else {
    workload = std::make_unique<workload::SyntheticWorkload>(
        workload::SyntheticConfig{});
  }
  deployment.populateKv(*workload);

  // The op-index clock sets opIndex x 1e6/qps; the open-loop surge clock
  // sums per-op gaps, so a surge compresses arrivals. They round
  // differently, so each keeps its own arithmetic.
  const double microsPerOp = 1e6 / kTimelineQps;
  std::uint64_t opIndex = 0;
  double simMicros = 0.0;
  const auto serve = [&](std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      if (surge) {
        deployment.setSimTimeMicros(static_cast<std::uint64_t>(simMicros));
        simMicros +=
            1e6 / (kTimelineQps * surge->currentPhase().qpsMultiplier);
      } else {
        deployment.setSimTimeMicros(static_cast<std::uint64_t>(
            microsPerOp * static_cast<double>(opIndex++)));
      }
      deployment.serve(workload->next());
    }
  };

  if (spec.membership) {
    MembershipSchedule schedule;
    HandoffConfig handoff;
    spec.membership(cell, schedule, handoff);
    deployment.installMembershipSchedule(std::move(schedule), handoff);
  }
  serve(cell.budget.warmupOps);
  if (spec.faults) {
    sim::FaultSchedule faults;
    spec.faults(cell, faults);
    deployment.installFaultSchedule(std::move(faults));
  }

  TimelineResult result;
  result.config = config;
  for (std::size_t w = 0; w < spec.phases.size(); ++w) {
    deployment.clearMeters();
    const double windowStartMicros = simMicros;
    serve(cell.budget.windowOps);
    // The surge clock prices the elapsed sim time, the op-index clock
    // windowOps / qps.
    const double windowSeconds =
        surge ? (simMicros - windowStartMicros) * 1e-6
              : static_cast<double>(cell.budget.windowOps) / kTimelineQps;
    result.windows.push_back(
        snapshotExperiment(deployment, workload->name(), windowSeconds));
  }
  if (const HealthMonitor* monitor = deployment.healthMonitor()) {
    result.totalEjections = monitor->totalEjections();
    result.readmissions = monitor->readmissions();
    result.probesGranted = monitor->probesGranted();
  }
  return result;
}

/// Cap the app, remote-cache, SQL and KV tiers at `headroom` x their
/// per-node CPU demand in the uncapped `steady` window.
void provision(DeploymentConfig& config, const ExperimentResult& steady,
               double headroom) {
  const auto capacity = [&steady, headroom](sim::TierKind kind) {
    const TierUsage* tier = steady.cost.tier(kind);
    return tier ? tier->cpuMicrosTotal / steady.simulatedSeconds /
                      static_cast<double>(tier->nodes) * headroom
                : 0.0;
  };
  config.overload.appCapacityMicrosPerSec =
      capacity(sim::TierKind::kAppServer);
  config.overload.remoteCacheCapacityMicrosPerSec =
      capacity(sim::TierKind::kRemoteCache);
  config.overload.sqlCapacityMicrosPerSec =
      capacity(sim::TierKind::kSqlFrontend);
  config.overload.kvCapacityMicrosPerSec = capacity(sim::TierKind::kKvStorage);
}

}  // namespace

std::vector<TimelineResult> runTimeline(const TimelineSpec& spec,
                                        const MatrixOptions& options,
                                        const obs::TraceConfig& defaultTrace) {
  util::ThreadPool pool(options.jobs);
  const std::size_t archs = spec.architectures.size();

  // Steady demand, once per architecture: calibrateOps on a default,
  // uncapped deployment after calibrateWarmOps of warmup.
  std::vector<ExperimentResult> steady;
  if (spec.headroom > 0.0) {
    TimelineSpec calibration;
    calibration.phases = {"calibrate"};
    calibration.budget = {spec.budget.calibrateWarmOps,
                          spec.budget.calibrateOps};
    steady = util::mapOrdered(
        pool, archs, [&spec, &calibration, &options](std::size_t a) {
          DeploymentConfig config;
          config.architecture = spec.architectures[a];
          const TimelineCell cell{a, config.architecture, 0,
                                  calibration.budget};
          return runCell(calibration, cell, config, options.rootSeed)
              .windows.front();
        });
  }

  return util::mapOrdered(
      pool, archs * spec.postures.size(),
      [&spec, &options, &defaultTrace, &steady, archs](std::size_t i) {
        const TimelineCell cell{i, spec.architectures[i % archs], i / archs,
                                spec.budget};
        DeploymentConfig config;
        config.architecture = cell.architecture;
        config.faultSeed = cellSeed(options.rootSeed, i);
        if (!steady.empty()) {
          provision(config, steady[i % archs], spec.headroom);
        }
        if (spec.configure) spec.configure(cell, config);
        if (defaultTrace.enabled() && !config.trace.enabled()) {
          config.trace = defaultTrace;
        }
        TimelineResult result = runCell(spec, cell, config, options.rootSeed);
        const std::string& posture = spec.postures[cell.posture];
        result.label = std::string(architectureName(cell.architecture)) +
                       (posture.empty() ? "" : "." + posture);
        return result;
      });
}

void exportTimelineMetrics(obs::MetricsRegistry& registry,
                           std::string_view prefix,
                           std::span<const TimelineResult> cells) {
  for (const TimelineResult& cell : cells) {
    const std::string base = std::string(prefix) + cell.label + ".";
    for (std::size_t w = 0; w < cell.windows.size(); ++w) {
      exportExperimentMetrics(registry,
                              base + "window_" + std::to_string(w) + ".",
                              cell.windows[w]);
    }
    registry.setCounter(base + "health.total_ejections", cell.totalEjections);
    registry.setCounter(base + "health.readmissions", cell.readmissions);
    registry.setCounter(base + "health.probes_granted", cell.probesGranted);
  }
}

}  // namespace dcache::core
