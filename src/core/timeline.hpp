// Timeline harness: the one engine behind the failure, overload,
// gray-failure and churn benches (fig9-12). A TimelineSpec declares an
// architecture roster x a posture list, the window phases, a capacity
// headroom and optional membership / fault / surge schedules. runTimeline
// calibrates tier capacities, runs every (posture, architecture) cell on a
// worker pool and returns one priced ExperimentResult per window. Each
// cell is seeded from (rootSeed, cell index) alone, so results are
// identical at any worker count. DESIGN.md §11 gives the order of events.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "core/matrix.hpp"
#include "core/membership.hpp"
#include "obs/metrics.hpp"
#include "sim/fault.hpp"
#include "workload/surge.hpp"

namespace dcache::core {

/// Offered load of every timeline: the compute-bound synthetic rate the
/// figure benches run at.
inline constexpr double kTimelineQps = 120000.0;

/// Op counts of one timeline. The defaults are full scale; timelineBudget()
/// applies the DCACHE_GOLDEN_OPS cap (see goldenOpsCap).
struct TimelineBudget {
  std::uint64_t warmupOps = 120000;
  std::uint64_t windowOps = 30000;
  std::uint64_t calibrateWarmOps = 60000;  // capacity calibration run
  std::uint64_t calibrateOps = 30000;
};
[[nodiscard]] TimelineBudget timelineBudget();

/// The cell a spec hook is building.
struct TimelineCell {
  std::size_t index = 0;  // posture * architectures + roster slot
  Architecture architecture = Architecture::kBase;
  std::size_t posture = 0;
  TimelineBudget budget;

  /// Sim time at which window `w` starts on the op-index clock.
  [[nodiscard]] std::uint64_t windowStartMicros(std::size_t w) const;
  /// One window's length on the op-index clock.
  [[nodiscard]] std::uint64_t windowMicros() const;
};

struct TimelineSpec {
  std::string name;  // trace-title and metric-name prefix ("fig11")
  std::vector<Architecture> architectures;
  /// Cells run posture-major. A lone "" posture stays out of cell labels.
  std::vector<std::string> postures{""};
  std::vector<std::string> phases;  // one window per phase
  /// App, remote-cache, SQL and KV capacity = headroom x the tier's
  /// per-node steady CPU demand on an uncapped deployment; 0 = uncapped.
  double headroom = 0.0;
  TimelineBudget budget = timelineBudget();

  std::function<void(const TimelineCell&, DeploymentConfig&)> configure;
  /// Installed before warmup, so a startAbsent spare is absent throughout.
  std::function<void(const TimelineCell&, MembershipSchedule&,
                     HandoffConfig&)>
      membership;
  /// Installed after warmup: installing a schedule arms the RPC policy
  /// path, which warmup must not run through.
  std::function<void(const TimelineCell&, sim::FaultSchedule&)> faults;
  /// Open-loop arrivals: window w's surge phase (qpsMultiplier, hot key).
  /// Set, it switches the clock to summed per-op gaps (DESIGN.md §11).
  std::function<workload::SurgePhase(std::size_t window)> surge;
};

struct TimelineResult {
  std::string label;        // "Remote", or "Remote.warm" with postures
  DeploymentConfig config;  // as run, calibrated capacities included
  std::vector<ExperimentResult> windows;
  /// HealthMonitor totals (zero when health monitoring is off).
  std::uint64_t totalEjections = 0;
  std::uint64_t readmissions = 0;
  std::uint64_t probesGranted = 0;
};

/// Run every cell of `spec` on `options.jobs` workers, in cell order.
/// `defaultTrace` applies to every cell whose configure hook sets none.
[[nodiscard]] std::vector<TimelineResult> runTimeline(
    const TimelineSpec& spec, const MatrixOptions& options,
    const obs::TraceConfig& defaultTrace = {});

/// Publish every window through exportExperimentMetrics under
/// `<prefix><label>.window_<w>.` and each cell's health totals under
/// `<prefix><label>.health.`.
void exportTimelineMetrics(obs::MetricsRegistry& registry,
                           std::string_view prefix,
                           std::span<const TimelineResult> cells);

}  // namespace dcache::core
