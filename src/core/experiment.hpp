// Experiment runner: populate, warm, measure, price. One call produces the
// CostBreakdown + counters a figure bench needs for one (architecture,
// workload) cell.
#pragma once

#include <memory>
#include <string>

#include "core/cost_model.hpp"
#include "core/deployment.hpp"
#include "util/histogram.hpp"
#include "workload/workload.hpp"

namespace dcache::core {

struct ExperimentConfig {
  std::uint64_t operations = 200000;   // measured ops
  std::uint64_t warmupOperations = 100000;
  double qps = 40000.0;                // offered load (§5.2: UC serves 40K)
  double targetUtilization = 0.7;      // peak-provisioning headroom
  Pricing pricing = Pricing::gcp();
  bool richObjects = false;            // serveObject() instead of serve()
};

/// Golden-regression fast mode: when the DCACHE_GOLDEN_OPS environment
/// variable is a positive integer, every ExperimentRunner caps operations
/// and warmupOperations at that value. Goldens are recorded and checked
/// under the same cap, so the comparison stays byte-exact while ctest runs
/// in seconds instead of minutes. Returns 0 when unset/invalid.
[[nodiscard]] std::uint64_t goldenOpsCap() noexcept;

struct ExperimentResult {
  std::string architecture;
  std::string workload;
  CostBreakdown cost;
  ServeCounters counters;
  /// Full measured-window latency distribution; cross-cell aggregation
  /// merges these (see core::mergedLatencies).
  util::Histogram latencies;
  double meanLatencyMicros = 0.0;
  double p99LatencyMicros = 0.0;
  double simulatedSeconds = 0.0;
  /// Trace aggregates + kept span trees (empty unless the deployment was
  /// configured with trace.sampleEvery > 0).
  obs::TraceSummary trace;

  [[nodiscard]] util::Money totalCost() const { return cost.totalCost; }
};

class ExperimentRunner {
 public:
  /// Applies the DCACHE_GOLDEN_OPS cap (see goldenOpsCap) to `config`.
  explicit ExperimentRunner(ExperimentConfig config = {});

  /// Run `workload` through `deployment`. The deployment must already be
  /// populated (populateKv / populateCatalog). Meters are cleared after
  /// warmup so only steady-state work is priced.
  ExperimentResult run(Deployment& deployment, workload::Workload& workload);

  [[nodiscard]] const ExperimentConfig& config() const noexcept {
    return config_;
  }

 private:
  ExperimentConfig config_;
};

/// Snapshot `deployment`'s meters since its last clearMeters() as one
/// result priced over `simulatedSeconds` (counters, cost, latencies,
/// trace). ExperimentRunner::run ends with this; the timeline harness calls
/// it once per window.
[[nodiscard]] ExperimentResult snapshotExperiment(
    Deployment& deployment, std::string workload, double simulatedSeconds,
    const ExperimentConfig& config = {});

/// Convenience: build a deployment for `arch`, populate it for `workload`,
/// run, and return the result. `deploymentConfig.architecture` is
/// overridden by `arch`.
ExperimentResult runArchitecture(Architecture arch,
                                 workload::Workload& workload,
                                 DeploymentConfig deploymentConfig,
                                 ExperimentConfig experimentConfig);

}  // namespace dcache::core
