// Shared helpers for the figure-reproduction benches.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <sys/resource.h>

#include "core/experiment.hpp"
#include "core/matrix.hpp"
#include "core/report.hpp"
#include "core/timeline.hpp"
#include "obs/metrics.hpp"

namespace dcache::bench {

/// Common bench flags: the matrix options (--jobs/--seed) plus the
/// observability flags every figure bench shares. All default to off, so a
/// bench invoked with no flags produces byte-identical output to a build
/// without the obs subsystem.
struct BenchOptions {
  core::MatrixOptions matrix;
  /// --trace-sample N (0 = off, 1 = every request, N = seeded 1-in-N) and
  /// --trace-keep K (span trees retained per cell).
  obs::TraceConfig trace;
  /// --metrics-out FILE: write the unified metrics registry as JSON.
  std::string metricsOut;
  /// --bench-json FILE: write a perf-trajectory record (schema
  /// dcache.bench.v1) with wall-clock, ops/sec and peak RSS. Timing data
  /// goes to this sidecar only — stdout stays byte-deterministic.
  std::string benchJsonOut;
  /// argv[0] basename, for the perf record's bench name.
  std::string benchName;
  /// Process wall-clock start, captured in parseBenchOptions.
  // dcache-lint: allow(determinism, wall-clock member feeds only the --bench-json perf sidecar, never stdout)
  std::chrono::steady_clock::time_point startTime;
};

/// Per-binary options singleton, set by parseBenchOptions.
[[nodiscard]] inline BenchOptions& benchOptions() {
  static BenchOptions options;
  return options;
}

/// The value of argv[i] when it is `flag`: "--flag value" (advancing i
/// past the value) or "--flag=value". nullptr for any other argument, so a
/// bench parses its own flags with a loop of these, like the shared ones
/// below; unrecognized arguments are ignored, matching parseMatrixOptions.
[[nodiscard]] inline const char* flagValue(int argc, char** argv, int& i,
                                           std::string_view flag) {
  const std::string_view arg = argv[i];
  if (arg == flag) return i + 1 < argc ? argv[++i] : nullptr;
  if (arg.size() > flag.size() + 1 && arg.starts_with(flag) &&
      arg[flag.size()] == '=') {
    return argv[i] + flag.size() + 1;
  }
  return nullptr;
}

/// Parse shared bench flags out of argv and store the result in
/// benchOptions().
[[nodiscard]] inline BenchOptions parseBenchOptions(int argc, char** argv) {
  BenchOptions options;
  options.matrix = core::parseMatrixOptions(argc, argv);
  options.trace.seed = options.matrix.rootSeed;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = flagValue(argc, argv, i, "--trace-sample")) {
      options.trace.sampleEvery =
          static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
    } else if (const char* v = flagValue(argc, argv, i, "--trace-keep")) {
      options.trace.keepTraces =
          static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (const char* v = flagValue(argc, argv, i, "--metrics-out")) {
      options.metricsOut = v;
    } else if (const char* v = flagValue(argc, argv, i, "--bench-json")) {
      options.benchJsonOut = v;
    }
  }
  if (argc > 0) {
    std::string_view name = argv[0];
    if (const auto slash = name.rfind('/'); slash != std::string_view::npos) {
      name.remove_prefix(slash + 1);
    }
    options.benchName = name;
  }
  // Wall-clock feeds only the --bench-json perf sidecar, never stdout, so
  // the --jobs determinism contract is untouched.
  // dcache-lint: allow(determinism, bench wall-clock goes to the --bench-json perf sidecar only)
  options.startTime = std::chrono::steady_clock::now();
  benchOptions() = options;
  return options;
}

/// Apply the bench-wide trace config to a cell's deployment (a deployment
/// that already configured its own tracing wins).
[[nodiscard]] inline core::DeploymentConfig withBenchTrace(
    core::DeploymentConfig deployment) {
  if (benchOptions().trace.enabled() && !deployment.trace.enabled()) {
    deployment.trace = benchOptions().trace;
  }
  return deployment;
}

/// Stable per-cell metric/report prefix: cell index + architecture +
/// workload (the index disambiguates sweeps that reuse both).
[[nodiscard]] inline std::string cellLabel(
    std::size_t index, const core::ExperimentResult& result) {
  return "cell" + std::to_string(index) + "." + result.architecture + "." +
         result.workload;
}

/// Perf-trajectory record (schema dcache.bench.v1): wall-clock, simulated
/// op throughput (`ops` measured ops over `cells` cells) and peak RSS for
/// one bench invocation. tools/perf.sh records these per bench into
/// perf/BENCH_<name>.json and fails the perf lane on >20% wall-clock
/// regressions; stdout (golden-diffed) is never touched.
inline void writeBenchJson(const BenchOptions& options, std::uint64_t ops = 0,
                           std::size_t cells = 0) {
  // dcache-lint: allow(determinism, bench wall-clock goes to the --bench-json perf sidecar only)
  const auto end = std::chrono::steady_clock::now();
  const double wallMs =
      std::chrono::duration<double, std::milli>(end - options.startTime)
          .count();
  const double opsPerSec = wallMs > 0.0 ? ops * 1000.0 / wallMs : 0.0;
  long peakRssKb = 0;
  if (rusage usage{}; getrusage(RUSAGE_SELF, &usage) == 0) {
    peakRssKb = usage.ru_maxrss;  // KiB on Linux
  }
  std::FILE* f = std::fopen(options.benchJsonOut.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: could not write bench json to %s\n",
                 options.benchJsonOut.c_str());
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"schema\": \"dcache.bench.v1\",\n"
               "  \"bench\": \"%s\",\n"
               "  \"wall_ms\": %.1f,\n"
               "  \"ops\": %llu,\n"
               "  \"ops_per_sec\": %.1f,\n"
               "  \"peak_rss_kb\": %ld,\n"
               "  \"cells\": %zu\n"
               "}\n",
               options.benchName.c_str(), wallMs,
               static_cast<unsigned long long>(ops), opsPerSec, peakRssKb,
               cells);
  std::fclose(f);
}

/// Write `registry` to the --metrics-out file as JSON.
inline void writeMetrics(const obs::MetricsRegistry& registry) {
  const std::string& path = benchOptions().metricsOut;
  if (!registry.writeJsonFile(path)) {
    std::fprintf(stderr, "warning: could not write metrics to %s\n",
                 path.c_str());
  }
}

/// Shared bench epilogue: when --trace-sample is on, print each traced
/// cell's trace-tree report; when --metrics-out is given, publish every
/// cell into one registry and write it as JSON. A bench run with neither
/// flag emits nothing here, keeping default stdout byte-identical.
inline void finishBench(std::span<const core::ExperimentResult> results) {
  const BenchOptions& options = benchOptions();
  if (options.trace.enabled()) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!results[i].trace.enabled()) continue;
      std::printf("\n%s",
                  core::traceTreeReport(results[i],
                                        "trace " + cellLabel(i, results[i]),
                                        /*maxTraces=*/1)
                      .c_str());
    }
  }
  if (!options.metricsOut.empty()) {
    obs::MetricsRegistry registry;
    for (std::size_t i = 0; i < results.size(); ++i) {
      core::exportExperimentMetrics(registry, cellLabel(i, results[i]) + ".",
                                    results[i]);
    }
    writeMetrics(registry);
  }
  if (!options.benchJsonOut.empty()) {
    std::uint64_t ops = 0;
    for (const core::ExperimentResult& r : results) {
      ops += r.counters.reads + r.counters.writes;
    }
    writeBenchJson(options, ops, results.size());
  }
}

/// Timeline epilogue (fig9-12): each cell's final-window trace report
/// (clearMeters resets the tracer every window), every window of every cell
/// through exportTimelineMetrics, and the measured-window op count.
inline void finishTimeline(const core::TimelineSpec& spec,
                           std::span<const core::TimelineResult> cells) {
  const BenchOptions& options = benchOptions();
  std::uint64_t ops = 0;
  for (const core::TimelineResult& cell : cells) {
    if (options.trace.enabled()) {
      std::printf("\n%s", core::traceTreeReport(
                              cell.windows.back(),
                              "trace " + spec.name + "." + cell.label +
                                  " (final window)",
                              /*maxTraces=*/1)
                              .c_str());
    }
    for (const core::ExperimentResult& window : cell.windows) {
      ops += window.counters.reads + window.counters.writes;
    }
  }
  if (!options.metricsOut.empty()) {
    obs::MetricsRegistry registry;
    core::exportTimelineMetrics(registry, spec.name + ".", cells);
    writeMetrics(registry);
  }
  if (!options.benchJsonOut.empty()) {
    writeBenchJson(options, ops, cells.size());
  }
}

/// Offered load for the compute-bound synthetic sweeps. The paper's testbed
/// runs its deployments compute-bound (provisioning follows peak CPU); at
/// trivially low QPS fixed memory would dominate every bill and mask the
/// architecture differences the figures are about.
inline constexpr double kSyntheticQps = 120000.0;
/// Unity Catalog serves ~40K complex queries per second (§5.2).
inline constexpr double kUcQps = 40000.0;

/// "1.23x"
[[nodiscard]] inline std::string ratioCell(double ratio) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%.2fx", ratio);
  return buf;
}

[[nodiscard]] inline std::string savingCell(const core::ExperimentResult& base,
                                            const core::ExperimentResult& r) {
  return ratioCell(core::savingsVs(base, r));
}

/// "+12.3%": what `other` bills over `base`.
[[nodiscard]] inline std::string premiumCell(util::Money base,
                                             util::Money other) {
  const double pct = base.micros() > 0
                         ? (static_cast<double>(other.micros()) /
                                static_cast<double>(base.micros()) -
                            1.0) * 100.0
                         : 0.0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "+%.1f%%", pct);
  return buf;
}

/// Index of a timeline cell's costliest window (the first one on ties).
[[nodiscard]] inline std::size_t costliestWindow(
    const core::TimelineResult& cell) {
  std::size_t peak = 0;
  for (std::size_t w = 1; w < cell.windows.size(); ++w) {
    if (cell.windows[w].cost.totalCost.micros() >
        cell.windows[peak].cost.totalCost.micros()) {
      peak = w;
    }
  }
  return peak;
}

/// Largest `metric(window)` over a cell's windows [from, until), floor 0.
template <typename Metric>
[[nodiscard]] double worstWindow(const core::TimelineResult& cell,
                                 std::size_t from, std::size_t until,
                                 Metric metric) {
  double worst = 0.0;
  for (std::size_t w = from; w < until; ++w) {
    worst = std::max(worst, metric(cell.windows[w]));
  }
  return worst;
}

/// Queue one (architecture, workload) cell on `matrix`; the cell builds a
/// fresh deployment and copies the workload template so nothing is shared
/// across workers. Returns the cell's result index.
template <typename WorkloadT>
std::size_t addCell(core::ExperimentMatrix& matrix, core::Architecture arch,
                    const WorkloadT& workloadTemplate,
                    core::DeploymentConfig deployment,
                    core::ExperimentConfig experiment) {
  deployment = withBenchTrace(deployment);
  return matrix.add(
      [arch, workloadTemplate, deployment, experiment](util::Pcg32&) {
        WorkloadT workload = workloadTemplate;  // fresh RNG state per cell
        return core::runArchitecture(arch, workload, deployment, experiment);
      });
}

/// Run one (architecture, workload) cell inline with a fresh deployment.
template <typename WorkloadT>
core::ExperimentResult runCell(core::Architecture arch,
                               const WorkloadT& workloadTemplate,
                               core::DeploymentConfig deployment,
                               core::ExperimentConfig experiment) {
  WorkloadT workload = workloadTemplate;  // fresh RNG state per cell
  return core::runArchitecture(arch, workload, withBenchTrace(deployment),
                               experiment);
}

}  // namespace dcache::bench
