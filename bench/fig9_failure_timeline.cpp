// Figure 9 — failure timeline: what each architecture's bill and behaviour
// look like when the cache actually fails. All four architectures serve the
// synthetic workload through a steady -> crash -> recovery timeline driven
// by a deterministic FaultSchedule:
//
//   window 0-1  steady state
//   window 2    a cache-bearing node crashes (app node for Linked/-Version,
//               remote pod for Remote, a KV node's block cache for Base),
//               coincident with a degraded-network window (2x latency, 1%
//               per-leg message drops) — failures cluster in practice
//   window 3-4  node stays down; survivors absorb the traffic
//   window 5    cold restart: ownership returns, caches re-warm
//   window 6-7  recovery
//
// Per window the bench reports hit ratio, storage-read amplification vs
// steady state, p99 latency, the retry/timeout anatomy and the CPU burned
// on legs that never paid off — then summarizes the provisioned-cost
// headroom each architecture needs to ride out its worst window. The paper
// prices steady state; this is the availability cost riding on top: Linked
// loses ~1/N of its hit ratio to a single crash and re-pays warmup twice,
// Remote degrades to storage for 1/N of keys, Base only re-warms a block
// cache. Every cell is seeded from (--seed, cell index) alone, so output
// is byte-identical for any --jobs value.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "util/table_printer.hpp"

using namespace dcache;

namespace {

constexpr std::size_t kCrashWindow = 2;
constexpr std::size_t kRestartWindow = 5;
constexpr double kDegradeLatencyFactor = 2.0;
constexpr double kDegradeDropProbability = 0.01;

/// Tier whose node 0 the schedule crashes: wherever this architecture
/// keeps its cache.
[[nodiscard]] sim::TierKind crashTier(core::Architecture arch) {
  switch (arch) {
    case core::Architecture::kRemote:
      return sim::TierKind::kRemoteCache;
    case core::Architecture::kDisaggregated:
      return sim::TierKind::kFarMemory;
    case core::Architecture::kLinked:
    case core::Architecture::kLinkedVersion:
      return sim::TierKind::kAppServer;
    case core::Architecture::kBase:
      break;
  }
  return sim::TierKind::kKvStorage;  // Base: the block cache is the cache
}

[[nodiscard]] core::TimelineSpec timelineSpec() {
  core::TimelineSpec spec;
  spec.name = "fig9";
  spec.architectures = {
      core::Architecture::kBase, core::Architecture::kRemote,
      core::Architecture::kLinked, core::Architecture::kLinkedVersion};
  spec.phases = {"steady", "steady",        "crash+degrade", "down",
                 "down",   "restart(cold)", "rewarm",        "rewarm"};
  spec.faults = [](const core::TimelineCell& cell, sim::FaultSchedule& faults) {
    const sim::TierKind tier = crashTier(cell.architecture);
    faults.crashNode(cell.windowStartMicros(kCrashWindow), tier, 0);
    faults.restartNode(cell.windowStartMicros(kRestartWindow), tier, 0);
    faults.degradeNetwork(cell.windowStartMicros(kCrashWindow),
                          cell.windowStartMicros(kCrashWindow + 1),
                          kDegradeLatencyFactor, kDegradeDropProbability);
  };
  return spec;
}

void printTimeline(const core::TimelineSpec& spec,
                   const core::TimelineResult& cell) {
  util::TablePrinter table({"window", "phase", "hit_ratio", "storage_reads",
                            "amp", "p99_us", "retries", "timeouts", "failed",
                            "degraded", "coalesced", "wasted_cpu_us",
                            "window_cost"});
  // Storage-read amplification vs steady window 0.
  const double steadyReads =
      static_cast<double>(cell.windows.front().counters.storageReads);
  for (std::size_t w = 0; w < cell.windows.size(); ++w) {
    const core::ExperimentResult& window = cell.windows[w];
    const core::ServeCounters& c = window.counters;
    table.row(w, spec.phases[w], c.hitRatio(), c.storageReads,
              steadyReads > 0.0
                  ? static_cast<double>(c.storageReads) / steadyReads
                  : 1.0,
              window.p99LatencyMicros, c.retries, c.timeouts, c.failedCalls,
              c.degradedReads, c.coalescedMisses, c.wastedCpuMicros,
              window.cost.totalCost.str());
  }
  char title[128];
  std::snprintf(title, sizeof title,
                "\nFigure 9 [%s]: failure timeline (%lluK-op windows at "
                "%.0fK QPS)",
                cell.label.c_str(),
                static_cast<unsigned long long>(spec.budget.windowOps / 1000),
                core::kTimelineQps / 1000.0);
  table.print(title);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::parseBenchOptions(argc, argv);
  const core::TimelineSpec spec = timelineSpec();
  const std::vector<core::TimelineResult> cells =
      core::runTimeline(spec, options.matrix, options.trace);

  for (const core::TimelineResult& cell : cells) printTimeline(spec, cell);

  // Provisioned-cost headroom: if the platform provisions for the worst
  // window instead of steady state (auto-scalers trigger on CPU), this is
  // the premium each architecture pays for its failure mode.
  util::TablePrinter summary({"architecture", "steady_cost", "peak_cost",
                              "peak_phase", "headroom_delta"});
  for (const core::TimelineResult& cell : cells) {
    const util::Money steady = cell.windows.front().cost.totalCost;
    const std::size_t peak = bench::costliestWindow(cell);
    const util::Money peakCost = cell.windows[peak].cost.totalCost;
    summary.row(cell.label, steady.str(), peakCost.str(), spec.phases[peak],
                bench::premiumCell(steady, peakCost));
  }
  summary.print("\nFigure 9 summary: provisioning for the worst window "
                "(peak vs steady headroom)");
  bench::finishTimeline(spec, cells);
  return 0;
}
