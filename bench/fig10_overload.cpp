// Figure 10 — overload and metastability: what a traffic surge actually
// costs each architecture, and what the standard defenses buy back. Every
// tier gets a finite capacity (self-calibrated to 2x its steady-state CPU
// demand — the usual ~50% utilization provisioning target), so latency is
// service + queueing delay and a saturated tier rejects or times out. Each
// architecture then runs the same timeline twice, defenses off and on:
//
//   window 0-1  steady state (~50% utilization)
//   window 2-3  open-loop arrival surge: --surge x the offered QPS
//   window 4-5  hot-key storm: half of all reads hammer one key
//   window 6-7  recovery at steady load
//
// With defenses off, the retry path amplifies the collapse: every attempt
// abandoned by a client timeout still occupies the queue it timed out in —
// the classic metastable failure. Defenses on arms (1) CoDel-style
// admission control at the app tier (writes are never shed), (2)
// per-destination circuit breakers, (3) hedged requests against the p99
// tracker, and (4) a per-call deadline budget. Per window the bench
// reports p50/p99 (queueing included), goodput, shed/queue-timeout rates,
// breaker and hedge activity, and the retry-storm amplification factor;
// the summary prices the provisioning headroom (extra app nodes -> extra
// $) needed to hold the surge instead. Every cell is seeded from (--seed,
// cell index) alone, so output is byte-identical for any --jobs value.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "util/table_printer.hpp"

using namespace dcache;

namespace {

constexpr double kHotKeyFraction = 0.5;
constexpr std::size_t kOverloadFrom = 2, kOverloadUntil = 6;  // [2,6)

struct Fig10Options {
  double surgeMultiplier = 10.0;
  bool shed = true;
  bool breakers = true;
  bool hedge = true;
};

/// fig10-specific flags (--surge X, --shed 0|1, --breaker 0|1, --hedge
/// 0|1); the shared flags were already consumed by parseBenchOptions.
Fig10Options parseFig10Options(int argc, char** argv) {
  Fig10Options options;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = bench::flagValue(argc, argv, i, "--surge")) {
      options.surgeMultiplier = std::strtod(v, nullptr);
    } else if (const char* v = bench::flagValue(argc, argv, i, "--shed")) {
      options.shed = std::strtoull(v, nullptr, 10) != 0;
    } else if (const char* v = bench::flagValue(argc, argv, i, "--breaker")) {
      options.breakers = std::strtoull(v, nullptr, 10) != 0;
    } else if (const char* v = bench::flagValue(argc, argv, i, "--hedge")) {
      options.hedge = std::strtoull(v, nullptr, 10) != 0;
    }
  }
  return options;
}

[[nodiscard]] core::TimelineSpec timelineSpec(const Fig10Options& options) {
  core::TimelineSpec spec;
  spec.name = "fig10";
  spec.architectures.assign(std::begin(core::kAllArchitectures),
                            std::end(core::kAllArchitectures));
  spec.postures = {"bare", "defenses"};
  spec.phases = {"steady", "steady", "surge",   "surge",
                 "hotkey", "hotkey", "recover", "recover"};
  // Every tier can absorb 2x its steady CPU demand before queueing starts.
  spec.headroom = 2.0;
  spec.configure = [options](const core::TimelineCell& cell,
                             core::DeploymentConfig& config) {
    if (cell.posture == 0) return;  // bare
    if (options.shed) {
      config.overload.shed.enabled = true;
      // Stabilize the queue below the RPC timeout cliff: start shedding at
      // half the timeout, ramp to the cap within another timeout's worth.
      config.overload.shed.targetDelayMicros =
          config.rpcPolicy.timeoutMicros * 0.5;
      config.overload.shed.graceMicros = config.rpcPolicy.timeoutMicros;
      config.overload.shed.rampMicros = config.rpcPolicy.timeoutMicros;
    }
    config.overload.breakersEnabled = options.breakers;
    config.overload.breaker.openMicros = 20000.0;
    config.overload.hedgingEnabled = options.hedge;
    // Satellite defense: a per-call budget stops a doomed call after ~2
    // timeouts' worth of waiting instead of burning the whole ladder.
    config.rpcPolicy.deadlineMicros = config.rpcPolicy.timeoutMicros * 2.5;
  };
  spec.surge = [options](std::size_t window) {
    workload::SurgePhase phase;
    if (window == 2 || window == 3) {
      phase.qpsMultiplier = options.surgeMultiplier;
    }
    if (window == 4 || window == 5) phase.hotKeyFraction = kHotKeyFraction;
    return phase;
  };
  return spec;
}

[[nodiscard]] double windowOps(const core::ExperimentResult& window) {
  return static_cast<double>(window.counters.reads + window.counters.writes);
}

/// Fraction of ops answered (not shed, not failed).
[[nodiscard]] double goodput(const core::ExperimentResult& window) {
  const core::ServeCounters& c = window.counters;
  return (windowOps(window) -
          static_cast<double>(c.sheddedRequests + c.failedOps)) /
         windowOps(window);
}

/// RPC attempts per op vs the no-retry floor.
[[nodiscard]] double amplification(const core::ExperimentResult& window) {
  return 1.0 + static_cast<double>(window.counters.retries) / windowOps(window);
}

[[nodiscard]] double p99(const core::ExperimentResult& window) {
  return window.p99LatencyMicros;
}

void printCell(const core::TimelineSpec& spec,
               const core::TimelineResult& cell, std::size_t index) {
  util::TablePrinter table({"window", "phase", "p50_us", "p99_us", "goodput",
                            "hit_ratio", "shed", "queue_to", "brk_open",
                            "brk_sc", "hedges", "hedge_wins", "retries",
                            "failed", "amp", "window_cost"});
  for (std::size_t w = 0; w < cell.windows.size(); ++w) {
    const core::ExperimentResult& window = cell.windows[w];
    const core::ServeCounters& c = window.counters;
    table.row(w, spec.phases[w], window.latencies.p50(),
              window.p99LatencyMicros, goodput(window), c.hitRatio(),
              c.sheddedRequests, c.queueTimeouts + c.queueRejections,
              c.breakerOpens, c.breakerShortCircuits, c.hedgesSent,
              c.hedgeWins, c.retries, c.failedOps, amplification(window),
              window.cost.totalCost.str());
  }
  char title[160];
  std::snprintf(title, sizeof title,
                "\nFigure 10 [%s, defenses=%s]: overload timeline (%lluK-op "
                "windows, capacity=%.0fx steady)",
                cell.windows.front().architecture.c_str(),
                index < spec.architectures.size() ? "off" : "on",
                static_cast<unsigned long long>(spec.budget.windowOps / 1000),
                spec.headroom);
  table.print(title);
}

/// Worst (lowest) goodput across the overloaded windows.
[[nodiscard]] double worstGoodput(const core::TimelineResult& cell) {
  double worst = 1.0;
  for (std::size_t w = kOverloadFrom; w < kOverloadUntil; ++w) {
    worst = std::min(worst, goodput(cell.windows[w]));
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::parseBenchOptions(argc, argv);
  const Fig10Options fig10 = parseFig10Options(argc, argv);
  const core::TimelineSpec spec = timelineSpec(fig10);
  const std::vector<core::TimelineResult> cells =
      core::runTimeline(spec, options.matrix, options.trace);
  const std::size_t archs = spec.architectures.size();

  for (std::size_t i = 0; i < cells.size(); ++i) printCell(spec, cells[i], i);

  // The metastability verdict: how much work the retry path multiplies the
  // surge into, with and without the defenses, and what the defenses keep.
  util::TablePrinter verdict({"architecture", "amp_off", "amp_on", "p99_off",
                              "p99_on", "goodput_off", "goodput_on"});
  for (std::size_t a = 0; a < archs; ++a) {
    const core::TimelineResult& off = cells[a];
    const core::TimelineResult& on = cells[a + archs];
    verdict.row(off.windows.front().architecture,
                bench::worstWindow(off, kOverloadFrom, kOverloadUntil,
                                   amplification),
                bench::worstWindow(on, kOverloadFrom, kOverloadUntil,
                                   amplification),
                bench::worstWindow(off, kOverloadFrom, kOverloadUntil, p99),
                bench::worstWindow(on, kOverloadFrom, kOverloadUntil, p99),
                worstGoodput(off), worstGoodput(on));
  }
  char verdictTitle[160];
  std::snprintf(verdictTitle, sizeof verdictTitle,
                "\nFigure 10 summary: worst overloaded window (2-5) at "
                "%.0fx surge, defenses off vs on",
                fig10.surgeMultiplier);
  verdict.print(verdictTitle);

  // Provisioning headroom: the other way to survive the surge is to buy
  // enough app servers that the peak fits under capacity. Demand is
  // measured on the *bare* cells — without defenses the retry storm is
  // part of the load you must provision for.
  util::TablePrinter headroom({"architecture", "steady_cost", "peak_cost",
                               "peak_phase", "headroom_delta",
                               "extra_app_nodes", "extra_app_cost"});
  for (std::size_t a = 0; a < archs; ++a) {
    const core::TimelineResult& cell = cells[a];
    const util::Money steady = cell.windows.front().cost.totalCost;
    const std::size_t peak = bench::costliestWindow(cell);
    double peakAppDemandPerSec = 0.0;
    for (const core::ExperimentResult& window : cell.windows) {
      if (window.simulatedSeconds > 0.0) {
        peakAppDemandPerSec = std::max(
            peakAppDemandPerSec,
            window.cost.tier(sim::TierKind::kAppServer)->cpuMicrosTotal /
                window.simulatedSeconds);
      }
    }
    // Nodes needed so the observed peak demand fits under the same
    // per-node capacity the steady tier was provisioned with.
    const std::size_t appServers = cell.config.appServers;
    const std::size_t neededNodes = static_cast<std::size_t>(std::ceil(
        peakAppDemandPerSec / cell.config.overload.appCapacityMicrosPerSec));
    const std::size_t extraNodes =
        neededNodes > appServers ? neededNodes - appServers : 0;
    const double perNodeUsd =
        cell.windows.front()
            .cost.tier(sim::TierKind::kAppServer)
            ->computeCost.dollars() /
        static_cast<double>(appServers);
    char extraCost[32];
    std::snprintf(extraCost, sizeof extraCost, "$%.2f/mo",
                  static_cast<double>(extraNodes) * perNodeUsd);
    headroom.row(cell.windows.front().architecture, steady.str(),
                 cell.windows[peak].cost.totalCost.str(), spec.phases[peak],
                 bench::premiumCell(steady, cell.windows[peak].cost.totalCost),
                 extraNodes, extraCost);
  }
  headroom.print("\nFigure 10 headroom: provisioning the surge away instead "
                 "(extra app nodes -> extra $)");
  bench::finishTimeline(spec, cells);
  return 0;
}
