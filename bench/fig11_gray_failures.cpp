// Figure 11 — gray failures and the cost of the nines: what a node that is
// sick-but-not-dead does to each architecture, and what it costs to defend
// against it. Hard crashes (fig9) are the easy case — the load balancer
// sees a dead pod and routes around it. A gray failure passes every health
// check: the node answers, just 10x slower, or drops a third of its
// messages, or is reachable from only one direction. All five
// architectures serve the synthetic workload through the same deterministic
// gray-fault timeline. Every tier gets a finite capacity (self-calibrated
// to 3x its steady CPU demand), because that is what makes a slow node
// dangerous in practice: its work takes 10x the core-micros, its queue
// outgrows the RPC timeout, and every request routed to it times out while
// the node still passes health checks. The timeline:
//
//   window 0-1  steady state
//   window 2-3  slow node: the cache-bearing node 0 runs --slow x slower
//               (CPU and every RPC leg it touches)
//   window 4    asymmetric partition: requests toward the cache (Remote)
//               or toward KV storage (others) are lost; replies and the
//               reverse direction still flow
//   window 5    flaky node: node 0 drops each message leg with --flakyp
//   window 6-7  recovery
//
// Each architecture runs the timeline three ways:
//   none     retries/timeouts only — the fig9 baseline posture
//   breaker  + per-destination circuit breakers (binary, blind to
//            slow-but-answering nodes)
//   full     + deterministic health monitoring with outlier ejection and
//            probing re-admission, and cache replication --rf with
//            replica-fallback reads and write-all fan-out
//
// Per window the bench reports p50/p99, hit ratio, goodput, ejections,
// fallback/stale replica reads and fan-out writes; the summary gives the
// tail drag per posture (the acceptance story: bare, the slow node drags
// p99 several-fold; full, the tail stays near steady), the detection lag,
// and the "cost of the nines" — the steady-state premium the defenses
// bill (fan-out CPU, probe traffic) against the provisioning headroom
// you'd need to ride the gray window out bare. Every cell is seeded from
// (--seed, cell index) alone, so output is byte-identical at any --jobs.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "util/table_printer.hpp"

using namespace dcache;

namespace {

enum Posture : std::size_t { kNone = 0, kBreaker = 1, kFull = 2 };

constexpr std::size_t kSlowFrom = 2, kSlowUntil = 4;   // windows [2,4)
constexpr std::size_t kPartitionWindow = 4;            // window  [4,5)
constexpr std::size_t kFlakyWindow = 5;                // window  [5,6)

struct Fig11Options {
  double slowFactor = 10.0;
  double flakyDrop = 0.3;
  std::size_t replicationFactor = 2;
};

/// fig11-specific flags (--slow X, --flakyp P, --rf N); the shared flags
/// were already consumed by parseBenchOptions.
Fig11Options parseFig11Options(int argc, char** argv) {
  Fig11Options options;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = bench::flagValue(argc, argv, i, "--slow")) {
      options.slowFactor = std::strtod(v, nullptr);
    } else if (const char* v = bench::flagValue(argc, argv, i, "--flakyp")) {
      options.flakyDrop = std::strtod(v, nullptr);
    } else if (const char* v = bench::flagValue(argc, argv, i, "--rf")) {
      options.replicationFactor = std::strtoull(v, nullptr, 10);
    }
  }
  return options;
}

/// Tier whose node 0 the gray faults target: wherever this architecture
/// keeps its cache-adjacent hot path. Base has no cache tier; its app node
/// going gray is the closest equivalent.
[[nodiscard]] sim::TierKind grayTier(core::Architecture arch) {
  switch (arch) {
    case core::Architecture::kRemote: return sim::TierKind::kRemoteCache;
    case core::Architecture::kDisaggregated: return sim::TierKind::kFarMemory;
    default: return sim::TierKind::kAppServer;
  }
}

[[nodiscard]] core::TimelineSpec timelineSpec(const Fig11Options& options) {
  core::TimelineSpec spec;
  spec.name = "fig11";
  spec.architectures.assign(std::begin(core::kAllArchitectures),
                            std::end(core::kAllArchitectures));
  spec.postures = {"none", "breaker", "full"};
  spec.phases = {"steady",    "steady", "slow",    "slow",
                 "partition", "flaky",  "recover", "recover"};
  // Higher than fig10's 2x on purpose: when a node is ejected its replica
  // absorbs the displaced traffic, so surviving a single-node gray failure
  // needs the remaining nodes to run doubled load below saturation.
  spec.headroom = 3.0;
  spec.configure = [options](const core::TimelineCell& cell,
                             core::DeploymentConfig& config) {
    if (cell.posture == kBreaker || cell.posture == kFull) {
      config.overload.breakersEnabled = true;
      config.overload.breaker.openMicros = 20000.0;
    }
    if (cell.posture == kFull) {
      config.health.enabled = true;
      config.cacheReplicationFactor = options.replicationFactor;
    }
  };
  spec.faults = [options](const core::TimelineCell& cell,
                          sim::FaultSchedule& faults) {
    const sim::TierKind tier = grayTier(cell.architecture);
    faults.slowNode(cell.windowStartMicros(kSlowFrom),
                    cell.windowStartMicros(kSlowUntil), tier, 0,
                    options.slowFactor);
    // Remote: requests toward the cache are lost while replies still flow,
    // so the cache looks healthy from its own side. Disaggregated: one-sided
    // reads toward the healthy far-memory pool are lost. Others: SQL -> KV
    // requests are lost, stalling the miss path (and Base's every read)
    // while a warm cache shields whatever it already holds.
    sim::TierKind from = sim::TierKind::kSqlFrontend;
    sim::TierKind to = sim::TierKind::kKvStorage;
    if (cell.architecture == core::Architecture::kRemote ||
        cell.architecture == core::Architecture::kDisaggregated) {
      from = sim::TierKind::kAppServer;
      to = tier;
    }
    faults.partialPartition(cell.windowStartMicros(kPartitionWindow),
                            cell.windowStartMicros(kPartitionWindow + 1),
                            from, to);
    faults.flakyNode(cell.windowStartMicros(kFlakyWindow),
                     cell.windowStartMicros(kFlakyWindow + 1), tier, 0,
                     options.flakyDrop);
  };
  return spec;
}

void printCell(const core::TimelineSpec& spec,
               const core::TimelineResult& cell, std::size_t index) {
  util::TablePrinter table({"window", "phase", "p50_us", "p99_us", "goodput",
                            "hit_ratio", "degraded", "retries", "timeouts",
                            "failed", "brk_sc", "eject", "fallback", "stale",
                            "fanout", "window_cost"});
  for (std::size_t w = 0; w < cell.windows.size(); ++w) {
    const core::ExperimentResult& window = cell.windows[w];
    const core::ServeCounters& c = window.counters;
    const double ops = static_cast<double>(c.reads + c.writes);
    table.row(w, spec.phases[w], window.latencies.p50(),
              window.p99LatencyMicros,
              (ops - static_cast<double>(c.failedOps)) / ops, c.hitRatio(),
              c.degradedReads, c.retries, c.timeouts, c.failedOps,
              c.breakerShortCircuits, c.ejectedNodes, c.replicaFallbackReads,
              c.staleReplicaReads, c.replicaWriteFanout,
              window.cost.totalCost.str());
  }
  char title[160];
  std::snprintf(
      title, sizeof title,
      "\nFigure 11 [%s, defenses=%s]: gray-failure timeline (%lluK-op "
      "windows)",
      cell.windows.front().architecture.c_str(),
      spec.postures[index / spec.architectures.size()].c_str(),
      static_cast<unsigned long long>(spec.budget.windowOps / 1000));
  table.print(title);
}

/// Steady-state reference latency: window 1 (window 0 still carries a
/// little residual warmup drift in some cells).
[[nodiscard]] double steadyP99(const core::TimelineResult& cell) {
  return cell.windows[1].p99LatencyMicros;
}

/// How far the slow-node windows drag p99 off the cell's steady state —
/// the headline gray failure (the partition window is a partial outage, a
/// different story).
[[nodiscard]] std::string slowDrag(const core::TimelineResult& cell) {
  const double steady = steadyP99(cell);
  const double worst = bench::worstWindow(
      cell, kSlowFrom, kSlowUntil,
      [](const core::ExperimentResult& w) { return w.p99LatencyMicros; });
  return bench::ratioCell(steady > 0.0 ? worst / steady : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::parseBenchOptions(argc, argv);
  const Fig11Options fig11 = parseFig11Options(argc, argv);
  const core::TimelineSpec spec = timelineSpec(fig11);
  const std::vector<core::TimelineResult> cells =
      core::runTimeline(spec, options.matrix, options.trace);
  const std::size_t archs = spec.architectures.size();

  for (std::size_t i = 0; i < cells.size(); ++i) printCell(spec, cells[i], i);

  // The tail-drag verdict: how far the slow node drags p99 off each
  // posture's own steady state. The acceptance story: bare, several-fold;
  // full (ejection + replicas), the tail stays near steady.
  util::TablePrinter verdict({"architecture", "p99_steady", "drag_none",
                              "drag_breaker", "drag_full", "ejections",
                              "readmits", "detect_ms"});
  for (std::size_t a = 0; a < archs; ++a) {
    const core::TimelineResult& none = cells[a];
    const core::TimelineResult& full = cells[a + kFull * archs];
    double lagMicros = 0.0;
    for (const core::ExperimentResult& w : full.windows) {
      lagMicros += w.counters.detectionLagMicros;
    }
    char detect[24];
    std::snprintf(detect, sizeof detect, "%.1f",
                  full.totalEjections > 0
                      ? lagMicros / 1000.0 /
                            static_cast<double>(full.totalEjections)
                      : 0.0);
    verdict.row(none.windows.front().architecture, steadyP99(none),
                slowDrag(none), slowDrag(cells[a + kBreaker * archs]),
                slowDrag(full), full.totalEjections, full.readmissions,
                detect);
  }
  char verdictTitle[200];
  std::snprintf(verdictTitle, sizeof verdictTitle,
                "\nFigure 11 verdict: slow-node (%.0fx) p99 drag vs own "
                "steady state, by defense posture (avg detection lag in ms)",
                fig11.slowFactor);
  verdict.print(verdictTitle);

  // The cost of the nines: the full posture bills its premium every hour
  // of steady state (fan-out writes, probe traffic, replica fills); the
  // bare posture pays nothing until the gray window, where its worst-hour
  // bill — the headroom an auto-scaler would provision for — spikes.
  util::TablePrinter nines({"architecture", "steady_bare", "steady_full",
                            "nines_premium", "peak_bare", "bare_headroom"});
  for (std::size_t a = 0; a < archs; ++a) {
    const core::TimelineResult& none = cells[a];
    const util::Money steadyBare = none.windows[1].cost.totalCost;
    const util::Money steadyFull =
        cells[a + kFull * archs].windows[1].cost.totalCost;
    const util::Money peakBare =
        none.windows[bench::costliestWindow(none)].cost.totalCost;
    nines.row(none.windows.front().architecture, steadyBare.str(),
              steadyFull.str(), bench::premiumCell(steadyBare, steadyFull),
              peakBare.str(), bench::premiumCell(steadyBare, peakBare));
  }
  nines.print("\nFigure 11 cost of the nines: always-on defense premium vs "
              "the headroom a bare deployment provisions for its worst "
              "gray window");
  bench::finishTimeline(spec, cells);
  return 0;
}
