// Figure 12 — membership churn: what planned topology change (rolling
// restarts, scale events, drains) costs each architecture, and whether warm
// key handoff buys its bandwidth back. fig9 crashed nodes; here every
// transition is *planned*, which means the system gets to choose a posture:
//
//   cold  ownership moves instantly and the departing shard dies with the
//         process — zero handoff bandwidth, full miss cliff (every moved
//         key is re-read from storage on first touch).
//   warm  the same schedule with handoff enabled: a leaving node drains out
//         of the ring but keeps serving through a bounded transfer window
//         while a background pump migrates its keys to the new owners in
//         rate-limited, RPC-batched transfers; misses at the new owner
//         dual-read the old owner before storage; writes that land
//         mid-window fence the old copy so nothing stale is resurrected.
//
// All five architectures run the same deterministic churn timeline against
// the tier that carries their cache state (Remote: cache pods, Disagg: the
// far-memory pool, others: the app tier):
//
//   window 0-1  steady state
//   window 2-3  rolling-restart wave: nodes 0 and 1 drain out and rejoin
//               half a window later, one per window (the deploy train)
//   window 4    scale-out: a provisioned-but-absent spare joins the ring
//   window 5    flash drain: node 2 leaves for good (scale-in, no rejoin)
//   window 6-7  recovery
//
// Per window the bench reports p50/p99, hit ratio, storage amplification
// (storage reads per read — the miss-storm metric), migration volume and
// fencing actions; the verdict tables give the churn-window p99 drag and
// amplification per posture, and the handoff bill: the $/op premium warm
// handoff pays during churn vs the peak-window bill a cold deployment must
// overprovision for. Every cell is seeded from (--seed, cell index) alone,
// so output is byte-identical at any --jobs.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "util/table_printer.hpp"

using namespace dcache;

namespace {

constexpr std::size_t kRestartFrom = 2;   // windows [2,4): the deploy train
constexpr std::size_t kScaleOutWindow = 4;
constexpr std::size_t kDrainWindow = 5;
constexpr std::size_t kChurnFrom = 2, kChurnUntil = 6;  // churn windows [2,6)

struct Fig12Options {
  // The pump runs in the background QoS class (metered and billed, but
  // never queued ahead of foreground requests), so pacing only bounds how
  // much bandwidth the handoff bill line shows per window.
  std::size_t handoffKeysPerBatch = 512;
  std::uint64_t handoffBatchIntervalMicros = 1000;
};

/// fig12-specific flags (--hkeys N, --hinterval US); the shared flags were
/// already consumed by parseBenchOptions.
Fig12Options parseFig12Options(int argc, char** argv) {
  Fig12Options options;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = bench::flagValue(argc, argv, i, "--hkeys")) {
      options.handoffKeysPerBatch = std::strtoull(v, nullptr, 10);
    } else if (const char* v = bench::flagValue(argc, argv, i, "--hinterval")) {
      options.handoffBatchIntervalMicros = std::strtoull(v, nullptr, 10);
    }
  }
  return options;
}

/// Tier the churn timeline runs against: wherever this architecture keeps
/// its cache state. Base has no cache tier; churning its app servers shows
/// the null story (routing around, no state to move).
[[nodiscard]] sim::TierKind churnTier(core::Architecture arch) {
  switch (arch) {
    case core::Architecture::kRemote: return sim::TierKind::kRemoteCache;
    case core::Architecture::kDisaggregated: return sim::TierKind::kFarMemory;
    default: return sim::TierKind::kAppServer;
  }
}

[[nodiscard]] core::TimelineSpec timelineSpec(const Fig12Options& options) {
  core::TimelineSpec spec;
  spec.name = "fig12";
  spec.architectures.assign(std::begin(core::kAllArchitectures),
                            std::end(core::kAllArchitectures));
  spec.postures = {"cold", "warm"};
  spec.phases = {"steady",   "steady", "restart", "restart",
                 "scaleout", "drain",  "recover", "recover"};
  // 2x serves steady state comfortably but turns a cold reshard's miss
  // storm into real queueing at SQL/KV — which is exactly why operators
  // overprovision through deploy trains.
  spec.headroom = 2.0;
  spec.configure = [](const core::TimelineCell& cell,
                      core::DeploymentConfig& config) {
    // The churn tier carries one provisioned-but-absent spare (index 3) for
    // the scale-out step; the base fleet is nodes 0-2.
    switch (churnTier(cell.architecture)) {
      case sim::TierKind::kRemoteCache: config.remoteCacheNodes = 4; break;
      case sim::TierKind::kFarMemory: config.farMemoryNodes = 4; break;
      default: config.appServers = 4; break;
    }
  };
  // The handoff window is a quarter of a bench window — half the
  // rolling-restart downtime, so a draining node is fully retired before
  // its replacement rejoins.
  spec.membership = [options](const core::TimelineCell& cell,
                              core::MembershipSchedule& schedule,
                              core::HandoffConfig& handoff) {
    const sim::TierKind tier = churnTier(cell.architecture);
    const std::uint64_t windowMicros = cell.windowMicros();
    schedule.startAbsent(tier, 3);
    schedule.rollingRestart(cell.windowStartMicros(kRestartFrom), tier,
                            /*firstNode=*/0, /*count=*/2,
                            /*stepMicros=*/windowMicros,
                            /*downMicros=*/windowMicros / 2);
    schedule.join(cell.windowStartMicros(kScaleOutWindow), tier, 3);
    schedule.leave(cell.windowStartMicros(kDrainWindow), tier, 2);
    handoff.enabled = cell.posture == 1;  // warm
    handoff.windowMicros = windowMicros / 4;
    handoff.keysPerBatch = options.handoffKeysPerBatch;
    handoff.batchIntervalMicros = options.handoffBatchIntervalMicros;
  };
  return spec;
}

/// Storage reads per read — the miss-storm metric.
[[nodiscard]] double storageAmp(const core::ExperimentResult& window) {
  const core::ServeCounters& c = window.counters;
  return c.reads > 0 ? static_cast<double>(c.storageReads) /
                           static_cast<double>(c.reads)
                     : 0.0;
}

[[nodiscard]] double p99(const core::ExperimentResult& window) {
  return window.p99LatencyMicros;
}

void printCell(const core::TimelineSpec& spec,
               const core::TimelineResult& cell, std::size_t index) {
  util::TablePrinter table({"window", "phase", "p50_us", "p99_us",
                            "hit_ratio", "storage_amp", "joins", "leaves",
                            "migr_keys", "migr_kb", "fallback", "fences",
                            "window_cost"});
  for (std::size_t w = 0; w < cell.windows.size(); ++w) {
    const core::ExperimentResult& window = cell.windows[w];
    const core::ServeCounters& c = window.counters;
    table.row(w, spec.phases[w], window.latencies.p50(),
              window.p99LatencyMicros, c.hitRatio(), storageAmp(window),
              c.plannedJoins, c.plannedLeaves, c.migratedKeys,
              c.migratedBytes / 1024, c.handoffFallbackReads, c.epochFences,
              window.cost.totalCost.str());
  }
  char title[160];
  std::snprintf(
      title, sizeof title,
      "\nFigure 12 [%s, posture=%s]: membership-churn timeline (%lluK-op "
      "windows)",
      cell.windows.front().architecture.c_str(),
      spec.postures[index / spec.architectures.size()].c_str(),
      static_cast<unsigned long long>(spec.budget.windowOps / 1000));
  table.print(title);
}

/// Churn-window p99 over the steady reference: window 1 (window 0 still
/// carries residual warmup drift in some cells).
[[nodiscard]] std::string churnDrag(const core::TimelineResult& cell) {
  const double steady = cell.windows[1].p99LatencyMicros;
  return bench::ratioCell(
      steady > 0.0 ? bench::worstWindow(cell, kChurnFrom, kChurnUntil, p99) /
                         steady
                   : 0.0);
}

/// Sum of one counter over every window.
template <typename Counter>
[[nodiscard]] std::uint64_t total(const core::TimelineResult& cell,
                                  Counter counter) {
  std::uint64_t sum = 0;
  for (const core::ExperimentResult& w : cell.windows) {
    sum += counter(w.counters);
  }
  return sum;
}

/// Churn premium in $/K-ops: how much the churn windows' bill exceeds the
/// same posture's steady-state bill, normalized per thousand served ops.
[[nodiscard]] std::string churnPremiumPerKop(const core::TimelineSpec& spec,
                                             const core::TimelineResult& cell) {
  const double steadyMicros =
      static_cast<double>(cell.windows[1].cost.totalCost.micros());
  double excessMicros = 0.0;
  for (std::size_t w = kChurnFrom; w < kChurnUntil; ++w) {
    excessMicros +=
        static_cast<double>(cell.windows[w].cost.totalCost.micros()) -
        steadyMicros;
  }
  const double kops = static_cast<double>(spec.budget.windowOps) *
                      static_cast<double>(kChurnUntil - kChurnFrom) / 1000.0;
  char buf[24];
  std::snprintf(buf, sizeof buf, "%.6f",
                kops > 0.0 ? excessMicros / 1e6 / kops : 0.0);
  return buf;
}

[[nodiscard]] std::string peakCost(const core::TimelineResult& cell) {
  return cell.windows[bench::costliestWindow(cell)].cost.totalCost.str();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::parseBenchOptions(argc, argv);
  const core::TimelineSpec spec = timelineSpec(parseFig12Options(argc, argv));
  const std::vector<core::TimelineResult> cells =
      core::runTimeline(spec, options.matrix, options.trace);
  const std::size_t archs = spec.architectures.size();

  for (std::size_t i = 0; i < cells.size(); ++i) printCell(spec, cells[i], i);

  // The churn verdict: how far the deploy train + scale events drag p99
  // and storage amplification off each posture's own steady state. The
  // acceptance story: cold, the rolling restart turns into a storage miss
  // storm; warm, migration + dual reads keep both near steady.
  util::TablePrinter verdict({"architecture", "p99_steady", "drag_cold",
                              "drag_warm", "amp_steady", "amp_cold",
                              "amp_warm", "migr_keys", "fallback"});
  for (std::size_t a = 0; a < archs; ++a) {
    const core::TimelineResult& cold = cells[a];
    const core::TimelineResult& warm = cells[a + archs];
    verdict.row(
        cold.windows.front().architecture, cold.windows[1].p99LatencyMicros,
        churnDrag(cold), churnDrag(warm), storageAmp(cold.windows[1]),
        bench::worstWindow(cold, kChurnFrom, kChurnUntil, storageAmp),
        bench::worstWindow(warm, kChurnFrom, kChurnUntil, storageAmp),
        total(warm,
              [](const core::ServeCounters& c) { return c.migratedKeys; }),
        total(warm, [](const core::ServeCounters& c) {
          return c.handoffFallbackReads;
        }));
  }
  verdict.print(
      "\nFigure 12 verdict: churn-window p99 drag and storage amplification "
      "(reads hitting storage per read), cold reshard vs warm handoff");

  // The handoff bill: warm handoff pays migration CPU + wire bytes as a
  // small premium during churn; cold pays a storage miss storm whose peak
  // window is what an auto-scaler must overprovision for. Premiums are
  // $/K-ops over the same posture's steady bill; peaks are the worst
  // window's bill at the monthly rate.
  util::TablePrinter bill({"architecture", "migr_mb", "warm_usd_per_kop",
                           "cold_usd_per_kop", "peak_cold", "peak_warm"});
  for (std::size_t a = 0; a < archs; ++a) {
    const core::TimelineResult& cold = cells[a];
    const core::TimelineResult& warm = cells[a + archs];
    char migrMb[24];
    std::snprintf(migrMb, sizeof migrMb, "%.1f",
                  static_cast<double>(total(
                      warm, [](const core::ServeCounters& c) {
                        return c.migratedBytes;
                      })) /
                      (1024.0 * 1024.0));
    bill.row(cold.windows.front().architecture, migrMb,
             churnPremiumPerKop(spec, warm), churnPremiumPerKop(spec, cold),
             peakCost(cold), peakCost(warm));
  }
  bill.print(
      "\nFigure 12 handoff bill: migration volume and the churn-window cost "
      "premium per posture ($/K-ops over own steady state)");
  bench::finishTimeline(spec, cells);
  return 0;
}
