// Figure 8 — the delayed-writes problem (§6): a write delayed in flight
// races a cache reshard; the new owner warms itself from storage before
// the write lands, leaving cache and storage permanently out of sync.
// Prints the scripted interleaving's event log, then sweeps randomized
// timings to measure the anomaly rate with and without the epoch-fencing
// fix (writes carry their ownership epoch; storage rejects stale epochs).
// Each trial-count row is a matrix cell with its own root-derived seed;
// the fenced and unfenced sweeps inside a cell share that seed so their
// timings are identical and the rates stay directly comparable.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "consistency/delayed_write.hpp"
#include "core/matrix.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"

using namespace dcache;

namespace {

constexpr std::uint64_t kTrialCounts[] = {100, 1000, 10000};

struct SweepRow {
  std::uint64_t trials = 0;
  double unfencedRate = 0.0;
  double fencedRate = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions benchOptions =
      bench::parseBenchOptions(argc, argv);
  const core::MatrixOptions& options = benchOptions.matrix;
  util::ThreadPool pool(options.jobs);

  // Scripted interleavings (2 cells) and the randomized sweep rows run
  // concurrently; everything prints in submission order afterwards.
  consistency::DelayedWriteOutcome unfenced;
  consistency::DelayedWriteOutcome fenced;
  // dcache-lint: allow(race-capture, fork-join sole writer, joined below)
  pool.submit([&unfenced] {
    consistency::DelayedWriteConfig config;
    unfenced = consistency::runDelayedWriteScenario(config);
  });
  // dcache-lint: allow(race-capture, fork-join sole writer, joined below)
  pool.submit([&fenced] {
    consistency::DelayedWriteConfig config;
    config.epochFencing = true;
    fenced = consistency::runDelayedWriteScenario(config);
  });
  const auto rows = util::mapOrdered(
      pool, std::size(kTrialCounts), [&options](std::size_t i) {
        // Identical per-cell seed for both configurations: the fenced run
        // replays the unfenced run's timings exactly.
        const std::uint64_t seed = core::cellSeed(options.rootSeed, i);
        util::Pcg32 rngA(seed, 1);
        util::Pcg32 rngB(seed, 1);
        SweepRow row;
        row.trials = kTrialCounts[i];
        row.unfencedRate =
            consistency::delayedWriteAnomalyRate(row.trials, false, rngA);
        row.fencedRate =
            consistency::delayedWriteAnomalyRate(row.trials, true, rngB);
        return row;
      });
  pool.wait();

  std::puts("Figure 8: scripted delayed-write interleaving (no fencing)\n");
  std::fputs(unfenced.history.c_str(), stdout);
  std::puts("\nSame interleaving with epoch fencing:\n");
  std::fputs(fenced.history.c_str(), stdout);

  util::TablePrinter table({"trials", "anomaly_rate (no fencing)",
                            "anomaly_rate (epoch fencing)"});
  for (const SweepRow& row : rows) {
    table.addRow({util::TablePrinter::toCell(
                      static_cast<unsigned long long>(row.trials)),
                  util::TablePrinter::toCell(row.unfencedRate),
                  util::TablePrinter::toCell(row.fencedRate)});
  }
  table.print("\nRandomized-timing sweep (write delay, reshard and warm "
              "read drawn uniformly)");
  if (!benchOptions.metricsOut.empty()) {
    // Scenario bench: no deployments, so export the sweep's anomaly rates
    // directly.
    obs::MetricsRegistry registry;
    for (const SweepRow& row : rows) {
      const std::string base =
          "fig8.trials_" + std::to_string(row.trials) + ".";
      registry.setGauge(base + "anomaly_rate_unfenced", row.unfencedRate);
      registry.setGauge(base + "anomaly_rate_fenced", row.fencedRate);
    }
    bench::writeMetrics(registry);
  }
  if (!benchOptions.benchJsonOut.empty()) {
    bench::writeBenchJson(benchOptions);
  }
  return 0;
}
