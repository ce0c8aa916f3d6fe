// Figure 3 — Unity Catalog trace analysis (§5.2).
//   (a) Value-size distribution: median ≈ 23KB with large values at the
//       tail (multi-MB objects).
//   (b) Access-frequency distribution: Zipf-like rank-frequency skew.
// Also reports the read ratio (≈93%) and the getTable query-amplification
// histogram (up to 8 SQL statements per read).
// The two panels replay the same deterministic trace stream independently,
// so they run as parallel cells on the worker pool.
#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "core/matrix.hpp"
#include "util/bytes.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"
#include "workload/uc_trace.hpp"

using namespace dcache;

namespace {

constexpr int kOps = 400000;

/// Read-side statistics: sizes, amplification, read ratio (panel a).
struct ReadStats {
  std::vector<double> sizes;
  std::map<std::size_t, std::uint64_t> statements;
  std::uint64_t reads = 0;
  std::uint64_t keyCount = 0;
};

/// Per-key access counts (panel b).
struct FrequencyStats {
  std::map<std::uint64_t, std::uint64_t> frequency;
};

ReadStats collectReadStats(const workload::UcTraceConfig& config) {
  workload::UcTraceWorkload trace(config);
  ReadStats stats;
  stats.keyCount = trace.keyCount();
  for (int i = 0; i < kOps; ++i) {
    const workload::Op op = trace.next();
    if (op.isRead()) {
      ++stats.reads;
      stats.sizes.push_back(static_cast<double>(op.valueSize));
      ++stats.statements[trace.statementsFor(op.keyIndex)];
    }
  }
  return stats;
}

FrequencyStats collectFrequencyStats(const workload::UcTraceConfig& config) {
  workload::UcTraceWorkload trace(config);
  FrequencyStats stats;
  for (int i = 0; i < kOps; ++i) {
    ++stats.frequency[trace.next().keyIndex];
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  workload::UcTraceConfig config;  // paper parameters
  const bench::BenchOptions benchOptions =
      bench::parseBenchOptions(argc, argv);
  util::ThreadPool pool(benchOptions.matrix.jobs);

  // Both passes replay the identical seeded stream; fan them out.
  ReadStats readStats;
  FrequencyStats frequencyStats;
  // dcache-lint: allow(race-capture, fork-join sole writer, joined below)
  pool.submit([&readStats, &config] { readStats = collectReadStats(config); });
  // dcache-lint: allow(race-capture, fork-join sole writer, joined below)
  pool.submit([&frequencyStats, &config] {
    frequencyStats = collectFrequencyStats(config);
  });
  pool.wait();

  std::printf("Unity Catalog synthetic trace: %d ops over %llu tables, "
              "read ratio %.1f%% (paper: ~93%%)\n\n",
              kOps, static_cast<unsigned long long>(readStats.keyCount),
              100.0 * static_cast<double>(readStats.reads) / kOps);

  util::TablePrinter sizeTable({"percentile", "object size"});
  for (const double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999}) {
    sizeTable.addRow(
        {util::TablePrinter::toCell(q),
         util::Bytes::of(static_cast<std::uint64_t>(
                             util::exactQuantile(readStats.sizes, q)))
             .str()});
  }
  sizeTable.print("Figure 3a: value-size distribution (median should be "
                  "~23KB with an MB-scale tail)");

  // Rank-frequency: sort key counts descending, fit the log-log slope.
  std::vector<double> counts;
  counts.reserve(frequencyStats.frequency.size());
  for (const auto& [key, count] : frequencyStats.frequency) {
    counts.push_back(static_cast<double>(count));
  }
  std::sort(counts.rbegin(), counts.rend());
  util::TablePrinter freqTable({"rank", "accesses", "share"});
  for (const std::size_t rank : {1u, 2u, 5u, 10u, 100u, 1000u, 10000u}) {
    if (rank > counts.size()) break;
    char share[16];
    std::snprintf(share, sizeof share, "%.3f%%",
                  100.0 * counts[rank - 1] / kOps);
    freqTable.addRow({util::TablePrinter::toCell(
                          static_cast<unsigned long long>(rank)),
                      util::TablePrinter::toCell(counts[rank - 1]), share});
  }
  std::vector<double> ranks(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    ranks[i] = static_cast<double>(i + 1);
  }
  freqTable.print("\nFigure 3b: access-frequency distribution");
  std::printf("fitted rank-frequency log-log slope: %.3f (configured "
              "alpha: -%.2f)\n",
              util::logLogSlope(ranks, counts), config.alpha);

  util::TablePrinter ampTable({"SQL statements per getTable", "reads"});
  for (const auto& [n, count] : readStats.statements) {
    ampTable.addRow({util::TablePrinter::toCell(
                         static_cast<unsigned long long>(n)),
                     util::TablePrinter::toCell(count)});
  }
  ampTable.print("\nQuery amplification (getTable translates to up to 8 "
                 "SQL statements, §5.2)");
  if (!benchOptions.metricsOut.empty()) {
    // Trace-analysis bench: no deployments, so export the distribution's
    // headline statistics directly.
    obs::MetricsRegistry registry;
    registry.setCounter("fig3.ops", static_cast<std::uint64_t>(kOps));
    registry.setCounter("fig3.tables", readStats.keyCount);
    registry.setGauge("fig3.read_ratio",
                      static_cast<double>(readStats.reads) / kOps);
    registry.setGauge("fig3.size_p50_bytes",
                      util::exactQuantile(readStats.sizes, 0.50));
    registry.setGauge("fig3.size_p99_bytes",
                      util::exactQuantile(readStats.sizes, 0.99));
    registry.setGauge("fig3.rank_frequency_slope",
                      util::logLogSlope(ranks, counts));
    bench::writeMetrics(registry);
  }
  if (!benchOptions.benchJsonOut.empty()) {
    bench::writeBenchJson(benchOptions);
  }
  return 0;
}
