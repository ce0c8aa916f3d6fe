// Figure 4 — total cost across architectures on the synthetic workload
// (§5.2-5.3): 100K keys, Zipf(1.2).
//   (a) varying read ratio 50% .. 99% at 4KB values
//   (b) varying value size 1KB .. 1MB at r = 0.93
// Expected shape (paper): Linked < Remote < Base everywhere; the Linked
// advantage grows with value size (3.9x at 1KB to 7.3x at 1MB, driven by
// (de)serialization) and with value size and read ratio.
// Every (architecture, sweep-point) cell is queued on the experiment
// matrix and runs on its own worker (--jobs N / DCACHE_JOBS).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "util/table_printer.hpp"
#include "workload/synthetic.hpp"

using namespace dcache;

namespace {

constexpr core::Architecture kArchs[] = {core::Architecture::kBase,
                                         core::Architecture::kRemote,
                                         core::Architecture::kLinked,
                                         core::Architecture::kDisaggregated};
constexpr double kReadRatios[] = {0.50, 0.75, 0.90, 0.93, 0.99};
constexpr std::uint64_t kValueSizes[] = {1024,  4096,   16384,
                                         65536, 262144, 1048576};

core::ExperimentConfig experimentConfig() {
  core::ExperimentConfig experiment;
  experiment.operations = 200000;
  experiment.warmupOperations = 200000;
  experiment.qps = bench::kSyntheticQps;
  return experiment;
}

void addPanelCells(core::ExperimentMatrix& matrix,
                   std::span<const core::Architecture> archs) {
  for (const double readRatio : kReadRatios) {
    workload::SyntheticConfig workload;
    workload.readRatio = readRatio;
    workload.valueSize = 4096;
    const workload::SyntheticWorkload reference(workload);
    for (const core::Architecture arch : archs) {
      bench::addCell(matrix, arch, reference, core::DeploymentConfig{},
                     experimentConfig());
    }
  }
  for (const std::uint64_t valueSize : kValueSizes) {
    workload::SyntheticConfig workload;
    workload.readRatio = 0.99;
    workload.valueSize = valueSize;
    const workload::SyntheticWorkload reference(workload);
    for (const core::Architecture arch : archs) {
      bench::addCell(matrix, arch, reference, core::DeploymentConfig{},
                     experimentConfig());
    }
  }
}

/// Headers: one cost column per architecture, then a saving-vs-Base column
/// per non-Base architecture.
std::vector<std::string> headerRow(std::span<const core::Architecture> archs,
                                   const char* sweepColumn) {
  std::vector<std::string> headers{sweepColumn};
  for (const core::Architecture arch : archs) {
    headers.emplace_back(core::architectureName(arch));
  }
  for (std::size_t a = 1; a < archs.size(); ++a) {
    headers.push_back(std::string(core::architectureName(archs[a])) +
                      "_saving");
  }
  return headers;
}

void addArchRow(util::TablePrinter& table,
                const std::vector<core::ExperimentResult>& results,
                std::size_t cell, std::size_t archCount,
                std::string sweepCell) {
  std::vector<std::string> row{std::move(sweepCell)};
  const auto& base = results[cell];
  for (std::size_t a = 0; a < archCount; ++a) {
    row.push_back(results[cell + a].cost.totalCost.str());
  }
  for (std::size_t a = 1; a < archCount; ++a) {
    row.push_back(bench::savingCell(base, results[cell + a]));
  }
  table.addRow(std::move(row));
}

void figure4a(const std::vector<core::ExperimentResult>& results,
              std::size_t offset,
              std::span<const core::Architecture> archs) {
  util::TablePrinter table(headerRow(archs, "read_ratio"));
  std::size_t cell = offset;
  for (const double readRatio : kReadRatios) {
    addArchRow(table, results, cell, archs.size(),
               util::TablePrinter::toCell(readRatio));
    cell += archs.size();
  }
  table.print("Figure 4a: total monthly cost vs read ratio (4KB values, "
              "Zipf 1.2, 120K QPS)");
}

void figure4b(const std::vector<core::ExperimentResult>& results,
              std::size_t offset,
              std::span<const core::Architecture> archs) {
  util::TablePrinter table(headerRow(archs, "value_size"));
  std::size_t cell = offset;
  for (const std::uint64_t valueSize : kValueSizes) {
    addArchRow(table, results, cell, archs.size(),
               util::Bytes::of(valueSize).str());
    cell += archs.size();
  }
  table.print("\nFigure 4b: total monthly cost vs value size (r=0.99, "
              "Zipf 1.2, 120K QPS; paper: Linked saves 3.9x@1KB, "
              "7.3x@1MB)");
}

}  // namespace

int main(int argc, char** argv) {
  core::ExperimentMatrix matrix(bench::parseBenchOptions(argc, argv).matrix);
  const std::span<const core::Architecture> archs = kArchs;
  addPanelCells(matrix, archs);
  const std::vector<core::ExperimentResult> results = matrix.run();
  figure4a(results, 0, archs);
  figure4b(results, std::size(kReadRatios) * archs.size(), archs);
  bench::finishBench(results);
  return 0;
}
