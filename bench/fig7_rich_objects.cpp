// Figure 7 — Unity Catalog-Object (§5.4): each read request expands into
// multiple SQL statements that assemble a rich object, exactly as the
// production service does. Compares the four architectures on the object
// workload and quantifies the two §5.4 claims:
//   * caching the materialized object saves up to ~8x vs reading from
//     storage (Base), and
//   * the savings exceed the Unity Catalog-KV (denormalized single-row)
//     variant's savings by up to ~2x — rich objects benefit
//     disproportionately because a hit also eliminates query amplification
//     and object assembly.
// The four object cells and two KV cells run concurrently on the matrix.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "richobject/catalog_store.hpp"
#include "workload/uc_trace.hpp"

using namespace dcache;

namespace {

workload::UcTraceConfig traceConfig() {
  workload::UcTraceConfig config;
  // Paper-shaped sizes/read ratio; the table count is scaled down so the
  // normalized catalog (14 real rows + indexes per table) stays in host
  // memory — the per-request work profile is unchanged.
  config.numTables = 20000;
  return config;
}

std::size_t addObjectCell(core::ExperimentMatrix& matrix,
                          core::Architecture arch) {
  return matrix.add([arch](util::Pcg32&) {
    const workload::UcTraceConfig config = traceConfig();
    workload::UcTraceWorkload workload(config);

    core::DeploymentConfig deployment;
    deployment.architecture = arch;
    deployment = bench::withBenchTrace(deployment);
    core::Deployment instance(deployment);
    instance.populateCatalog(workload);

    core::ExperimentConfig experiment;
    experiment.operations = 60000;
    // Long warmup: the catalog working set must be resident, as in the
    // production service; compulsory misses are not the phenomenon here.
    experiment.warmupOperations = 240000;
    experiment.qps = bench::kUcQps;
    experiment.richObjects = true;
    core::ExperimentRunner runner(experiment);
    return runner.run(instance, workload);
  });
}

std::size_t addKvCell(core::ExperimentMatrix& matrix,
                      core::Architecture arch) {
  const workload::UcTraceConfig config = traceConfig();
  core::ExperimentConfig experiment;
  experiment.operations = 60000;
  experiment.warmupOperations = 240000;
  experiment.qps = bench::kUcQps;
  return bench::addCell(matrix, arch, workload::UcTraceWorkload(config),
                        core::DeploymentConfig{}, experiment);
}

}  // namespace

int main(int argc, char** argv) {
  core::ExperimentMatrix matrix(bench::parseBenchOptions(argc, argv).matrix);
  const std::span<const core::Architecture> archs = core::kAllArchitectures;
  for (const core::Architecture arch : archs) {
    addObjectCell(matrix, arch);
  }
  // UC-KV variant for the 2x comparison.
  for (const core::Architecture arch :
       {core::Architecture::kBase, core::Architecture::kLinked}) {
    addKvCell(matrix, arch);
  }
  const std::vector<core::ExperimentResult> results = matrix.run();

  const std::vector<core::ExperimentResult> object(
      results.begin(),
      results.begin() + static_cast<std::ptrdiff_t>(archs.size()));
  std::fputs(core::costComparisonTable(
                 object, "Figure 7: Unity Catalog-Object — reads issue up "
                         "to 8 SQL statements (40K QPS)")
                 .c_str(),
             stdout);
  std::printf("statements per measured run (Base): %llu (amplification "
              "over %llu reads)\n\n",
              static_cast<unsigned long long>(
                  object.front().counters.statementsIssued),
              static_cast<unsigned long long>(object.front().counters.reads));

  const double objectSaving = core::savingsVs(object[0], object[2]);
  const double kvSaving =
      core::savingsVs(results[archs.size()], results[archs.size() + 1]);
  std::printf(
      "Linked-vs-Base saving, Unity Catalog-Object: %.2fx (paper: up to "
      "~8x)\n"
      "Linked-vs-Base saving, Unity Catalog-KV:     %.2fx\n"
      "Object advantage over KV variant:            %.2fx (paper: up to "
      "~2x)\n",
      objectSaving, kvSaving, objectSaving / kvSaving);
  bench::finishBench(results);
  return 0;
}
