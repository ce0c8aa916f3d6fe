#include "core/experiment.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "workload/uc_trace.hpp"

namespace dcache::core {

std::uint64_t goldenOpsCap() noexcept {
  static const std::uint64_t cap = [] {
    const char* env = std::getenv("DCACHE_GOLDEN_OPS");
    if (!env || !*env) return std::uint64_t{0};
    char* end = nullptr;
    const unsigned long long value = std::strtoull(env, &end, 10);
    if (!end || *end != '\0') return std::uint64_t{0};
    return static_cast<std::uint64_t>(value);
  }();
  return cap;
}

ExperimentRunner::ExperimentRunner(ExperimentConfig config)
    : config_(config) {
  if (const std::uint64_t cap = goldenOpsCap(); cap > 0) {
    config_.operations = std::min(config_.operations, cap);
    config_.warmupOperations = std::min(config_.warmupOperations, cap);
  }
}

ExperimentResult ExperimentRunner::run(Deployment& deployment,
                                       workload::Workload& workload) {
  // Drive the deployment's wall clock from the offered load so that
  // time-based behaviour (TTL freshness) sees realistic inter-arrival gaps.
  const double microsPerOp = config_.qps > 0.0 ? 1e6 / config_.qps : 0.0;
  std::uint64_t opIndex = 0;
  auto serveOne = [&] {
    deployment.setSimTimeMicros(
        static_cast<std::uint64_t>(microsPerOp * static_cast<double>(opIndex)));
    ++opIndex;
    const workload::Op op = workload.next();
    if (config_.richObjects) {
      deployment.serveObject(op);
    } else {
      deployment.serve(op);
    }
  };

  // Warm caches and block caches; warmup work is not priced.
  for (std::uint64_t i = 0; i < config_.warmupOperations; ++i) serveOne();
  deployment.clearMeters();
  for (std::uint64_t i = 0; i < config_.operations; ++i) serveOne();

  return snapshotExperiment(
      deployment, workload.name(),
      config_.qps > 0.0 ? static_cast<double>(config_.operations) / config_.qps
                        : 1.0,
      config_);
}

ExperimentResult snapshotExperiment(Deployment& deployment,
                                    std::string workload,
                                    double simulatedSeconds,
                                    const ExperimentConfig& config) {
  ExperimentResult result;
  result.architecture =
      std::string(architectureName(deployment.config().architecture));
  result.workload = std::move(workload);
  result.simulatedSeconds = simulatedSeconds;

  const CostModel model(config.pricing, config.targetUtilization);
  result.cost = model.breakdown(
      deployment.tiers(), result.simulatedSeconds,
      deployment.db().totalStoredBytes(),
      deployment.config().replicationFactor);
  result.counters = deployment.counters();
  if (const obs::Tracer* tracer = deployment.tracer()) {
    result.trace = tracer->summary();
  }
  result.latencies = deployment.latencies();
  result.meanLatencyMicros = deployment.latencies().mean();
  result.p99LatencyMicros = deployment.latencies().p99();
  return result;
}

ExperimentResult runArchitecture(Architecture arch,
                                 workload::Workload& workload,
                                 DeploymentConfig deploymentConfig,
                                 ExperimentConfig experimentConfig) {
  deploymentConfig.architecture = arch;
  Deployment deployment(deploymentConfig);
  if (experimentConfig.richObjects) {
    const auto* trace = dynamic_cast<workload::UcTraceWorkload*>(&workload);
    if (trace) {
      deployment.populateCatalog(*trace);
    }
  } else {
    deployment.populateKv(workload);
  }
  ExperimentRunner runner(experimentConfig);
  return runner.run(deployment, workload);
}

}  // namespace dcache::core
