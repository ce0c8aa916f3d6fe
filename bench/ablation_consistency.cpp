// Ablation — the cost of consistency (§5.5, §6). Compares, on the same
// skewed read-heavy workload:
//   Base            — every read from storage (trivially consistent)
//   Linked          — eventually consistent cache (the cost ceiling)
//   Linked+Version  — per-read version check in storage (the §5.5 result:
//                     most of the cache's benefit evaporates)
//   Linked+Lease    — the §6 future-work design: Slicer-style ownership
//                     leases make owner reads consistent with only a local
//                     epoch check; the per-read storage round trip becomes
//                     an O(shards/lease-term) renewal stream.
//   Linked+TTL      — bounded staleness as the cheap eventual baseline.
// All five variants run as concurrent matrix cells; side counters (lease
// renewals) land in per-cell slots and print after the run.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "consistency/lease.hpp"
#include "workload/synthetic.hpp"

using namespace dcache;

namespace {

constexpr std::uint64_t kOps = 150000;
constexpr std::uint64_t kWarmup = 150000;

workload::SyntheticConfig workloadConfig() {
  workload::SyntheticConfig config;
  config.valueSize = 16384;
  config.readRatio = 0.93;
  return config;
}

core::ExperimentConfig experimentConfig() {
  core::ExperimentConfig experiment;
  experiment.operations = kOps;
  experiment.warmupOperations = kWarmup;
  experiment.qps = bench::kSyntheticQps;
  return experiment;
}

/// Linked+Lease: Linked serving, plus a LeaseManager renewed on simulated
/// time; consistent reads are served locally while the lease is valid.
core::ExperimentResult runLinkedLease(std::uint64_t& renewalsOut) {
  workload::SyntheticWorkload workload(workloadConfig());
  core::DeploymentConfig deploymentConfig;
  deploymentConfig.architecture = core::Architecture::kLinked;
  deploymentConfig = bench::withBenchTrace(deploymentConfig);
  core::Deployment deployment(deploymentConfig);
  deployment.populateKv(workload);

  // The lease renewal RPC needs a channel over the deployment's network;
  // the deployment does not expose its channel, so renewals run over a
  // dedicated equivalent channel that charges the same nodes with the same
  // parameters. The channel is cell-local: cells must not share state.
  sim::NetworkModel network;
  rpc::Channel channel(network, rpc::SerializationModel{});

  // The lease authority is a storage node (it owns the write fence).
  consistency::LeaseManager leases(deployment.appTier(),
                                   deployment.db().kvTier().node(0), channel,
                                   consistency::LeaseConfig{});
  const double qps = bench::kSyntheticQps;
  auto simNow = [&](std::uint64_t op) {
    return static_cast<std::uint64_t>(1e6 * static_cast<double>(op) / qps);
  };

  auto serveOne = [&](std::uint64_t opIndex, const workload::Op& op) {
    const std::uint64_t now = simNow(opIndex);
    if (op.isRead() && deployment.linkedCache()) {
      const std::size_t owner = deployment.linkedCache()->shards().ownerOf(
          workload::keyName(op.keyIndex));
      leases.renew(owner, now);
      leases.canServeLocally(owner, now);  // consistent-read epoch check
    }
    deployment.serve(op);
  };

  for (std::uint64_t i = 0; i < kWarmup; ++i) serveOne(i, workload.next());
  deployment.clearMeters();
  for (std::uint64_t i = 0; i < kOps; ++i) serveOne(i, workload.next());

  const core::ExperimentConfig experiment = experimentConfig();
  const core::CostModel model(experiment.pricing,
                              experiment.targetUtilization);
  core::ExperimentResult result;
  result.architecture = "Linked+Lease";
  result.workload = workload.name();
  result.simulatedSeconds = static_cast<double>(kOps) / qps;
  result.cost = model.breakdown(deployment.tiers(), result.simulatedSeconds,
                                deployment.db().totalStoredBytes(),
                                deploymentConfig.replicationFactor);
  result.counters = deployment.counters();
  result.latencies = deployment.latencies();
  if (const obs::Tracer* tracer = deployment.tracer()) {
    result.trace = tracer->summary();
  }
  result.meanLatencyMicros = deployment.latencies().mean();
  result.p99LatencyMicros = deployment.latencies().p99();
  renewalsOut = leases.renewals();
  return result;
}

core::ExperimentResult runLinkedTtl(std::uint64_t ttlMicros) {
  // Bounded staleness: hits older than the TTL revalidate from storage.
  // Cheap next to per-read version checks, but reads within the window can
  // be stale — the related-work trade-off quantified.
  core::DeploymentConfig deployment;
  deployment.architecture = core::Architecture::kLinked;
  deployment.ttlFreshnessMicros = ttlMicros;
  auto result = bench::runCell(core::Architecture::kLinked,
                               workload::SyntheticWorkload(workloadConfig()),
                               deployment, experimentConfig());
  result.architecture = "Linked+TTL(1s)";
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  core::ExperimentMatrix matrix(bench::parseBenchOptions(argc, argv).matrix);
  for (const core::Architecture arch :
       {core::Architecture::kBase, core::Architecture::kLinked,
        core::Architecture::kLinkedVersion}) {
    bench::addCell(matrix, arch, workload::SyntheticWorkload(workloadConfig()),
                   core::DeploymentConfig{}, experimentConfig());
  }
  std::uint64_t leaseRenewals = 0;
  matrix.add(
      [&leaseRenewals](util::Pcg32&) { return runLinkedLease(leaseRenewals); });
  matrix.add([](util::Pcg32&) { return runLinkedTtl(1000000); });

  const std::vector<core::ExperimentResult> results = matrix.run();

  std::printf("Linked+Lease: %llu lease renewals vs %llu reads (the "
              "version-check path would have done one storage round trip "
              "per read)\n\n",
              static_cast<unsigned long long>(leaseRenewals),
              static_cast<unsigned long long>(results[3].counters.reads));
  std::printf("Linked+TTL: %llu freshness expirations over %llu reads\n\n",
              static_cast<unsigned long long>(
                  results[4].counters.ttlExpirations),
              static_cast<unsigned long long>(results[4].counters.reads));

  std::fputs(core::costComparisonTable(
                 results,
                 "Consistency ablation (16KB values, r=0.93, 120K QPS): "
                 "version checks vs leases vs TTL bounds")
                 .c_str(),
             stdout);
  std::printf(
      "\nLinked+Version gives back %.0f%% of Linked's saving over Base; "
      "Linked+Lease retains %.0f%% of it.\n",
      100.0 * (results[2].cost.totalCost - results[1].cost.totalCost)
          .dollars() /
          (results[0].cost.totalCost - results[1].cost.totalCost).dollars(),
      100.0 * (results[0].cost.totalCost - results[3].cost.totalCost)
          .dollars() /
          (results[0].cost.totalCost - results[1].cost.totalCost).dollars());
  bench::finishBench(results);
  return 0;
}
