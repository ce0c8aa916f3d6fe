#include "cells.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <time.h>
#include <unistd.h>

#include "core/cost_model.hpp"
#include "core/membership.hpp"
#include "core/pricing.hpp"
#include "sim/fault.hpp"
#include "workload/meta_trace.hpp"
#include "workload/synthetic.hpp"
#include "workload/uc_trace.hpp"

namespace hostbench {

namespace core = dcache::core;
namespace sim = dcache::sim;
namespace util = dcache::util;
namespace wl = dcache::workload;

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t threadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double currentRssMb() {
  long pages = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    long size = 0;
    if (std::fscanf(f, "%ld %ld", &size, &pages) != 2) pages = 0;
    std::fclose(f);
  }
  return static_cast<double>(pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

std::string_view archKey(Architecture arch) {
  switch (arch) {
    case Architecture::kBase: return "base";
    case Architecture::kRemote: return "remote";
    case Architecture::kLinked: return "linked";
    case Architecture::kLinkedVersion: return "linked_version";
    case Architecture::kDisaggregated: return "disagg";
  }
  return "unknown";
}

WorkloadSpec makeSpec(std::string_view name, std::uint64_t seed, Size size) {
  const bool tiny = size == Size::kTiny;
  WorkloadSpec spec;
  spec.name = std::string(name);
  spec.seed = seed;
  if (name == "meta-kv") {
    // MetaTraceConfig defaults: 500K keys, Zipf 1.1, ~10 B values, 30 %
    // writes; the compute-bound synthetic load of the figure benches.
    spec.archs.assign(std::begin(core::kAllArchitectures),
                      std::end(core::kAllArchitectures));
    spec.qps = 120000.0;
    spec.keys = tiny ? 5000 : wl::MetaTraceConfig{}.numKeys;
    spec.warmupOps = tiny ? 2000 : 100000;
    spec.measuredOps = tiny ? 2000 : 200000;
    spec.nominalRoundSeconds = tiny ? 0.02 : 3.8;
  } else if (name == "uc-object") {
    // fig7 shape: 20K tables, 93 % reads, 40K QPS, rich-object serving.
    spec.archs.assign(std::begin(core::kAllArchitectures),
                      std::end(core::kAllArchitectures));
    spec.qps = 40000.0;
    spec.keys = tiny ? 500 : 20000;
    spec.warmupOps = tiny ? 1000 : 20000;
    spec.measuredOps = tiny ? 1000 : 20000;
    spec.nominalRoundSeconds = tiny ? 0.2 : 6.0;
    spec.richObjects = true;
  } else if (name == "kv-churn") {
    // Zipf 0.99 over a keyspace 10x the summed cache capacity, with a gray
    // fault and a rolling restart of the cache tier in the measured window.
    spec.archs = {Architecture::kRemote, Architecture::kLinked,
                  Architecture::kDisaggregated};
    spec.qps = 120000.0;
    spec.keys = tiny ? 20000 : 1000000;
    spec.warmupOps = tiny ? 4000 : 150000;
    spec.measuredOps = tiny ? 4000 : 200000;
    spec.nominalRoundSeconds = tiny ? 0.05 : 4.5;
    spec.churn = true;
  } else {
    throw std::invalid_argument("unknown workload: " + std::string(name));
  }
  if (spec.churn) {
    constexpr std::uint64_t kValueBytes = 4096;
    // Summed capacity of the three cache nodes = 10 % of the keyspace.
    spec.cachePerNode = util::Bytes::of(spec.keys * kValueBytes / 30);
  }
  return spec;
}

std::unique_ptr<wl::Workload> WorkloadSpec::makeWorkload() const {
  if (name == "meta-kv") {
    wl::MetaTraceConfig config;
    config.numKeys = keys;
    config.seed = seed;
    return std::make_unique<wl::MetaTraceWorkload>(config);
  }
  if (name == "uc-object") {
    wl::UcTraceConfig config;
    config.numTables = keys;
    config.seed = seed;
    return std::make_unique<wl::UcTraceWorkload>(config);
  }
  wl::SyntheticConfig config;
  config.numKeys = keys;
  config.alpha = 0.99;
  config.readRatio = 0.90;
  config.valueSize = 4096;
  config.seed = seed;
  return std::make_unique<wl::SyntheticWorkload>(config);
}

core::DeploymentConfig WorkloadSpec::deploymentFor(Architecture arch) const {
  core::DeploymentConfig config;
  config.architecture = arch;
  if (churn) {
    config.appCachePerNode = cachePerNode;
    config.remoteCachePerNode = cachePerNode;
    config.farMemoryPerNode = cachePerNode;
    config.hotCachePerNode = util::Bytes::of(cachePerNode.count() / 8);
    config.health.enabled = true;
    config.cacheReplicationFactor = 2;
  }
  return config;
}

namespace {

/// Tier that carries an architecture's cache state (where churn and the
/// gray fault land).
sim::TierKind cacheTier(Architecture arch) {
  switch (arch) {
    case Architecture::kRemote: return sim::TierKind::kRemoteCache;
    case Architecture::kDisaggregated: return sim::TierKind::kFarMemory;
    default: return sim::TierKind::kAppServer;
  }
}

/// kv-churn timeline over the measured window [t0, t0 + len): node 2 of the
/// cache tier runs 10x slow for the second and third eighths, then nodes 0
/// and 1 drain and rejoin one eighth apart with warm handoff.
void installChurn(const WorkloadSpec& spec, Architecture arch,
                  core::Deployment& deployment) {
  const double t0 = spec.microsPerOp() * static_cast<double>(spec.warmupOps);
  const double len =
      spec.microsPerOp() * static_cast<double>(spec.measuredOps);
  const auto at = [&](double fraction) {
    return static_cast<std::uint64_t>(t0 + len * fraction);
  };
  const sim::TierKind tier = cacheTier(arch);

  sim::FaultSchedule faults;
  faults.slowNode(at(1.0 / 8), at(3.0 / 8), tier, 2, 10.0);
  deployment.installFaultSchedule(std::move(faults));

  core::MembershipSchedule schedule;
  const auto step = static_cast<std::uint64_t>(len / 8);
  schedule.rollingRestart(at(4.0 / 8), tier, /*firstNode=*/0, /*count=*/2,
                          /*stepMicros=*/step, /*downMicros=*/step / 2);
  core::HandoffConfig handoff;
  handoff.enabled = true;
  handoff.windowMicros = step / 4;
  handoff.keysPerBatch = 512;
  handoff.batchIntervalMicros = 1000;
  deployment.installMembershipSchedule(std::move(schedule), handoff);
}

/// FNV-1a over the bit patterns of every simulated statistic.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void addCounters(Digest& d, const core::ServeCounters& c) {
  for (const std::uint64_t v :
       {c.reads, c.writes, c.cacheHits, c.cacheMisses, c.versionChecks,
        c.versionMismatches, c.statementsIssued, c.ttlExpirations,
        c.storageReads, c.retries, c.timeouts, c.failedCalls,
        c.degradedReads, c.coalescedMisses, c.sheddedRequests,
        c.queueTimeouts, c.queueRejections, c.breakerOpens,
        c.breakerShortCircuits, c.hedgesSent, c.hedgeWins,
        c.budgetExhausted, c.failedOps, c.ejectedNodes,
        c.replicaFallbackReads, c.staleReplicaReads, c.replicaWriteFanout,
        c.farMemoryReads, c.farMemoryBytes, c.hotCacheHits,
        c.clientInvalidations, c.plannedJoins, c.plannedLeaves,
        c.migratedKeys, c.migratedBytes, c.handoffFallbackReads,
        c.epochFences}) {
    d.add(v);
  }
  d.add(c.wastedCpuMicros);
  d.add(c.detectionLagMicros);
}

void addCost(Digest& d, const core::CostBreakdown& cost) {
  for (const core::TierUsage& t : cost.tiers) {
    d.add(t.name);
    d.add(static_cast<std::uint64_t>(t.kind));
    d.add(static_cast<std::uint64_t>(t.nodes));
    d.add(t.cores);
    for (const double micros : t.cpuMicrosByComponent) d.add(micros);
    d.add(t.cpuMicrosTotal);
    d.add(t.memoryProvisioned.count());
    d.add(static_cast<std::uint64_t>(t.computeCost.micros()));
    d.add(static_cast<std::uint64_t>(t.memoryCost.micros()));
  }
  for (const util::Money m : {cost.computeCost, cost.memoryCost,
                              cost.storageCost, cost.totalCost}) {
    d.add(static_cast<std::uint64_t>(m.micros()));
  }
  d.add(cost.simulatedSeconds);
}

/// The histogram keeps its buckets private; count, sum, extremes and every
/// per-mille quantile pin the distribution down to its bucket resolution.
void addLatencies(Digest& d, const util::Histogram& h) {
  d.add(h.count());
  d.add(h.sum());
  d.add(h.min());
  d.add(h.max());
  for (int q = 0; q <= 1000; ++q) d.add(h.quantile(q / 1000.0));
}

std::string checkConservation(const core::ServeCounters& c,
                              const core::CostBreakdown& cost,
                              std::uint64_t latencyCount, std::uint64_t ops,
                              Architecture arch) {
  char buf[160];
  if (c.reads + c.writes != ops) {
    std::snprintf(buf, sizeof buf, "reads+writes=%llu != ops=%llu",
                  static_cast<unsigned long long>(c.reads + c.writes),
                  static_cast<unsigned long long>(ops));
    return buf;
  }
  if (latencyCount != ops) return "latency samples != ops";
  const std::uint64_t lookups = c.cacheHits + c.cacheMisses;
  const std::uint64_t expected =
      arch == Architecture::kBase ? 0 : c.reads - c.sheddedRequests;
  if (lookups != expected) {
    std::snprintf(buf, sizeof buf, "hits+misses+shed=%llu != reads=%llu",
                  static_cast<unsigned long long>(lookups + c.sheddedRequests),
                  static_cast<unsigned long long>(c.reads));
    return buf;
  }
  const double total = cost.totalCost.dollars();
  if (!std::isfinite(total) || total <= 0.0) return "cost not finite positive";
  for (const core::TierUsage& t : cost.tiers) {
    if (!std::isfinite(t.cpuMicrosTotal) || t.cpuMicrosTotal < 0.0) {
      return "tier cpu not finite";
    }
  }
  return {};
}

std::uint32_t clampNs(std::int64_t ns) {
  if (ns < 0) return 0;
  if (ns > 0xffffffffLL) return 0xffffffffU;
  return static_cast<std::uint32_t>(ns);
}

}  // namespace

CellRun runCell(const WorkloadSpec& spec, Architecture arch, Spans spans,
                bool programTracer, std::vector<wl::Op>* record) {
  CellRun run;
  run.arch = arch;
  run.ops = spec.measuredOps;

  std::int64_t t = threadCpuNs();
  const std::unique_ptr<wl::Workload> workload = spec.makeWorkload();
  std::int64_t t2 = threadCpuNs();
  run.workloadSeconds = static_cast<double>(t2 - t) * 1e-9;

  t = t2;
  core::DeploymentConfig config = spec.deploymentFor(arch);
  if (programTracer) {
    config.trace.sampleEvery = 1;
    config.trace.keepTraces = 0;
  }
  core::Deployment deployment(config);
  if (spec.churn) installChurn(spec, arch, deployment);
  t2 = threadCpuNs();
  run.deploySeconds = static_cast<double>(t2 - t) * 1e-9;

  t = t2;
  if (spec.richObjects) {
    deployment.populateCatalog(
        static_cast<const wl::UcTraceWorkload&>(*workload));
  } else {
    deployment.populateKv(*workload);
  }
  t2 = threadCpuNs();
  run.populateSeconds = static_cast<double>(t2 - t) * 1e-9;
  run.rssAfterPopulateMb = currentRssMb();

  const double microsPerOp = spec.microsPerOp();
  std::uint64_t opIndex = 0;
  const auto advance = [&] {
    deployment.setSimTimeMicros(
        static_cast<std::uint64_t>(microsPerOp * static_cast<double>(opIndex)));
    ++opIndex;
  };
  const auto serve = [&](const wl::Op& op) {
    if (spec.richObjects) {
      deployment.serveObject(op);
    } else {
      deployment.serve(op);
    }
  };

  if (record) record->reserve(spec.warmupOps + spec.measuredOps);
  t = threadCpuNs();
  for (std::uint64_t i = 0; i < spec.warmupOps; ++i) {
    advance();
    const wl::Op op = workload->next();
    serve(op);
    if (record) record->push_back(op);
  }
  deployment.clearMeters();
  t2 = threadCpuNs();
  run.warmupSeconds = static_cast<double>(t2 - t) * 1e-9;

  const std::uint64_t callsBefore = deployment.channel().callCount();
  const std::uint64_t blockHitsBefore = deployment.db().blockCacheHits();
  const std::uint64_t blockMissesBefore = deployment.db().blockCacheMisses();
  const std::size_t n = spec.measuredOps;
  run.opNs.resize(n);
  const std::int64_t startCpu = threadCpuNs();
  const std::int64_t start = nowNs();
  if (spans == Spans::kOp) {
    std::int64_t last = start;
    for (std::size_t i = 0; i < n; ++i) {
      advance();
      const wl::Op op = workload->next();
      serve(op);
      const std::int64_t now = nowNs();
      run.opNs[i] = clampNs(now - last);
      last = now;
      if (record) record->push_back(op);
    }
  } else {
    run.nextNs.resize(n);
    run.advanceNs.resize(n);
    std::int64_t t0 = start;
    for (std::size_t i = 0; i < n; ++i) {
      advance();
      const std::int64_t t1 = nowNs();
      const wl::Op op = workload->next();
      const std::int64_t tNext = nowNs();
      serve(op);
      const std::int64_t t3 = nowNs();
      run.advanceNs[i] = clampNs(t1 - t0);
      run.nextNs[i] = clampNs(tNext - t1);
      run.opNs[i] = clampNs(t3 - tNext);
      t0 = t3;
      if (record) record->push_back(op);
    }
  }
  run.serveSeconds = static_cast<double>(nowNs() - start) * 1e-9;
  run.serveCpuSeconds = static_cast<double>(threadCpuNs() - startCpu) * 1e-9;

  run.counters = deployment.counters();
  run.rpcCalls = deployment.channel().callCount() - callsBefore;
  run.blockHits = deployment.db().blockCacheHits() - blockHitsBefore;
  run.blockMisses = deployment.db().blockCacheMisses() - blockMissesBefore;
  for (const sim::Tier* tier : deployment.tiers()) {
    run.simCpuMicros += tier->aggregateCpu().totalMicros();
  }
  if (const dcache::obs::Tracer* tracer = deployment.tracer()) {
    run.spans = tracer->summary().spanCount;
  }

  // Priced exactly as core::ExperimentRunner prices a measured window.
  const core::CostModel model(core::Pricing::gcp(), 0.7);
  const core::CostBreakdown cost = model.breakdown(
      deployment.tiers(), static_cast<double>(n) / spec.qps,
      deployment.db().totalStoredBytes(), config.replicationFactor);
  Digest digest;
  addCounters(digest, run.counters);
  addCost(digest, cost);
  addLatencies(digest, deployment.latencies());
  run.digest = digest.value();
  run.conservationError =
      checkConservation(run.counters, cost, deployment.latencies().count(),
                        run.ops, arch);
  return run;
}

}  // namespace hostbench
