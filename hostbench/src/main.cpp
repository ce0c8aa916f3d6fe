// dcache_hostbench: single-threaded host-speed benchmark of the simulator.
//
//   dcache_hostbench --workload meta-kv|uc-object|kv-churn --seed N
//                    --seconds S --trace 0|1 [--size full|tiny]
//
// Untraced (--trace 0): runs every cell of the workload once per round, for
// S seconds' worth of rounds at the workload's nominal round time (at
// least four; a fixed count, so every machine does the same work), and
// reports each end-to-end timing from each cell's best round and set-up
// time as the median over rounds, all scaled to a reference host speed by
// the calibration passes between cells. Traced (--trace 1): repeats pairs
// of rounds (bench spans around every public call; then the same with
// obs::Tracer at sampleEvery = 1), replays the recorded op stream through
// standalone layers, and reports the per-layer metrics, unscaled. Either
// way the last stdout
// line is one JSON object with each cell's digests per round and the
// metrics; run.py turns it into the benchmark's result line.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "calibrate.hpp"
#include "cells.hpp"
#include "replay.hpp"

using namespace hostbench;
namespace wl = dcache::workload;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "dcache_hostbench: %s\nusage: dcache_hostbench --workload "
               "NAME --seed N --seconds S --trace 0|1 [--size full|tiny]\n",
               why);
  std::exit(2);
}

Options parseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--size") {
      if (std::strcmp(v, "tiny") == 0) {
        o.size = Size::kTiny;
      } else if (std::strcmp(v, "full") != 0) {
        usage("--size is full or tiny");
      }
    } else {
      usage("unknown flag");
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double lowest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double meanOf(const std::vector<std::uint32_t>& v) {
  double sum = 0.0;
  for (const std::uint32_t x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Pooled quantile over one vector per cell.
double pooledQuantile(const std::vector<CellRun>& cells,
                      std::vector<std::uint32_t> CellRun::*field, double q) {
  std::vector<std::uint32_t> all;
  for (const CellRun& c : cells) {
    all.insert(all.end(), (c.*field).begin(), (c.*field).end());
  }
  return quantileNs(all, q);
}

/// Host cost of one steady_clock read, for reading per-op ns net of it.
double clockReadNs() {
  constexpr int kReads = 1000000;
  std::int64_t sink = 0;
  const std::int64_t t0 = nowNs();
  for (int i = 0; i < kReads; ++i) sink += nowNs() & 1;
  const std::int64_t t1 = nowNs();
  return static_cast<double>(t1 - t0 + (sink & 0)) / kReads;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

using Round = std::vector<CellRun>;

/// Runs every cell once, with a calibration pass before the first cell and
/// after each one; a cell's calibration is the mean of the two around it.
Round runRound(const WorkloadSpec& spec, Spans spans, bool programTracer,
               std::vector<wl::Op>* record) {
  Round round;
  double before = measureCalibrationNs();
  for (const Architecture arch : spec.archs) {
    CellRun cell = runCell(spec, arch, spans, programTracer,
                           round.empty() ? record : nullptr);
    // Hand the cell's freed heap back, so peak RSS is one cell's footprint
    // and does not creep with the number of rounds.
    malloc_trim(0);
    const double after = measureCalibrationNs();
    cell.calibrationNs = 0.5 * (before + after);
    before = after;
    round.push_back(std::move(cell));
  }
  return round;
}

std::uint64_t totalOps(const Round& round) {
  std::uint64_t ops = 0;
  for (const CellRun& c : round) ops += c.ops;
  return ops;
}

double totalServeCpuSeconds(const Round& round) {
  double s = 0.0;
  for (const CellRun& c : round) s += c.serveCpuSeconds;
  return s;
}

double totalSetupSeconds(const Round& round) {
  double s = 0.0;
  for (const CellRun& c : round) s += c.setupSeconds();
  return s;
}

double meanCalibrationNs(const Round& round) {
  double s = 0.0;
  for (const CellRun& c : round) s += c.calibrationNs;
  return ratio(s, static_cast<double>(round.size()));
}

/// Per-cell summary table (human-readable; the JSON line follows it).
void printCells(const Round& round, const char* title) {
  std::printf("%s\n", title);
  std::printf("  %-15s %8s %9s %12s %8s %10s %10s %9s  %s\n", "cell", "ops",
              "setup_s", "ops_per_s", "cpu/wall", "ns_p50", "ns_p99",
              "hit_ratio", "digest");
  for (const CellRun& c : round) {
    std::vector<std::uint32_t> ns = c.opNs;
    const double p50 = quantileNs(ns, 0.5);
    const double p99 = quantileNs(ns, 0.99);
    std::printf("  %-15s %8llu %9.3f %12.0f %8.3f %10.0f %10.0f %9.4f  "
                "%016llx%s\n",
                std::string(archKey(c.arch)).c_str(),
                static_cast<unsigned long long>(c.ops), c.setupSeconds(),
                ratio(static_cast<double>(c.ops), c.serveCpuSeconds),
                ratio(c.serveCpuSeconds, c.serveSeconds), p50, p99,
                c.counters.hitRatio(),
                static_cast<unsigned long long>(c.digest),
                c.conservationError.empty()
                    ? ""
                    : ("  CONSERVATION: " + c.conservationError).c_str());
  }
}

/// Sum of one counter over a round's cells.
template <typename F>
double sumOver(const Round& round, F&& f) {
  double s = 0.0;
  for (const CellRun& c : round) s += static_cast<double>(f(c));
  return s;
}

/// Throughput and set-up are thread CPU time, which leaves out time the
/// hypervisor gave to other guests (on a shared VM host that steal moves
/// wall time by tens of percent). Every timing is multiplied by `scale`.
/// Every timing is taken per cell from that cell's best round: other work
/// on the host only ever slows a cell down, and comes in episodes of a few
/// seconds. The ns quantiles are per cell (the pooled ones would sit
/// between the hit and miss modes of the mixed distribution and move with
/// the seed's hit ratio) and combined by geometric mean, which weighs a
/// relative change in any one cell equally. Set-up time is the median over
/// rounds of the summed set-up of all cells.
std::vector<Metric> timings(const std::vector<Round>& rounds, double scale) {
  std::vector<double> setup;
  for (const Round& r : rounds) setup.push_back(totalSetupSeconds(r) * scale);
  const std::size_t cells = rounds.front().size();
  double seconds = 0.0, logP50 = 0.0, logP99 = 0.0;
  for (std::size_t c = 0; c < cells; ++c) {
    double best = 1e300, p50 = 1e300, p99 = 1e300;
    for (const Round& r : rounds) {
      std::vector<std::uint32_t> ns = r[c].opNs;
      best = std::min(best, r[c].serveCpuSeconds);
      p50 = std::min(p50, quantileNs(ns, 0.5));
      p99 = std::min(p99, quantileNs(ns, 0.99));
    }
    seconds += best * scale;
    logP50 += std::log(std::max(1.0, p50 * scale));
    logP99 += std::log(std::max(1.0, p99 * scale));
  }
  const double n = static_cast<double>(cells);
  return {{"serve_ops_per_s",
           ratio(static_cast<double>(totalOps(rounds.front())), seconds),
           "1/s"},
          {"serve_ns_p50", std::exp(logP50 / n), "ns"},
          {"serve_ns_p99", std::exp(logP99 / n), "ns"},
          {"setup_s", median(setup), "s"}};
}

/// The reported metrics are the timings scaled to the reference host speed
/// by the run's median calibration pass (calibrate.hpp), and peak RSS. The
/// rounds and the unscaled timings are printed beside them.
std::vector<Metric> endToEnd(const std::vector<Round>& rounds) {
  std::vector<double> calibration;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    for (const CellRun& c : r) calibration.push_back(c.calibrationNs);
    std::printf("round %2zu: calibration_ns %10.0f  ops_per_s %10.0f  "
                "setup_s %7.3f (unscaled)\n",
                i, meanCalibrationNs(r),
                ratio(static_cast<double>(totalOps(r)), totalServeCpuSeconds(r)),
                totalSetupSeconds(r));
  }
  const double scale = std::pow(kReferenceCalibrationNs / median(calibration),
                                kSpeedElasticity);
  std::printf("unscaled:");
  for (const Metric& m : timings(rounds, 1.0)) {
    std::printf("  %s %.6g", m.name.c_str(), m.value);
  }
  std::printf("\nscale: %.6f\n", scale);
  std::vector<Metric> metrics = timings(rounds, scale);
  metrics.push_back({"peak_rss_mb", peakRssMb(), "MiB"});
  return metrics;
}

std::vector<Metric> perLayer(const std::vector<std::pair<Round, Round>>& pairs,
                             const ReplayResult& replay) {
  // Host timings: the best pair's (set-up parts: the median). Simulated
  // counters: the first pair's untraced round (identical in every round,
  // or the gate fails the cell).
  const Round& a = pairs.front().first;
  std::vector<double> next, advance, overhead;
  for (const auto& [plain, traced] : pairs) {
    next.push_back(pooledQuantile(plain, &CellRun::nextNs, 0.5));
    advance.push_back(pooledQuantile(plain, &CellRun::advanceNs, 0.99));
    const double base = pooledQuantile(plain, &CellRun::opNs, 0.5);
    const double withTracer = pooledQuantile(traced, &CellRun::opNs, 0.5);
    overhead.push_back(100.0 * ratio(withTracer - base, base));
  }
  const double ops = static_cast<double>(totalOps(a));
  const auto perOp = [&](auto f) { return ratio(sumOver(a, f), ops); };

  std::vector<Metric> m;
  m.push_back({"workload.next_ns_p50", lowest(next), "ns"});
  for (const Architecture arch : dcache::core::kAllArchitectures) {
    std::vector<double> p50;
    for (const auto& pair : pairs) {
      for (const CellRun& c : pair.first) {
        if (c.arch != arch) continue;
        std::vector<std::uint32_t> ns = c.opNs;
        p50.push_back(quantileNs(ns, 0.5));
      }
    }
    m.push_back({"core.serve_ns_p50." + std::string(archKey(arch)),
                 lowest(p50), "ns"});
  }
  m.push_back({"core.advance_ns_p99", lowest(advance), "ns"});
  m.push_back({"core.advance_ns_mean",
               lowest([&] {
                 std::vector<double> means;
                 for (const auto& pair : pairs) {
                   double sum = 0.0;
                   for (const CellRun& c : pair.first) {
                     sum += meanOf(c.advanceNs) * static_cast<double>(c.ops);
                   }
                   means.push_back(
                       ratio(sum, static_cast<double>(totalOps(pair.first))));
                 }
                 return means;
               }()),
               "ns"});
  {
    std::vector<double> populate, warmup;
    for (const auto& pair : pairs) {
      populate.push_back(
          sumOver(pair.first, [](const CellRun& c) { return c.populateSeconds; }));
      warmup.push_back(
          sumOver(pair.first, [](const CellRun& c) { return c.warmupSeconds; }));
    }
    m.push_back({"core.populate_s", median(populate), "s"});
    m.push_back({"core.warmup_s", median(warmup), "s"});
  }
  double rssAfterPopulate = 0.0;
  for (const CellRun& c : a) {
    rssAfterPopulate = std::max(rssAfterPopulate, c.rssAfterPopulateMb);
  }
  m.push_back({"core.rss_after_populate_mb", rssAfterPopulate, "MiB"});
  m.push_back({"core.degraded_reads_per_op",
               perOp([](const CellRun& c) { return c.counters.degradedReads; }),
               "1/op"});
  m.push_back({"core.coalesced_misses_per_op",
               perOp([](const CellRun& c) { return c.counters.coalescedMisses; }),
               "1/op"});
  m.push_back({"core.migrated_keys",
               sumOver(a, [](const CellRun& c) { return c.counters.migratedKeys; }),
               "count"});
  m.push_back({"core.handoff_fallback_reads",
               sumOver(a, [](const CellRun& c) {
                 return c.counters.handoffFallbackReads;
               }),
               "count"});
  m.push_back({"core.sim_failed_ops",
               sumOver(a, [](const CellRun& c) { return c.counters.failedOps; }),
               "count"});

  for (const Architecture arch : dcache::core::kAllArchitectures) {
    double hitRatio = 0.0;
    for (const CellRun& c : a) {
      if (c.arch == arch) hitRatio = c.counters.hitRatio();
    }
    m.push_back({"cache.hit_ratio." + std::string(archKey(arch)), hitRatio,
                 "ratio"});
  }
  double hotHitRatio = 0.0;
  for (const CellRun& c : a) {
    if (c.arch == Architecture::kDisaggregated) {
      hotHitRatio = ratio(static_cast<double>(c.counters.hotCacheHits),
                          static_cast<double>(c.counters.reads));
    }
  }
  m.push_back({"cache.hot_hit_ratio", hotHitRatio, "ratio"});
  m.push_back({"cache.get_ns_p50", replay.cacheGet.p50Ns, "ns"});
  m.push_back({"cache.put_ns_p50", replay.cachePut.p50Ns, "ns"});
  m.push_back({"cache.evictions_per_op", replay.cacheEvictionsPerOp, "1/op"});

  m.push_back({"rpc.call_ns_p50", replay.rpcCall.p50Ns, "ns"});
  m.push_back({"rpc.call_policy_ns_p50", replay.rpcPolicy.p50Ns, "ns"});
  m.push_back({"rpc.retries_per_op",
               perOp([](const CellRun& c) { return c.counters.retries; }),
               "1/op"});
  m.push_back({"rpc.wasted_cpu_share",
               ratio(sumOver(a, [](const CellRun& c) {
                       return c.counters.wastedCpuMicros;
                     }),
                     sumOver(a, [](const CellRun& c) { return c.simCpuMicros; })),
               "ratio"});
  m.push_back({"rpc.far_reads_per_op",
               perOp([](const CellRun& c) { return c.counters.farMemoryReads; }),
               "1/op"});

  m.push_back({"storage.reads_per_op",
               perOp([](const CellRun& c) { return c.counters.storageReads; }),
               "1/op"});
  m.push_back({"storage.statements_per_op",
               perOp([](const CellRun& c) { return c.counters.statementsIssued; }),
               "1/op"});
  const double blockHits = sumOver(a, [](const CellRun& c) { return c.blockHits; });
  const double blockMisses =
      sumOver(a, [](const CellRun& c) { return c.blockMisses; });
  m.push_back({"storage.block_hit_ratio",
               ratio(blockHits, blockHits + blockMisses), "ratio"});
  m.push_back({"storage.read_value_ns_p50", replay.readValue.p50Ns, "ns"});
  m.push_back({"storage.write_value_ns_p50", replay.writeValue.p50Ns, "ns"});
  m.push_back({"storage.exec_ns_p50", replay.exec.p50Ns, "ns"});
  m.push_back({"richobject.get_table_ns_p50", replay.getTable.p50Ns, "ns"});
  m.push_back(
      {"richobject.update_table_ns_p50", replay.updateTable.p50Ns, "ns"});

  m.push_back({"consistency.version_checks_per_op",
               perOp([](const CellRun& c) { return c.counters.versionChecks; }),
               "1/op"});
  m.push_back({"consistency.client_invalidations_per_op",
               perOp([](const CellRun& c) {
                 return c.counters.clientInvalidations;
               }),
               "1/op"});

  m.push_back({"sim.cpu_us_per_op",
               perOp([](const CellRun& c) { return c.simCpuMicros; }), "us"});
  const Round& traced = pairs.front().second;
  m.push_back({"obs.spans_per_op",
               ratio(sumOver(traced, [](const CellRun& c) { return c.spans; }),
                     static_cast<double>(totalOps(traced))),
               "1/op"});
  m.push_back({"obs.trace_overhead_pct", median(overhead), "%"});
  m.push_back({"obs.clock_read_ns", clockReadNs(), "ns"});
  std::vector<double> calibration;
  for (const auto& pair : pairs) {
    calibration.push_back(meanCalibrationNs(pair.first));
  }
  m.push_back({"host.calibration_ns", median(calibration), "ns"});
  return m;
}

/// Where an op's host time goes: measured spans for the layers the
/// bench loop calls, replayed ns x calls per op for the layers inside serve, and the
/// remainder as core glue. Means, so the parts add up.
void printShares(const WorkloadSpec& spec, const Round& a,
                 const ReplayResult& r) {
  const double ops = static_cast<double>(totalOps(a));
  const auto perOp = [&](auto f) { return ratio(sumOver(a, f), ops); };
  double opNs = 0.0, nextNs = 0.0, advanceNs = 0.0;
  for (const CellRun& c : a) {
    const double w = static_cast<double>(c.ops) / ops;
    opNs += w * (meanOf(c.opNs) + meanOf(c.nextNs) + meanOf(c.advanceNs));
    nextNs += w * meanOf(c.nextNs);
    advanceNs += w * meanOf(c.advanceNs);
  }
  const double gets = perOp([](const CellRun& c) {
    return c.counters.cacheHits + c.counters.cacheMisses;
  });
  const double puts = perOp([](const CellRun& c) {
    return c.arch == Architecture::kBase
               ? 0
               : c.counters.cacheMisses + c.counters.writes;
  });
  const double storageReads =
      perOp([](const CellRun& c) { return c.counters.storageReads; });
  const double writes = perOp([](const CellRun& c) { return c.counters.writes; });
  const double rpcCalls = perOp([](const CellRun& c) { return c.rpcCalls; });

  const double cacheNs = gets * r.cacheGet.meanNs + puts * r.cachePut.meanNs;
  double storageNs = 0.0, objectNs = 0.0, rpcInside = 0.0;
  if (spec.richObjects) {
    // Every Base read and every cache miss assembles the object.
    const double getTables = perOp([](const CellRun& c) {
      return c.arch == Architecture::kBase ? c.counters.reads
                                           : c.counters.cacheMisses;
    });
    const double statements =
        perOp([](const CellRun& c) { return c.counters.statementsIssued; });
    storageNs = statements * r.exec.meanNs;
    objectNs =
        getTables * std::max(0.0, r.getTable.meanNs -
                                      r.statementsPerGetTable * r.exec.meanNs) +
        writes * std::max(0.0, r.updateTable.meanNs - 2.0 * r.exec.meanNs);
    rpcInside = getTables * r.rpcPerGetTable;
  } else {
    storageNs = storageReads * r.readValue.meanNs + writes * r.writeValue.meanNs;
    rpcInside =
        storageReads * r.rpcPerReadValue + writes * r.rpcPerWriteValue;
  }
  const double rpcNs = std::max(0.0, rpcCalls - rpcInside) *
                       (spec.churn ? r.rpcPolicy.meanNs : r.rpcCall.meanNs);
  const double glue =
      opNs - nextNs - advanceNs - cacheNs - rpcNs - storageNs - objectNs;
  std::printf("layer shares of op host time (%s, mean op %.0f ns)\n",
              spec.name.c_str(), opNs);
  const std::pair<const char*, double> rows[] = {
      {"workload", nextNs}, {"core.advance", advanceNs},
      {"cache", cacheNs},   {"rpc", rpcNs},
      {"storage", storageNs}, {"richobject", objectNs},
      {"core.glue", glue}};
  for (const auto& [name, ns] : rows) {
    std::printf("  %-13s %10.0f ns  %6.1f %%\n", name, ns,
                100.0 * ratio(ns, opNs));
  }
}

void printJson(const Options& o, const std::vector<Round>& rounds,
               const std::vector<Metric>& metrics) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"size\": \"%s\", "
              "\"trace\": %d, \"rounds\": %zu, \"cells\": [",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.size == Size::kTiny ? "tiny" : "full", o.trace ? 1 : 0,
              rounds.size());
  const Round& first = rounds.front();
  for (std::size_t i = 0; i < first.size(); ++i) {
    std::printf("%s{\"arch\": \"%s\", \"ops\": %llu, \"digests\": [",
                i ? ", " : "", std::string(archKey(first[i].arch)).c_str(),
                static_cast<unsigned long long>(first[i].ops));
    std::string conservation;
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      std::printf("%s\"%016llx\"", r ? ", " : "",
                  static_cast<unsigned long long>(rounds[r][i].digest));
      if (conservation.empty()) conservation = rounds[r][i].conservationError;
    }
    std::printf("], \"conservation\": \"%s\"}", conservation.c_str());
  }
  std::printf("], \"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parseOptions(argc, argv);
  WorkloadSpec spec;
  try {
    spec = makeSpec(o.workload, o.seed, o.size);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  const double nominal = std::max(1e-3, spec.nominalRoundSeconds);

  if (!o.trace) {
    const std::size_t count = std::max<std::size_t>(
        4, static_cast<std::size_t>(std::lround(o.seconds / nominal)));
    std::vector<Round> rounds;
    while (rounds.size() < count) {
      rounds.push_back(runRound(spec, Spans::kOp, false, nullptr));
    }
    printCells(rounds.back(), ("cells of " + o.workload + " (last round of " +
                               std::to_string(rounds.size()) + ")")
                                  .c_str());
    const std::vector<Metric> metrics = endToEnd(rounds);
    std::printf("serve_ns quantiles: per cell over %llu op samples per "
                "round, geometric mean over %zu cells\n",
                static_cast<unsigned long long>(spec.measuredOps),
                spec.archs.size());
    printJson(o, rounds, metrics);
    return 0;
  }

  // A traced pair costs about 2.6 untraced rounds.
  const std::size_t count = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(o.seconds / (2.6 * nominal))));
  std::vector<std::pair<Round, Round>> pairs;
  std::vector<wl::Op> recorded;
  while (pairs.size() < count) {
    Round plain = runRound(spec, Spans::kLayers, false,
                           pairs.empty() ? &recorded : nullptr);
    Round traced = runRound(spec, Spans::kLayers, true, nullptr);
    pairs.emplace_back(std::move(plain), std::move(traced));
  }
  const ReplayResult replay = replayLayers(spec, recorded);
  printCells(pairs.front().first, ("cells of " + o.workload +
                                   " (bench spans, program tracer off)")
                                      .c_str());
  printShares(spec, pairs.front().first, replay);
  std::vector<Round> rounds;
  for (auto& [plain, traced] : pairs) {
    rounds.push_back(plain);
    rounds.push_back(traced);
  }
  printJson(o, rounds, perLayer(pairs, replay));
  return 0;
}
