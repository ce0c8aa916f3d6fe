#include "core/report.hpp"

#include <algorithm>
#include <array>
#include <cstdio>

#include "util/table_printer.hpp"

namespace dcache::core {
namespace {

[[nodiscard]] std::string percent(double fraction) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%.1f%%", fraction * 100.0);
  return buf;
}

}  // namespace

std::string costComparisonTable(std::span<const ExperimentResult> results,
                                const std::string& title) {
  util::TablePrinter table({"architecture", "compute", "memory", "storage",
                            "total", "hit%", "mean_lat_us", "saving"});
  for (const ExperimentResult& r : results) {
    const double saving =
        results.empty() ? 1.0 : savingsVs(results.front(), r);
    char savingBuf[16];
    std::snprintf(savingBuf, sizeof savingBuf, "%.2fx", saving);
    table.addRow({r.architecture, r.cost.computeCost.str(),
                  r.cost.memoryCost.str(), r.cost.storageCost.str(),
                  r.cost.totalCost.str(), percent(r.counters.hitRatio()),
                  util::TablePrinter::toCell(r.meanLatencyMicros),
                  savingBuf});
  }
  return table.str(title);
}

std::string cpuBreakdownTable(const ExperimentResult& result,
                              const std::string& title) {
  util::TablePrinter table({"tier", "cores", "component", "share"});
  for (const TierUsage& tier : result.cost.tiers) {
    if (tier.cpuMicrosTotal <= 0.0) continue;
    bool first = true;
    for (std::size_t c = 0; c < sim::kNumCpuComponents; ++c) {
      const double micros = tier.cpuMicrosByComponent[c];
      if (micros <= 0.0) continue;
      table.addRow({first ? tier.name : "",
                    first ? util::TablePrinter::toCell(tier.cores) : "",
                    std::string(sim::cpuComponentName(
                        static_cast<sim::CpuComponent>(c))),
                    percent(micros / tier.cpuMicrosTotal)});
      first = false;
    }
  }
  return table.str(title);
}

double memoryCostShare(const ExperimentResult& result) {
  return result.cost.memoryShare();
}

double savingsVs(const ExperimentResult& baseline,
                 const ExperimentResult& result) {
  return result.cost.totalCost.micros() != 0
             ? baseline.cost.totalCost / result.cost.totalCost
             : 0.0;
}

namespace {

[[nodiscard]] std::string microsCell(double micros) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3fus", micros);
  return buf;
}

/// One span line: indent ladder, name, tier, outcome, subtree/self charges.
void renderSpan(std::string& out, const obs::Trace& trace, std::size_t i,
                std::size_t depth) {
  const obs::SpanNode& span = trace.spans[i];
  out.append(2 * depth, ' ');
  out += span.name;
  out += " [" + std::string(sim::tierKindName(span.tier)) + "/" +
         std::string(sim::spanOutcomeName(span.outcome)) + "]";
  out += " total=" + microsCell(trace.subtreeCpuMicros(i));
  out += " self=" + microsCell(span.cpuMicros);
  if (const std::uint64_t bytes = trace.subtreeBytes(i); bytes > 0) {
    out += " bytes=" + std::to_string(bytes);
  }
  out.push_back('\n');
  for (std::size_t j = i + 1; j < trace.spans.size(); ++j) {
    if (trace.spans[j].parent == i) renderSpan(out, trace, j, depth + 1);
  }
}

}  // namespace

std::string traceTreeReport(const ExperimentResult& result,
                            const std::string& title,
                            std::size_t maxTraces) {
  const obs::TraceSummary& trace = result.trace;
  if (!trace.enabled()) return {};

  std::string out = "== " + title + " ==\n";
  char line[160];
  std::snprintf(line, sizeof line,
                "sampling: 1 in %llu | requests=%llu sampled=%llu spans=%llu\n",
                static_cast<unsigned long long>(trace.sampleEvery),
                static_cast<unsigned long long>(trace.requests),
                static_cast<unsigned long long>(trace.sampledRequests),
                static_cast<unsigned long long>(trace.spanCount));
  out += line;

  out += "traced cpu by tier:";
  for (std::size_t t = 0; t < obs::kNumTierKinds; ++t) {
    const double micros =
        trace.tierCpuMicros(static_cast<sim::TierKind>(t));
    if (micros <= 0.0) continue;
    const double share =
        trace.cpuMicrosTotal > 0.0 ? micros / trace.cpuMicrosTotal : 0.0;
    std::snprintf(line, sizeof line, " %s=%s (%s)",
                  std::string(sim::tierKindName(static_cast<sim::TierKind>(t)))
                      .c_str(),
                  microsCell(micros).c_str(), percent(share).c_str());
    out += line;
  }
  out.push_back('\n');

  out += "span outcomes:";
  for (std::size_t o = 0; o < obs::kNumSpanOutcomes; ++o) {
    const std::uint64_t n = trace.outcomeCounts[o];
    if (n == 0) continue;
    out += ' ';
    out += sim::spanOutcomeName(static_cast<sim::SpanOutcome>(o));
    out += '=';
    out += std::to_string(n);
  }
  out.push_back('\n');

  const std::size_t shown = std::min(maxTraces, trace.kept.size());
  for (std::size_t k = 0; k < shown; ++k) {
    const obs::Trace& t = trace.kept[k];
    std::snprintf(line, sizeof line,
                  "trace #%llu (request %llu): cpu=%s\n",
                  static_cast<unsigned long long>(k),
                  static_cast<unsigned long long>(t.requestIndex),
                  microsCell(t.totalCpuMicros()).c_str());
    out += line;
    if (!t.spans.empty()) renderSpan(out, t, 0, 1);
    // Component ladder: where this one request's CPU went, enum order so
    // the rendering is stable.
    std::array<double, sim::kNumCpuComponents> byComponent{};
    double total = 0.0;
    for (const obs::SpanNode& span : t.spans) {
      for (std::size_t c = 0; c < sim::kNumCpuComponents; ++c) {
        byComponent[c] += span.cpuByComponent[c];
        total += span.cpuByComponent[c];
      }
    }
    out += "  components:";
    for (std::size_t c = 0; c < sim::kNumCpuComponents; ++c) {
      if (byComponent[c] <= 0.0) continue;
      std::snprintf(
          line, sizeof line, " %s=%s",
          std::string(
              sim::cpuComponentName(static_cast<sim::CpuComponent>(c)))
              .c_str(),
          percent(total > 0.0 ? byComponent[c] / total : 0.0).c_str());
      out += line;
    }
    out.push_back('\n');
  }
  return out;
}

void exportExperimentMetrics(obs::MetricsRegistry& registry,
                             std::string_view prefix,
                             const ExperimentResult& result) {
  const std::string base(prefix);
  const ServeCounters& c = result.counters;
  registry.setCounter(base + "reads", c.reads);
  registry.setCounter(base + "writes", c.writes);
  registry.setCounter(base + "cache_hits", c.cacheHits);
  registry.setCounter(base + "cache_misses", c.cacheMisses);
  registry.setCounter(base + "version_checks", c.versionChecks);
  registry.setCounter(base + "version_mismatches", c.versionMismatches);
  registry.setCounter(base + "statements_issued", c.statementsIssued);
  registry.setCounter(base + "ttl_expirations", c.ttlExpirations);
  registry.setCounter(base + "storage_reads", c.storageReads);
  registry.setCounter(base + "retries", c.retries);
  registry.setCounter(base + "timeouts", c.timeouts);
  registry.setCounter(base + "failed_calls", c.failedCalls);
  registry.setCounter(base + "degraded_reads", c.degradedReads);
  registry.setCounter(base + "coalesced_misses", c.coalescedMisses);
  registry.setGauge(base + "wasted_cpu_micros", c.wastedCpuMicros);
  registry.setGauge(base + "hit_ratio", c.hitRatio());
  registry.setCounter(base + "shedded_requests", c.sheddedRequests);
  registry.setCounter(base + "queue_timeouts", c.queueTimeouts);
  registry.setCounter(base + "queue_rejections", c.queueRejections);
  registry.setCounter(base + "breaker_opens", c.breakerOpens);
  registry.setCounter(base + "breaker_short_circuits",
                      c.breakerShortCircuits);
  registry.setCounter(base + "hedges_sent", c.hedgesSent);
  registry.setCounter(base + "hedge_wins", c.hedgeWins);
  registry.setCounter(base + "budget_exhausted", c.budgetExhausted);
  registry.setCounter(base + "failed_ops", c.failedOps);
  registry.setCounter(base + "ejected_nodes", c.ejectedNodes);
  registry.setCounter(base + "replica_fallback_reads",
                      c.replicaFallbackReads);
  registry.setCounter(base + "stale_replica_reads", c.staleReplicaReads);
  registry.setCounter(base + "replica_write_fanout", c.replicaWriteFanout);
  registry.setGauge(base + "detection_lag_micros", c.detectionLagMicros);
  registry.setCounter(base + "far_memory_reads", c.farMemoryReads);
  registry.setCounter(base + "far_memory_bytes", c.farMemoryBytes);
  registry.setCounter(base + "hot_cache_hits", c.hotCacheHits);
  registry.setCounter(base + "client_invalidations", c.clientInvalidations);
  registry.setCounter(base + "planned_joins", c.plannedJoins);
  registry.setCounter(base + "planned_leaves", c.plannedLeaves);
  registry.setCounter(base + "migrated_keys", c.migratedKeys);
  registry.setCounter(base + "migrated_bytes", c.migratedBytes);
  registry.setCounter(base + "handoff_fallback_reads",
                      c.handoffFallbackReads);
  registry.setCounter(base + "epoch_fences", c.epochFences);

  registry.setGauge(base + "cost.compute_usd", result.cost.computeCost.dollars());
  registry.setGauge(base + "cost.memory_usd", result.cost.memoryCost.dollars());
  registry.setGauge(base + "cost.storage_usd", result.cost.storageCost.dollars());
  registry.setGauge(base + "cost.total_usd", result.cost.totalCost.dollars());
  registry.setHistogram(base + "latency_us", result.latencies);

  for (const TierUsage& tier : result.cost.tiers) {
    const std::string tbase = base + "tier." + tier.name + ".";
    registry.setCounter(tbase + "nodes", tier.nodes);
    registry.setGauge(tbase + "cores", tier.cores);
    registry.setGauge(tbase + "cpu_micros_total", tier.cpuMicrosTotal);
    registry.setCounter(tbase + "memory_provisioned_bytes",
                        tier.memoryProvisioned.count());
  }

  if (result.trace.enabled()) {
    const obs::TraceSummary& t = result.trace;
    registry.setCounter(base + "trace.sample_every", t.sampleEvery);
    registry.setCounter(base + "trace.requests", t.requests);
    registry.setCounter(base + "trace.sampled_requests", t.sampledRequests);
    registry.setCounter(base + "trace.spans", t.spanCount);
    registry.setGauge(base + "trace.cpu_micros", t.cpuMicrosTotal);
    registry.setCounter(base + "trace.bytes_moved", t.bytesMoved);
    for (std::size_t o = 0; o < obs::kNumSpanOutcomes; ++o) {
      if (t.outcomeCounts[o] == 0) continue;
      registry.setCounter(
          base + "trace.outcome." +
              std::string(sim::spanOutcomeName(
                  static_cast<sim::SpanOutcome>(o))),
          t.outcomeCounts[o]);
    }
  }
}

double queryProcessingShare(const ExperimentResult& result) {
  double queryMicros = 0.0;
  double totalMicros = 0.0;
  for (const TierUsage& tier : result.cost.tiers) {
    if (tier.kind != sim::TierKind::kSqlFrontend &&
        tier.kind != sim::TierKind::kKvStorage) {
      continue;
    }
    totalMicros += tier.cpuMicrosTotal;
    queryMicros +=
        tier.cpuMicrosByComponent[static_cast<std::size_t>(
            sim::CpuComponent::kConnectionMgmt)] +
        tier.cpuMicrosByComponent[static_cast<std::size_t>(
            sim::CpuComponent::kQueryParse)] +
        tier.cpuMicrosByComponent[static_cast<std::size_t>(
            sim::CpuComponent::kQueryPlan)];
  }
  return totalMicros > 0.0 ? queryMicros / totalMicros : 0.0;
}

}  // namespace dcache::core
