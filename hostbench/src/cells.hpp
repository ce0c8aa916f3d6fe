// Benchmark workloads and the cell runner. A cell is one architecture
// serving one workload: build the workload and a core::Deployment, populate
// it, warm it, then serve a fixed number of measured ops while timing each
// op from outside with std::chrono::steady_clock. The simulated statistics
// of the measured window are folded into a digest, so a host-only change
// can be checked to leave every simulated number unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/architecture.hpp"
#include "core/deployment.hpp"
#include "workload/workload.hpp"

namespace hostbench {

using dcache::core::Architecture;

enum class Size { kFull, kTiny };

/// One benchmark workload: its op source, the architectures it runs on and
/// the op budget of each cell. The seed reaches only the workload config.
struct WorkloadSpec {
  std::string name;
  std::uint64_t seed = 0;
  std::vector<Architecture> archs;
  double qps = 0.0;  // simulated offered load: op i is due at i / qps
  std::uint64_t warmupOps = 0;
  std::uint64_t measuredOps = 0;
  std::uint64_t keys = 0;
  /// Host time of one round of every cell on the machine the benchmark was
  /// sized on; --seconds S buys S / nominalRoundSeconds rounds.
  double nominalRoundSeconds = 0.0;
  bool richObjects = false;  // serveObject instead of serve
  /// kv-churn: per-node cache capacity, gray fault and rolling restart.
  bool churn = false;
  dcache::util::Bytes cachePerNode;

  [[nodiscard]] std::unique_ptr<dcache::workload::Workload> makeWorkload()
      const;
  [[nodiscard]] dcache::core::DeploymentConfig deploymentFor(
      Architecture arch) const;
  [[nodiscard]] double microsPerOp() const { return 1e6 / qps; }
};

/// Throws std::invalid_argument for an unknown workload name.
[[nodiscard]] WorkloadSpec makeSpec(std::string_view name, std::uint64_t seed,
                                    Size size);
/// Short metric-name form of an architecture: base, remote, linked,
/// linked_version, disagg.
[[nodiscard]] std::string_view archKey(Architecture arch);

/// How the measured loop is timed. kOp: one clock read per op (end-to-end
/// runs). kLayers: spans around setSimTimeMicros, Workload::next and
/// serve separately (traced runs).
enum class Spans { kOp, kLayers };

struct CellRun {
  Architecture arch = Architecture::kBase;
  std::uint64_t ops = 0;  // measured ops served

  // ---- host time: set-up phases and the measured window in thread CPU
  // time (a single-threaded bench that never blocks, so this is wall time
  // less what the hypervisor or kernel gave to others); ops in wall time ----
  double workloadSeconds = 0.0;  // workload construction
  double deploySeconds = 0.0;    // Deployment construction (+ schedules)
  double populateSeconds = 0.0;  // populateKv / populateCatalog
  double warmupSeconds = 0.0;    // warmup serves
  double serveSeconds = 0.0;     // wall time of the measured window
  double serveCpuSeconds = 0.0;  // thread CPU time of the measured window
  double rssAfterPopulateMb = 0.0;
  /// Per measured op, in ns: the whole op (kOp) or the serve span (kLayers).
  std::vector<std::uint32_t> opNs;
  std::vector<std::uint32_t> nextNs;     // kLayers only
  std::vector<std::uint32_t> advanceNs;  // kLayers only

  // ---- simulated output of the measured window ----
  dcache::core::ServeCounters counters;
  std::uint64_t digest = 0;
  std::string conservationError;  // empty when every check holds
  double simCpuMicros = 0.0;
  std::uint64_t rpcCalls = 0;
  std::uint64_t blockHits = 0;
  std::uint64_t blockMisses = 0;
  std::uint64_t spans = 0;  // obs::Tracer spans (program tracer on)

  /// Mean thread CPU ns of the calibration passes just before and just
  /// after this cell (calibrate.hpp).
  double calibrationNs = 0.0;

  [[nodiscard]] double setupSeconds() const {
    return workloadSeconds + deploySeconds + populateSeconds + warmupSeconds;
  }
};

/// Run one cell. `programTracer` turns on obs::Tracer at sampleEvery = 1.
/// When `record` is non-null every op served (warmup, then measured) is
/// appended to it.
[[nodiscard]] CellRun runCell(const WorkloadSpec& spec, Architecture arch,
                              Spans spans, bool programTracer,
                              std::vector<dcache::workload::Op>* record);

/// Host clock in ns (steady_clock).
[[nodiscard]] std::int64_t nowNs();
/// CPU time of the calling thread in ns. Time the hypervisor or the kernel
/// gave to others is not in it.
[[nodiscard]] std::int64_t threadCpuNs();
/// Resident set size of this process now, in MiB.
[[nodiscard]] double currentRssMb();

}  // namespace hostbench
