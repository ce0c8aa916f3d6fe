// The delayed-writes problem (Fig. 8), reproduced on the deterministic
// event loop:
//
//   t0  writer sends W(key, v2) to storage — the RPC is delayed in flight
//   t1  a reshard (node failure / ring change) moves the key's cache
//       ownership to a fresh instance, which warms itself by reading the
//       *current* storage value (v1) and caching it
//   t2  the delayed write lands and commits v2
//   =>  cache (v1) and storage (v2) disagree, silently and indefinitely
//
// The scenario runs with or without epoch fencing: with fencing, the write
// carries the writer's ownership epoch and storage rejects it because the
// reshard bumped the epoch — the anomaly cannot occur (the writer retries
// under the new epoch, through the new owner). sweep() runs many seeds
// with randomized delays/reshard times to measure the anomaly rate.
#pragma once

#include <cstdint>
#include <string>

#include "util/rng.hpp"

namespace dcache::consistency {

struct DelayedWriteConfig {
  std::uint64_t writeDelayMicros = 5000;   // in-flight delay of the write
  std::uint64_t reshardAtMicros = 2000;    // when ownership moves
  std::uint64_t warmReadAtMicros = 3000;   // new owner warms from storage
  bool epochFencing = false;               // the §6 fix under test
};

struct DelayedWriteOutcome {
  bool anomaly = false;        // cache and storage diverged at quiescence
  bool writeRejected = false;  // fencing stopped the stale write
  std::uint64_t cacheVersion = 0;
  std::uint64_t storageVersion = 0;
  std::string history;         // human-readable event log for diagnostics
};

/// Run the scripted Fig. 8 interleaving once.
[[nodiscard]] DelayedWriteOutcome runDelayedWriteScenario(
    const DelayedWriteConfig& config);

/// Randomized sweep: `trials` runs with delays/reshard offsets drawn from
/// `rng`; returns the fraction of runs that ended in an anomaly.
[[nodiscard]] double delayedWriteAnomalyRate(std::uint64_t trials,
                                             bool epochFencing,
                                             util::Pcg32& rng);

}  // namespace dcache::consistency
