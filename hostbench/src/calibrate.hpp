// Host-speed calibration. A fixed piece of work that shares no code with
// the simulator, timed in thread CPU time between cells. When the host is
// slower (another tenant on the same cores, caches or memory), the
// calibration pass is slower too, so a run's timings can be scaled to the
// speed the host had when the benchmark was sized. A change to the
// simulator does not change the calibration work, so it cannot move the
// scale.
#pragma once

namespace hostbench {

/// Thread CPU ns of one calibration pass on the machine the benchmark was
/// sized on (see README.md). Scaled timings read as ns at that speed.
inline constexpr double kReferenceCalibrationNs = 7.0e6;

/// How far the simulator's timings move with the calibration pass. Over 88
/// runs on that machine, with the pass between 6.1 and 8.7 ms, a 1 %
/// slower pass came with 0.55 % (meta-kv, uc-object) to 0.9 % (kv-churn)
/// slower timings, at a correlation of 0.9 or more. Timings are scaled by
/// (kReferenceCalibrationNs / pass ns) to this power.
inline constexpr double kSpeedElasticity = 0.7;

/// Median thread CPU ns of a few calibration passes. Maps its buffers
/// itself and unmaps them after, so it leaves the heap alone, and keeps
/// them out of peakRssMb().
[[nodiscard]] double measureCalibrationNs();

/// Peak resident set size of this process in MiB, calibration passes left
/// out: the kernel's high-water mark is noted before each pass and reset
/// after it.
[[nodiscard]] double peakRssMb();

}  // namespace hostbench
