#include "calibrate.hpp"

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <stdexcept>

#include "cells.hpp"

namespace hostbench {
namespace {

constexpr std::size_t kChaseSlots = std::size_t{1} << 23;  // 32 MiB
constexpr std::size_t kTableSlots = std::size_t{1} << 19;  // 4 MiB
constexpr int kChaseHops = 20000;
constexpr int kTableOps = 200000;
constexpr int kMixSteps = 400000;
constexpr int kPasses = 3;

/// Highest high-water mark seen before a calibration pass, in MiB.
double peakOutsideCalibrationMb = 0.0;

/// The kernel's resident-set high-water mark (VmHWM) in MiB; getrusage's
/// max RSS where /proc is not readable.
double highWaterMarkMb() {
  long kib = -1;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f)) {
      if (std::sscanf(line, "VmHWM: %ld", &kib) == 1) break;
    }
    std::fclose(f);
  }
  if (kib < 0) {
    rusage usage{};
    kib = getrusage(RUSAGE_SELF, &usage) == 0 ? usage.ru_maxrss : 0;
  }
  return static_cast<double>(kib) / 1024.0;
}

/// Resets the high-water mark to the current RSS (Linux clear_refs "5").
void resetHighWaterMark() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Anonymous mapping of `n` values of T, zero-filled, unmapped on scope exit.
template <typename T>
class Mapping {
 public:
  explicit Mapping(std::size_t n) : bytes_(n * sizeof(T)) {
    void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("calibration: mmap failed");
    data_ = static_cast<T*>(p);
  }
  ~Mapping() { munmap(data_, bytes_); }
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
  T* get() const { return data_; }

 private:
  std::size_t bytes_;
  T* data_ = nullptr;
};

std::uint64_t mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One pass: dependent loads along a pseudo-random cycle through the chase
/// buffer (cache, TLB and memory latency), open-addressing inserts and
/// lookups of hashed keys (L2 misses), then a chain of hashes with an
/// unpredictable branch (arithmetic, branch mispredictions). On the machine
/// the benchmark was sized on the three parts take about equal time.
std::uint64_t pass(const std::uint32_t* chase, std::uint64_t* table) {
  std::uint64_t sink = 0;
  std::uint32_t at = 0;
  for (int i = 0; i < kChaseHops; ++i) {
    at = chase[at];
    sink += at;
  }
  std::fill(table, table + kTableSlots, 0);
  constexpr std::size_t kMask = kTableSlots - 1;
  for (int i = 0; i < kTableOps; ++i) {
    const std::uint64_t key =
        mix(static_cast<std::uint64_t>(i) % (kTableSlots / 2)) | 1;
    std::size_t slot = key & kMask;
    while (table[slot] != 0 && table[slot] != key) slot = (slot + 1) & kMask;
    if (table[slot] == key) {
      sink += slot;
    } else {
      table[slot] = key;
    }
  }
  std::uint64_t x = sink;
  for (int i = 0; i < kMixSteps; ++i) {
    x = mix(x + static_cast<std::uint64_t>(i));
    if (x & 1) {
      x += 3;
    } else {
      x ^= 7;
    }
  }
  return sink + x;
}

/// Median ns of kPasses passes over freshly mapped buffers, after one
/// untimed pass that warms them.
double timedPasses() {
  const Mapping<std::uint32_t> chase(kChaseSlots);
  const Mapping<std::uint64_t> table(kTableSlots);
  // A full-period LCG modulo 2^23 (c odd, a = 1 mod 4): one cycle through
  // every slot, in an order the prefetchers cannot follow.
  for (std::size_t i = 0; i < kChaseSlots; ++i) {
    chase.get()[i] = static_cast<std::uint32_t>((1664525 * i + 1013904223) &
                                                (kChaseSlots - 1));
  }
  volatile std::uint64_t sink = pass(chase.get(), table.get());
  std::array<double, kPasses> ns{};
  for (double& t : ns) {
    const std::int64_t start = threadCpuNs();
    sink = sink + pass(chase.get(), table.get());
    t = static_cast<double>(threadCpuNs() - start);
  }
  std::nth_element(ns.begin(), ns.begin() + kPasses / 2, ns.end());
  return ns[kPasses / 2];
}

}  // namespace

double measureCalibrationNs() {
  peakOutsideCalibrationMb =
      std::max(peakOutsideCalibrationMb, highWaterMarkMb());
  const double ns = timedPasses();
  resetHighWaterMark();
  return ns;
}

double peakRssMb() {
  return std::max(peakOutsideCalibrationMb, highWaterMarkMb());
}

}  // namespace hostbench
