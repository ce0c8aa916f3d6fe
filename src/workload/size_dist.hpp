// Value-size distributions. Sizes are a first-order input to the cost
// study (they drive serialization, replication and disk bytes), so each
// workload declares its distribution explicitly:
//   Fixed         — synthetic sweeps (1KB … 1MB)
//   LogNormal     — Meta-style small objects (median ≈ 10 B)
//   LogNormalParetoTail — Unity-Catalog-style objects (median ≈ 23 KB with
//                   MB-scale tail, Fig. 3a)
#pragma once

#include <cstdint>
#include <memory>

#include "util/rng.hpp"

namespace dcache::workload {

class SizeDistribution {
 public:
  virtual ~SizeDistribution() = default;
  [[nodiscard]] virtual std::uint64_t sample(util::Pcg32& rng) const = 0;

  /// Deterministic size for a key: every access to a key sees one size, as
  /// for a real stored object. Derived by sampling from a key-seeded rng.
  [[nodiscard]] std::uint64_t sizeForKey(std::uint64_t keyIndex) const;
};

class FixedSize final : public SizeDistribution {
 public:
  explicit FixedSize(std::uint64_t bytes) : bytes_(bytes) {}
  [[nodiscard]] std::uint64_t sample(util::Pcg32&) const override {
    return bytes_;
  }

 private:
  std::uint64_t bytes_;
};

class LogNormalSize final : public SizeDistribution {
 public:
  /// `medianBytes` sets mu = ln(median); sigma controls spread. Samples are
  /// clamped to [minBytes, maxBytes].
  LogNormalSize(double medianBytes, double sigma, std::uint64_t minBytes = 1,
                std::uint64_t maxBytes = UINT64_MAX);
  [[nodiscard]] std::uint64_t sample(util::Pcg32& rng) const override;

 private:
  double mu_;
  double sigma_;
  std::uint64_t min_;
  std::uint64_t max_;
};

class LogNormalParetoTailSize final : public SizeDistribution {
 public:
  /// Lognormal body; with probability `tailProbability` the sample instead
  /// comes from a Pareto tail starting at `tailStartBytes`.
  LogNormalParetoTailSize(double medianBytes, double sigma,
                          double tailProbability, double tailStartBytes,
                          double tailShape, std::uint64_t maxBytes);
  [[nodiscard]] std::uint64_t sample(util::Pcg32& rng) const override;

 private:
  LogNormalSize body_;
  double tailProbability_;
  double tailStart_;
  double tailShape_;
  std::uint64_t max_;
};

}  // namespace dcache::workload
