#include "workload/size_dist.hpp"

#include <algorithm>
#include <cmath>

#include "util/hash.hpp"

namespace dcache::workload {

std::uint64_t SizeDistribution::sizeForKey(std::uint64_t keyIndex) const {
  util::Pcg32 rng(util::hashU64(keyIndex), 0x5e<<1 | 1);
  return sample(rng);
}

LogNormalSize::LogNormalSize(double medianBytes, double sigma,
                             std::uint64_t minBytes, std::uint64_t maxBytes)
    : mu_(std::log(std::max(medianBytes, 1.0))),
      sigma_(sigma),
      min_(minBytes),
      max_(maxBytes) {}

std::uint64_t LogNormalSize::sample(util::Pcg32& rng) const {
  const double v = util::logNormal(rng, mu_, sigma_);
  const auto n = static_cast<std::uint64_t>(std::llround(std::max(v, 1.0)));
  return std::clamp(n, min_, max_);
}

LogNormalParetoTailSize::LogNormalParetoTailSize(
    double medianBytes, double sigma, double tailProbability,
    double tailStartBytes, double tailShape, std::uint64_t maxBytes)
    : body_(medianBytes, sigma, 1, maxBytes),
      tailProbability_(std::clamp(tailProbability, 0.0, 1.0)),
      tailStart_(tailStartBytes),
      tailShape_(tailShape),
      max_(maxBytes) {}

std::uint64_t LogNormalParetoTailSize::sample(util::Pcg32& rng) const {
  if (util::uniform01(rng) < tailProbability_) {
    const double v = util::pareto(rng, tailStart_, tailShape_);
    const auto n = static_cast<std::uint64_t>(std::llround(v));
    return std::min(n, max_);
  }
  return body_.sample(rng);
}

}  // namespace dcache::workload
