// Miss-ratio curve machinery: exact Mattson stack distances, agreement with
// the production LRU cache, Che approximation sanity, and the Zipf analytic
// curve the Section-4 model builds on.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "cache/flat_cache.hpp"
#include "cache/mrc.hpp"
#include "util/rng.hpp"
#include "workload/zipf.hpp"

namespace dcache::cache {
namespace {

TEST(Mattson, HandComputedDistances) {
  MattsonProfiler profiler;
  EXPECT_EQ(profiler.access("a"), UINT64_MAX);  // cold
  EXPECT_EQ(profiler.access("b"), UINT64_MAX);
  EXPECT_EQ(profiler.access("a"), 2u);  // b touched since
  EXPECT_EQ(profiler.access("a"), 1u);  // immediate re-access
  EXPECT_EQ(profiler.access("c"), UINT64_MAX);
  EXPECT_EQ(profiler.access("b"), 3u);  // a and c since
  EXPECT_EQ(profiler.distinctKeys(), 3u);
  EXPECT_EQ(profiler.accessCount(), 6u);
}

TEST(Mattson, MissRatioMonotoneInCapacity) {
  MattsonProfiler profiler;
  util::Pcg32 rng(17, 1);
  workload::ZipfianGenerator zipf(500, 1.0);
  for (int i = 0; i < 20000; ++i) {
    profiler.access(std::string("k").append(std::to_string(zipf.nextKey(rng))));
  }
  double previous = 1.1;
  for (const std::uint64_t cap : {1u, 2u, 5u, 10u, 50u, 100u, 500u}) {
    const double mr = profiler.missRatio(cap);
    EXPECT_LE(mr, previous + 1e-12) << "capacity " << cap;
    EXPECT_GE(mr, 0.0);
    EXPECT_LE(mr, 1.0);
    previous = mr;
  }
  // At full capacity only cold misses remain: 500 distinct / 20000 accesses.
  EXPECT_NEAR(profiler.missRatio(500), 500.0 / 20000.0, 1e-9);
}

/// The profiler must predict a real LRU cache's miss ratio exactly (same
/// trace, unit-size entries), across capacities.
class MattsonVsLru : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MattsonVsLru, PredictionMatchesSimulation) {
  const std::uint64_t capacityItems = GetParam();
  // Unit-size entries: each put charges overhead + key (5 chars) + 1.
  const std::string sampleKey = "k0000";
  const std::uint64_t perEntry =
      kEntryOverheadBytes + sampleKey.size() + 1;
  FlatCache cache(FlatMode::kLru, util::Bytes::of(capacityItems * perEntry));
  MattsonProfiler profiler;

  util::Pcg32 rng(23, 1);
  workload::ZipfianGenerator zipf(200, 0.9);
  std::uint64_t simMisses = 0;
  constexpr int kOps = 30000;
  for (int i = 0; i < kOps; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof buf, "k%04llu",
                  static_cast<unsigned long long>(zipf.nextKey(rng)));
    const std::string key(buf);
    profiler.access(key);
    if (cache.get(key) == nullptr) {
      ++simMisses;
      cache.put(key, CacheEntry::sized(1));
    }
  }
  const double simulated = static_cast<double>(simMisses) / kOps;
  const double predicted = profiler.missRatio(capacityItems);
  EXPECT_NEAR(predicted, simulated, 1e-9) << "capacity " << capacityItems;
}

INSTANTIATE_TEST_SUITE_P(Capacities, MattsonVsLru,
                         ::testing::Values(1, 4, 16, 64, 128, 200));

TEST(Che, FullCacheHasZeroMissRatio) {
  const auto rates = zipfPopularity(100, 1.2);
  EXPECT_DOUBLE_EQ(cheHitRatio(rates, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(cheHitRatio(rates, 0.0), 0.0);
}

TEST(Che, HitRatioMonotoneInItems) {
  const auto rates = zipfPopularity(1000, 1.0);
  double previous = -1.0;
  for (const double items : {1.0, 5.0, 20.0, 100.0, 500.0, 999.0}) {
    const double hr = cheHitRatio(rates, items);
    EXPECT_GT(hr, previous) << items;
    previous = hr;
  }
}

TEST(Che, CharacteristicTimeSatisfiesConstraint) {
  const auto rates = zipfPopularity(500, 1.1);
  const double items = 50.0;
  const double t = cheCharacteristicTime(rates, items);
  double occupancy = 0.0;
  for (const double p : rates) occupancy += 1.0 - std::exp(-p * t);
  EXPECT_NEAR(occupancy, items, 0.01);
}

TEST(Che, ApproximatesMattsonOnZipfTrace) {
  // Che is an approximation; on IRM Zipf traffic it should be within a few
  // points of the exact curve.
  MattsonProfiler profiler;
  util::Pcg32 rng(29, 1);
  workload::ZipfianGenerator zipf(1000, 1.2);
  for (int i = 0; i < 200000; ++i) {
    profiler.access(std::string("k").append(std::to_string(zipf.nextKey(rng))));
  }
  const auto rates = zipfPopularity(1000, 1.2);
  for (const double items : {10.0, 50.0, 200.0}) {
    const double exact =
        profiler.missRatio(static_cast<std::uint64_t>(items));
    const double approx = 1.0 - cheHitRatio(rates, items);
    EXPECT_NEAR(approx, exact, 0.05) << "items " << items;
  }
}

TEST(ZipfMissRatio, HigherAlphaMissesLess) {
  // More skew => better cacheability at equal size (Fig. 2a mechanism).
  const double mrLow = zipfMissRatio(100000, 0.8, 1000);
  const double mrHigh = zipfMissRatio(100000, 1.3, 1000);
  EXPECT_LT(mrHigh, mrLow);
}

TEST(ZipfMissRatio, Bounds) {
  EXPECT_DOUBLE_EQ(zipfMissRatio(1000, 1.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(zipfMissRatio(1000, 1.0, 1000), 0.0);
  const double mid = zipfMissRatio(1000, 1.0, 100);
  EXPECT_GT(mid, 0.0);
  EXPECT_LT(mid, 1.0);
}

TEST(ZipfPopularity, NormalizedAndDecreasing) {
  const auto rates = zipfPopularity(100, 1.2);
  double sum = 0.0;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    sum += rates[i];
    if (i > 0) {
      EXPECT_LT(rates[i], rates[i - 1]);
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

}  // namespace
}  // namespace dcache::cache
