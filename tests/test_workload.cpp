// Workload generator tests: Zipf law recovery, permutation bijectivity,
// size distribution targets, per-key determinism, and trace IO round trips.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <string_view>
#include <vector>

#include "util/stats.hpp"
#include "workload/meta_trace.hpp"
#include "workload/size_dist.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace_io.hpp"
#include "workload/twitter_trace.hpp"
#include "workload/uc_trace.hpp"
#include "workload/workload.hpp"
#include "workload/zipf.hpp"

namespace dcache::workload {
namespace {

TEST(Zipf, RanksInRange) {
  ZipfianGenerator zipf(1000, 1.2);
  util::Pcg32 rng(1, 1);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t rank = zipf.nextRank(rng);
    EXPECT_GE(rank, 1u);
    EXPECT_LE(rank, 1000u);
  }
}

/// Empirical rank frequencies must follow k^-alpha (checked for the head
/// ranks where counts are statistically solid), across alphas incl. 1.0.
class ZipfLaw : public ::testing::TestWithParam<double> {};

TEST_P(ZipfLaw, HeadFrequenciesMatchAnalytic) {
  const double alpha = GetParam();
  constexpr std::uint64_t kKeys = 10000;
  constexpr int kDraws = 400000;
  ZipfianGenerator zipf(kKeys, alpha);
  util::Pcg32 rng(7, 1);
  std::vector<std::uint64_t> counts(16, 0);
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t rank = zipf.nextRank(rng);
    if (rank <= 15) ++counts[rank];
  }
  const double h = util::generalizedHarmonic(kKeys, alpha);
  for (std::uint64_t k = 1; k <= 10; ++k) {
    const double expected = std::pow(static_cast<double>(k), -alpha) / h;
    const double observed =
        static_cast<double>(counts[k]) / static_cast<double>(kDraws);
    EXPECT_NEAR(observed, expected, expected * 0.1 + 0.001)
        << "alpha=" << alpha << " rank=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfLaw,
                         ::testing::Values(0.8, 1.0, 1.2, 1.4));

TEST(Zipf, PermutationIsBijective) {
  ZipfianGenerator zipf(10007, 1.0);
  std::set<std::uint64_t> seen;
  for (std::uint64_t rank = 1; rank <= 10007; ++rank) {
    const std::uint64_t key = zipf.permuteRank(rank);
    EXPECT_LT(key, 10007u);
    EXPECT_TRUE(seen.insert(key).second) << "collision at rank " << rank;
  }
}

TEST(Zipf, PermutationBijectiveForAdversarialSizes) {
  // Composite, power-of-two and highly-divisible key counts: the scramble
  // multiplier must be reduced mod n and coprime to n for a bijection.
  for (const std::uint64_t n : {6ull, 30030ull, 65536ull, 100000ull}) {
    ZipfianGenerator zipf(n, 1.0);
    ASSERT_EQ(std::gcd(zipf.scrambleMultiplier(), n), 1u) << "n " << n;
    std::vector<bool> seen(n, false);
    for (std::uint64_t rank = 1; rank <= n; ++rank) {
      const std::uint64_t key = zipf.permuteRank(rank);
      ASSERT_LT(key, n);
      ASSERT_FALSE(seen[key]) << "collision at rank " << rank << " n " << n;
      seen[key] = true;
    }
  }
}

TEST(Zipf, ScrambleFallsBackWhenKeyCountSharesPrimeFactor) {
  // Key counts that are multiples of the primary scramble prime: the
  // primary multiplier reduces to a non-coprime residue (0 for n == p,
  // collapsing every rank onto key 0), so a fallback must kick in.
  constexpr std::uint64_t kPrime = 2654435761ull;
  for (const std::uint64_t n : {kPrime, 2 * kPrime, 3 * kPrime}) {
    ZipfianGenerator zipf(n, 1.2);
    const std::uint64_t m = zipf.scrambleMultiplier();
    ASSERT_NE(m % n, 0u) << "n " << n;
    ASSERT_EQ(std::gcd(m, n), 1u) << "n " << n;
    std::set<std::uint64_t> keys;
    for (std::uint64_t rank = 1; rank <= 1000; ++rank) {
      keys.insert(zipf.permuteRank(rank));
    }
    EXPECT_EQ(keys.size(), 1000u) << "n " << n;  // no collapse
  }
}

TEST(Zipf, PermutationSurvivesUint64Overflow) {
  // For key counts past ~2^64 / multiplier the product (rank-1) * m no
  // longer fits in 64 bits. A wrapped product breaks the modular step
  // property f(r+1) = f(r) + m (mod n); check it at ranks on both sides
  // of the overflow threshold. n is odd, so a 2^64 wrap never aliases.
  constexpr std::uint64_t kN = 8000000011ull;
  ZipfianGenerator zipf(kN, 1.0);
  const std::uint64_t m = zipf.scrambleMultiplier();
  ASSERT_EQ(std::gcd(m, kN), 1u);
  for (const std::uint64_t rank : {std::uint64_t{1}, std::uint64_t{2654435761},
                                   std::uint64_t{6950000000}, kN - 1}) {
    const std::uint64_t a = zipf.permuteRank(rank);
    const std::uint64_t b = zipf.permuteRank(rank + 1);
    ASSERT_LT(a, kN);
    EXPECT_EQ((a + m) % kN, b) << "rank " << rank;
  }
}

TEST(Zipf, DeterministicGivenRngState) {
  ZipfianGenerator zipf(100, 1.1);
  util::Pcg32 a(5, 1);
  util::Pcg32 b(5, 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zipf.nextRank(a), zipf.nextRank(b));
  }
}

TEST(SizeDist, FixedIsFixed) {
  const FixedSize dist(4096);
  util::Pcg32 rng(1, 1);
  EXPECT_EQ(dist.sample(rng), 4096u);
  EXPECT_EQ(dist.sizeForKey(7), 4096u);
}

TEST(SizeDist, LogNormalMedianNearTarget) {
  const LogNormalSize dist(10.0, 1.4, 1, 16384);
  util::Pcg32 rng(2, 1);
  std::vector<double> sample;
  for (int i = 0; i < 50000; ++i) {
    sample.push_back(static_cast<double>(dist.sample(rng)));
  }
  EXPECT_NEAR(util::exactQuantile(sample, 0.5), 10.0, 2.0);
}

TEST(SizeDist, ClampsRespected) {
  const LogNormalSize dist(100.0, 3.0, 50, 200);
  util::Pcg32 rng(3, 1);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t s = dist.sample(rng);
    EXPECT_GE(s, 50u);
    EXPECT_LE(s, 200u);
  }
}

TEST(SizeDist, ParetoTailProducesLargeObjects) {
  const LogNormalParetoTailSize dist(23.0 * 1024, 1.1, 0.02, 256.0 * 1024,
                                     1.1, 8ULL << 20);
  util::Pcg32 rng(4, 1);
  std::uint64_t maxSeen = 0;
  for (int i = 0; i < 50000; ++i) maxSeen = std::max(maxSeen, dist.sample(rng));
  EXPECT_GT(maxSeen, 1ULL << 20);  // MB-scale tail objects exist (Fig. 3a)
}

TEST(SizeDist, PerKeySizeIsDeterministic) {
  const LogNormalSize dist(100.0, 1.0);
  EXPECT_EQ(dist.sizeForKey(42), dist.sizeForKey(42));
  // Different keys draw different sizes (overwhelmingly).
  int distinct = 0;
  for (std::uint64_t k = 0; k < 100; ++k) {
    distinct += dist.sizeForKey(k) != dist.sizeForKey(k + 1) ? 1 : 0;
  }
  EXPECT_GT(distinct, 90);
}

TEST(Synthetic, ReadRatioNearTarget) {
  SyntheticConfig config;
  config.readRatio = 0.93;
  SyntheticWorkload workload(config);
  int reads = 0;
  constexpr int kOps = 50000;
  for (int i = 0; i < kOps; ++i) reads += workload.next().isRead() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(reads) / kOps, 0.93, 0.01);
}

TEST(Synthetic, DeterministicBySeed) {
  SyntheticConfig config;
  SyntheticWorkload a(config);
  SyntheticWorkload b(config);
  for (int i = 0; i < 1000; ++i) {
    const Op opA = a.next();
    const Op opB = b.next();
    EXPECT_EQ(opA.keyIndex, opB.keyIndex);
    EXPECT_EQ(opA.type, opB.type);
  }
}

TEST(Synthetic, KeysInRangeAndSkewed) {
  SyntheticConfig config;
  config.numKeys = 1000;
  SyntheticWorkload workload(config);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) {
    const Op op = workload.next();
    ASSERT_LT(op.keyIndex, 1000u);
    ++counts[op.keyIndex];
  }
  // Top key should take a large share under alpha=1.2.
  int top = 0;
  for (const auto& [k, c] : counts) top = std::max(top, c);
  EXPECT_GT(top, 50000 / 20);
}

TEST(MetaTrace, MatchesPublishedShape) {
  MetaTraceConfig config;
  MetaTraceWorkload workload(config);
  int reads = 0;
  std::vector<double> sizes;
  for (int i = 0; i < 50000; ++i) {
    const Op op = workload.next();
    reads += op.isRead() ? 1 : 0;
    sizes.push_back(static_cast<double>(op.valueSize));
  }
  EXPECT_NEAR(reads / 50000.0, 0.70, 0.01);             // 30% writes
  EXPECT_LT(util::exactQuantile(sizes, 0.5), 40.0);     // ~10B median
  EXPECT_GE(util::exactQuantile(sizes, 0.5), 2.0);
}

TEST(MetaTrace, ReplayModeFollowsRecords) {
  const std::vector<TraceRecord> records = {
      {false, 1, 10}, {true, 2, 20}, {false, 3, 0}};
  MetaTraceConfig config;
  MetaTraceWorkload workload(config, records);
  const Op op1 = workload.next();
  EXPECT_EQ(op1.keyIndex, 1u);
  EXPECT_TRUE(op1.isRead());
  EXPECT_EQ(op1.valueSize, 10u);
  const Op op2 = workload.next();
  EXPECT_FALSE(op2.isRead());
  const Op op3 = workload.next();
  EXPECT_GT(op3.valueSize, 0u);  // 0 size falls back to the distribution
  EXPECT_EQ(workload.next().keyIndex, 1u);  // loops
}

TEST(UcTrace, ShapeMatchesFigure3) {
  UcTraceConfig config;
  UcTraceWorkload workload(config);
  int reads = 0;
  std::vector<double> sizes;
  for (int i = 0; i < 50000; ++i) {
    const Op op = workload.next();
    reads += op.isRead() ? 1 : 0;
    if (op.type == OpType::kObjectRead) {
      sizes.push_back(static_cast<double>(op.valueSize));
    }
  }
  EXPECT_NEAR(reads / 50000.0, 0.93, 0.01);
  const double median = util::exactQuantile(sizes, 0.5);
  EXPECT_NEAR(median, 23.0 * 1024, 8.0 * 1024);  // ≈23KB median
  EXPECT_GT(util::exactQuantile(sizes, 0.999), 500.0 * 1024);  // heavy tail
}

TEST(UcTrace, StatementCountsBetween1And8AndDeterministic) {
  UcTraceConfig config;
  UcTraceWorkload workload(config);
  bool sawEight = false;
  for (std::uint64_t t = 0; t < 2000; ++t) {
    const std::size_t n = workload.statementsFor(t);
    EXPECT_GE(n, 1u);
    EXPECT_LE(n, 8u);
    EXPECT_EQ(n, workload.statementsFor(t));
    sawEight |= n == 8;
  }
  EXPECT_TRUE(sawEight);  // getTable reaches the paper's 8-query worst case
}

TEST(Twitter, MedianNear230B) {
  TwitterTraceConfig config;
  TwitterTraceWorkload workload(config);
  std::vector<double> sizes;
  for (int i = 0; i < 30000; ++i) {
    sizes.push_back(static_cast<double>(workload.next().valueSize));
  }
  EXPECT_NEAR(util::exactQuantile(sizes, 0.5), 230.0, 60.0);
}

TEST(Workload, MeanValueSizeSane) {
  SyntheticConfig config;
  config.valueSize = 2048;
  SyntheticWorkload workload(config);
  EXPECT_DOUBLE_EQ(workload.meanValueSize(), 2048.0);
}

TEST(TraceIo, CsvRoundtrip) {
  const std::vector<TraceRecord> records = {
      {false, 1, 100}, {true, 999999, 0}, {false, 42, 12345}};
  const std::string path = ::testing::TempDir() + "/trace_test.csv";
  ASSERT_TRUE(writeCsvTrace(path, records));
  const auto back = readCsvTrace(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, records);
  std::remove(path.c_str());
}

TEST(TraceIo, BinaryRoundtrip) {
  std::vector<TraceRecord> records;
  util::Pcg32 rng(8, 1);
  for (int i = 0; i < 1000; ++i) {
    records.push_back(TraceRecord{rng.nextBounded(2) == 0, rng.next64() >> 20,
                                  rng.nextBounded(1 << 20)});
  }
  const std::string path = ::testing::TempDir() + "/trace_test.bin";
  ASSERT_TRUE(writeBinaryTrace(path, records));
  const auto back = readBinaryTrace(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, records);
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsCorruptInput) {
  EXPECT_FALSE(decodeTrace("not a trace").has_value());
  EXPECT_FALSE(decodeTrace("DCTR1\xff").has_value());  // truncated varints
  EXPECT_FALSE(readBinaryTrace("/nonexistent/path").has_value());
  EXPECT_FALSE(readCsvTrace("/nonexistent/path").has_value());
}

TEST(TraceIo, EmptyTraceOk) {
  const std::string encoded = encodeTrace({});
  const auto back = decodeTrace(encoded);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->empty());
}

TEST(KeyName, FixedWidthAndUnique) {
  EXPECT_EQ(keyName(0).size(), keyName(999999999).size());
  EXPECT_NE(keyName(1), keyName(2));
}

TEST(KeyName, IndexOfInvertsKeyName) {
  // 999,999,999 is the last nine-digit name and 10^9 the first ten-digit one.
  std::vector<std::uint64_t> indexes = {0, 999999999, 1000000000, UINT64_MAX};
  util::Pcg32 rng(23, 1);
  for (int i = 0; i < 10000; ++i) {
    // Spread the digit counts: shift a 64-bit draw right by 0..63 bits.
    indexes.push_back(rng.next64() >> rng.nextBounded(64));
  }
  for (const std::uint64_t index : indexes) {
    EXPECT_EQ(keyIndexOf(keyName(index)), std::optional(index)) << index;
  }
}

TEST(KeyName, IndexOfRejectsWhatKeyNameNeverReturns) {
  for (const std::string_view name :
       {"", "k", "k1", "k0000000001", "k00000000x", "x000000001",
        "k18446744073709551616", "k99999999999999999999",
        "k100000000000000000000"}) {
    EXPECT_EQ(keyIndexOf(name), std::nullopt) << name;
  }
}

}  // namespace
}  // namespace dcache::workload
