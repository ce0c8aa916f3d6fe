// Policy-specific behaviour tests for the LFU and S3-FIFO eviction
// policies (the generic contract suite in test_cache_policies.cpp already
// covers both).
#include <gtest/gtest.h>

#include <string>

#include "cache/lfu.hpp"
#include "cache/s3fifo.hpp"
#include "util/rng.hpp"
#include "workload/zipf.hpp"

namespace dcache::cache {
namespace {

[[nodiscard]] util::Bytes capacityFor(std::size_t n) {
  return util::Bytes::of(n * (kEntryOverheadBytes + 3 + 1));
}

[[nodiscard]] std::string key(int i) {
  std::string k = "k";
  k += std::to_string(10 + i);
  return k;
}

TEST(Lfu, EvictsLeastFrequent) {
  LfuCache cache(capacityFor(3));
  cache.put(key(1), CacheEntry::sized(1));
  cache.put(key(2), CacheEntry::sized(1));
  cache.put(key(3), CacheEntry::sized(1));
  // Touch 1 three times, 3 once; 2 stays at its insert frequency.
  for (int i = 0; i < 3; ++i) {
    EXPECT_NE(cache.get(key(1)), nullptr);
  }
  EXPECT_NE(cache.get(key(3)), nullptr);
  cache.put(key(4), CacheEntry::sized(1));  // evicts 2 (lowest frequency)
  EXPECT_EQ(cache.peek(key(2)), nullptr);
  EXPECT_NE(cache.peek(key(1)), nullptr);
  EXPECT_NE(cache.peek(key(3)), nullptr);
}

TEST(Lfu, TracksFrequencies) {
  LfuCache cache(capacityFor(4));
  cache.put(key(1), CacheEntry::sized(1));
  EXPECT_EQ(cache.frequencyOf(key(1)), 1u);
  (void)cache.get(key(1));
  (void)cache.get(key(1));
  EXPECT_EQ(cache.frequencyOf(key(1)), 3u);
  EXPECT_EQ(cache.frequencyOf("absent"), 0u);
  // Overwrite also counts as a touch.
  cache.put(key(1), CacheEntry::sized(2));
  EXPECT_EQ(cache.frequencyOf(key(1)), 4u);
}

TEST(Lfu, TieBrokenByRecencyWithinBucket) {
  LfuCache cache(capacityFor(2));
  cache.put(key(1), CacheEntry::sized(1));  // freq 1, older
  cache.put(key(2), CacheEntry::sized(1));  // freq 1, newer
  cache.put(key(3), CacheEntry::sized(1));  // evict LRU of bucket 1 => key 1
  EXPECT_EQ(cache.peek(key(1)), nullptr);
  EXPECT_NE(cache.peek(key(2)), nullptr);
}

TEST(Lfu, FrequentKeySurvivesChurn) {
  LfuCache cache(capacityFor(8));
  cache.put("hot", CacheEntry::sized(1));
  for (int i = 0; i < 20; ++i) (void)cache.get("hot");
  for (int i = 0; i < 500; ++i) {
    cache.put(key(i), CacheEntry::sized(1));  // one-touch churn
  }
  EXPECT_NE(cache.peek("hot"), nullptr);
}

TEST(S3Fifo, OneHitWondersDieInSmallQueue) {
  S3FifoCache cache(capacityFor(20), 0.25);
  // A stream of never-repeated keys must churn through the small queue;
  // none should be promoted to main.
  for (int i = 0; i < 200; ++i) {
    cache.put(key(i), CacheEntry::sized(1));
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LE(cache.bytesUsed().count(), cache.capacity().count());
}

TEST(S3Fifo, ReReferencedEntriesPromoteToMain) {
  S3FifoCache cache(capacityFor(20), 0.25);
  cache.put("hot", CacheEntry::sized(1));
  EXPECT_NE(cache.get("hot"), nullptr);  // marks the entry referenced
  // Push enough one-touch traffic to flush the small queue repeatedly.
  for (int i = 0; i < 300; ++i) cache.put(key(i), CacheEntry::sized(1));
  EXPECT_NE(cache.peek("hot"), nullptr) << "hot key should live in main";
}

TEST(S3Fifo, GhostQueueReadmitsToMain) {
  S3FifoCache cache(capacityFor(20), 0.25);
  // First pass: the key is evicted from small untouched -> remembered as
  // a ghost. Keep the churn short so the bounded ghost queue (which only
  // remembers recent evictions) still holds it when it returns.
  cache.put("comeback", CacheEntry::sized(1));
  for (int i = 0; i < 25; ++i) cache.put(key(i), CacheEntry::sized(1));
  ASSERT_EQ(cache.peek("comeback"), nullptr);
  EXPECT_GT(cache.ghostSize(), 0u);
  // Its return proves reuse: it must be admitted straight to main and now
  // survive the same kind of churn that killed it before.
  cache.put("comeback", CacheEntry::sized(1));
  for (int i = 100; i < 160; ++i) cache.put(key(i), CacheEntry::sized(1));
  EXPECT_NE(cache.peek("comeback"), nullptr);
}

TEST(S3Fifo, BeatsOrMatchesFifoOnSkewedTrace) {
  constexpr std::size_t kItems = 50;
  S3FifoCache s3(capacityFor(kItems), 0.1);
  // Plain FIFO for comparison, same capacity.
  auto fifo = makeCache(EvictionPolicy::kFifo, capacityFor(kItems));

  workload::ZipfianGenerator zipf(2000, 1.1);
  util::Pcg32 rngA(71, 1);
  util::Pcg32 rngB(71, 1);
  auto run = [](KvCache& cache, workload::ZipfianGenerator& gen,
                util::Pcg32& rng) {
    for (int i = 0; i < 60000; ++i) {
      const std::string k =
          std::string("z").append(std::to_string(gen.nextKey(rng)));
      if (cache.get(k) == nullptr) cache.put(k, CacheEntry::sized(1));
    }
    return cache.stats().hitRatio();
  };
  const double s3Hit = run(s3, zipf, rngA);
  const double fifoHit = run(*fifo, zipf, rngB);
  EXPECT_GE(s3Hit, fifoHit - 0.005);  // S3-FIFO's design claim
}

TEST(S3Fifo, EraseFromEitherQueue) {
  S3FifoCache cache(capacityFor(10), 0.3);
  cache.put("small-resident", CacheEntry::sized(1));
  EXPECT_TRUE(cache.erase("small-resident"));
  // Promote one to main, then erase it there.
  cache.put("main-resident", CacheEntry::sized(1));
  (void)cache.get("main-resident");
  for (int i = 0; i < 50; ++i) cache.put(key(i), CacheEntry::sized(1));
  if (cache.peek("main-resident") != nullptr) {
    EXPECT_TRUE(cache.erase("main-resident"));
  }
  EXPECT_FALSE(cache.erase("never-there"));
}

}  // namespace
}  // namespace dcache::cache
