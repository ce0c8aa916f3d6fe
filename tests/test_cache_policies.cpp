// Eviction policy tests on the production caches: exact LRU semantics
// against a reference model, policy-specific behaviours (CLOCK second
// chance, SLRU promotion, FIFO recency-blindness), and a parameterized
// contract suite run over every policy.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>

#include "cache/flat_cache.hpp"
#include "cache/kv_cache.hpp"
#include "cache/slru.hpp"
#include "util/rng.hpp"

namespace dcache::cache {
namespace {

/// Capacity for `n` unit-sized entries with key "kXX".
[[nodiscard]] util::Bytes capacityFor(std::size_t n) {
  return util::Bytes::of(n * (kEntryOverheadBytes + 3 + 1));
}

[[nodiscard]] std::string key(int i) {
  std::string k = "k";
  k += std::to_string(10 + i);  // fixed width 3
  return k;
}

TEST(Lru, EvictsLeastRecentlyUsed) {
  FlatCache cache(FlatMode::kLru, capacityFor(3));
  cache.put(key(1), CacheEntry::sized(1));
  cache.put(key(2), CacheEntry::sized(1));
  cache.put(key(3), CacheEntry::sized(1));
  EXPECT_NE(cache.get(key(1)), nullptr);  // 1 is now MRU
  cache.put(key(4), CacheEntry::sized(1));  // evicts 2
  EXPECT_EQ(cache.peek(key(2)), nullptr);
  EXPECT_NE(cache.peek(key(1)), nullptr);
  EXPECT_NE(cache.peek(key(3)), nullptr);
  EXPECT_NE(cache.peek(key(4)), nullptr);
}

TEST(Lru, VictimIsOldest) {
  FlatCache cache(FlatMode::kLru, capacityFor(10));
  cache.put(key(1), CacheEntry::sized(1));
  cache.put(key(2), CacheEntry::sized(1));
  EXPECT_EQ(cache.victim(), key(1));
  EXPECT_NE(cache.get(key(1)), nullptr);
  EXPECT_EQ(cache.victim(), key(2));
}

TEST(Lru, MatchesReferenceModelOnRandomTrace) {
  constexpr std::size_t kCap = 8;
  FlatCache cache(FlatMode::kLru, capacityFor(kCap));
  std::deque<std::string> model;  // front = MRU
  util::Pcg32 rng(21, 1);

  for (int i = 0; i < 20000; ++i) {
    const std::string k = key(static_cast<int>(rng.nextBounded(30)));
    const bool doGet = rng.nextBounded(2) == 0;
    if (doGet) {
      const bool modelHit =
          std::find(model.begin(), model.end(), k) != model.end();
      const bool cacheHit = cache.get(k) != nullptr;
      ASSERT_EQ(cacheHit, modelHit) << "op " << i;
      if (modelHit) {
        model.erase(std::find(model.begin(), model.end(), k));
        model.push_front(k);
      }
    } else {
      cache.put(k, CacheEntry::sized(1));
      const auto it = std::find(model.begin(), model.end(), k);
      if (it != model.end()) model.erase(it);
      model.push_front(k);
      if (model.size() > kCap) model.pop_back();
    }
    ASSERT_EQ(cache.itemCount(), model.size()) << "op " << i;
  }
}

TEST(Lru, ByteCapacityCountsEntrySizes) {
  FlatCache cache(FlatMode::kLru, util::Bytes::of(3000));
  cache.put("big1", CacheEntry::sized(1200));
  cache.put("big2", CacheEntry::sized(1200));
  EXPECT_EQ(cache.itemCount(), 2u);
  cache.put("big3", CacheEntry::sized(1200));  // must evict one
  EXPECT_EQ(cache.itemCount(), 2u);
  EXPECT_EQ(cache.peek("big1"), nullptr);  // LRU victim
  EXPECT_LE(cache.bytesUsed().count(), 3000u);
}

TEST(Lru, OversizedEntryNotAdmitted) {
  FlatCache cache(FlatMode::kLru, util::Bytes::of(500));
  cache.put("huge", CacheEntry::sized(1000));
  EXPECT_EQ(cache.itemCount(), 0u);
  EXPECT_EQ(cache.peek("huge"), nullptr);
}

TEST(Lru, UpdateInPlaceAdjustsBytes) {
  FlatCache cache(FlatMode::kLru, util::Bytes::of(10000));
  cache.put("k", CacheEntry::sized(100));
  const auto before = cache.bytesUsed();
  cache.put("k", CacheEntry::sized(200));
  EXPECT_EQ(cache.bytesUsed().count(), before.count() + 100);
  EXPECT_EQ(cache.itemCount(), 1u);
}

TEST(Lru, PeekDoesNotAffectRecencyOrStats) {
  FlatCache cache(FlatMode::kLru, capacityFor(2));
  cache.put(key(1), CacheEntry::sized(1));
  cache.put(key(2), CacheEntry::sized(1));
  const auto statsBefore = cache.stats();
  EXPECT_NE(cache.peek(key(1)), nullptr);
  EXPECT_EQ(cache.stats().hits, statsBefore.hits);
  cache.put(key(3), CacheEntry::sized(1));  // evicts 1 despite the peek
  EXPECT_EQ(cache.peek(key(1)), nullptr);
}

TEST(Fifo, IgnoresRecency) {
  FlatCache cache(FlatMode::kFifo, capacityFor(3));
  cache.put(key(1), CacheEntry::sized(1));
  cache.put(key(2), CacheEntry::sized(1));
  cache.put(key(3), CacheEntry::sized(1));
  // Touch 1 repeatedly; FIFO must still evict it first.
  for (int i = 0; i < 10; ++i) EXPECT_NE(cache.get(key(1)), nullptr);
  cache.put(key(4), CacheEntry::sized(1));
  EXPECT_EQ(cache.peek(key(1)), nullptr);
}

TEST(Fifo, OverwriteKeepsQueuePosition) {
  FlatCache cache(FlatMode::kFifo, capacityFor(2));
  cache.put(key(1), CacheEntry::sized(1));
  cache.put(key(2), CacheEntry::sized(1));
  cache.put(key(1), CacheEntry::sized(1));  // overwrite, still oldest
  cache.put(key(3), CacheEntry::sized(1));
  EXPECT_EQ(cache.peek(key(1)), nullptr);
  EXPECT_NE(cache.peek(key(2)), nullptr);
}

TEST(Clock, SecondChanceSparesReferencedEntries) {
  FlatCache cache(FlatMode::kClock, capacityFor(3));
  cache.put(key(1), CacheEntry::sized(1));
  cache.put(key(2), CacheEntry::sized(1));
  cache.put(key(3), CacheEntry::sized(1));
  // Reference 1 and 3; insert a new entry: 2 should be the victim.
  EXPECT_NE(cache.get(key(1)), nullptr);
  EXPECT_NE(cache.get(key(3)), nullptr);
  cache.put(key(4), CacheEntry::sized(1));
  EXPECT_EQ(cache.peek(key(2)), nullptr);
  EXPECT_NE(cache.peek(key(1)), nullptr);
  EXPECT_NE(cache.peek(key(3)), nullptr);
}

TEST(Clock, SlotReuseAfterErase) {
  FlatCache cache(FlatMode::kClock, capacityFor(4));
  cache.put(key(1), CacheEntry::sized(1));
  cache.put(key(2), CacheEntry::sized(1));
  EXPECT_TRUE(cache.erase(key(1)));
  EXPECT_FALSE(cache.erase(key(1)));
  cache.put(key(3), CacheEntry::sized(1));  // reuses slot
  EXPECT_EQ(cache.itemCount(), 2u);
  EXPECT_NE(cache.peek(key(3)), nullptr);
}

TEST(Slru, SecondTouchPromotes) {
  SlruCache cache(capacityFor(10), 0.5);
  cache.put(key(1), CacheEntry::sized(1));
  EXPECT_EQ(cache.probationSegment().itemCount(), 1u);
  EXPECT_EQ(cache.protectedSegment().itemCount(), 0u);
  EXPECT_NE(cache.get(key(1)), nullptr);  // promotion
  EXPECT_EQ(cache.probationSegment().itemCount(), 0u);
  EXPECT_EQ(cache.protectedSegment().itemCount(), 1u);
}

TEST(Slru, ScanResistance) {
  // A hot key in protected survives a one-touch scan bigger than probation.
  SlruCache cache(capacityFor(8), 0.5);
  cache.put("hot", CacheEntry::sized(1));
  EXPECT_NE(cache.get("hot"), nullptr);  // promoted
  for (int i = 0; i < 50; ++i) {
    cache.put(key(i), CacheEntry::sized(1));  // scan traffic
  }
  EXPECT_NE(cache.peek("hot"), nullptr);
}

// ---- Contract suite: every policy must satisfy these. ----

class PolicyContract : public ::testing::TestWithParam<EvictionPolicy> {
 protected:
  [[nodiscard]] std::unique_ptr<KvCache> make(std::size_t items) const {
    return makeCache(GetParam(), capacityFor(items));
  }
};

TEST_P(PolicyContract, GetMissThenHit) {
  auto cache = make(4);
  EXPECT_EQ(cache->get("k10"), nullptr);
  cache->put("k10", CacheEntry::sized(1, 7));
  const CacheEntry* hit = cache->get("k10");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->version, 7u);
  EXPECT_EQ(cache->stats().hits, 1u);
  EXPECT_EQ(cache->stats().misses, 1u);
}

TEST_P(PolicyContract, CapacityNeverExceeded) {
  auto cache = make(5);
  util::Pcg32 rng(31, 1);
  for (int i = 0; i < 5000; ++i) {
    cache->put(key(static_cast<int>(rng.nextBounded(50))),
               CacheEntry::sized(1));
    ASSERT_LE(cache->bytesUsed().count(), cache->capacity().count());
  }
}

TEST_P(PolicyContract, EraseRemoves) {
  auto cache = make(4);
  cache->put("k10", CacheEntry::sized(1));
  EXPECT_TRUE(cache->erase("k10"));
  EXPECT_FALSE(cache->erase("k10"));
  EXPECT_EQ(cache->peek("k10"), nullptr);
  EXPECT_EQ(cache->itemCount(), 0u);
}

TEST_P(PolicyContract, ClearEmpties) {
  auto cache = make(4);
  cache->put("a10", CacheEntry::sized(1));
  cache->put("b10", CacheEntry::sized(1));
  cache->clear();
  EXPECT_EQ(cache->itemCount(), 0u);
  EXPECT_EQ(cache->bytesUsed().count(), 0u);
  EXPECT_EQ(cache->peek("a10"), nullptr);
}

TEST_P(PolicyContract, HitRatioReflectsSkew) {
  // A hot key accessed 90% of the time must mostly hit even in a tiny cache.
  auto cache = make(2);
  util::Pcg32 rng(41, 1);
  cache->put("hot", CacheEntry::sized(1));
  for (int i = 0; i < 5000; ++i) {
    if (rng.nextBounded(10) == 0) {
      const std::string k = key(static_cast<int>(rng.nextBounded(100)));
      if (cache->get(k) == nullptr) cache->put(k, CacheEntry::sized(1));
      // Re-touch the hot key so SLRU keeps it protected.
      if (cache->get("hot") == nullptr) cache->put("hot", CacheEntry::sized(1));
    } else {
      if (cache->get("hot") == nullptr) cache->put("hot", CacheEntry::sized(1));
    }
  }
  EXPECT_GT(cache->stats().hitRatio(), 0.6);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyContract,
    ::testing::Values(EvictionPolicy::kLru, EvictionPolicy::kFifo,
                      EvictionPolicy::kClock, EvictionPolicy::kSlru,
                      EvictionPolicy::kLfu, EvictionPolicy::kS3Fifo),
    [](const auto& info) {
      return std::string(evictionPolicyName(info.param));
    });

}  // namespace
}  // namespace dcache::cache
