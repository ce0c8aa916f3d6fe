// Differential fuzz between the production caches built by makeCache and
// the textbook list/map oracles in tests/reference/: both are driven in
// lockstep over seeded op streams and must agree on every observable —
// hit/miss per get, stats counters, item counts, byte accounting and (for
// LRU) the next eviction victim. This is the lock that lets FlatCache and
// the storage BlockCache claim sequence-identity, plus the SlruCache
// constructor-clamp regressions and the accounting-invariant death test
// from the same bugfix sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cache/flat_cache.hpp"
#include "cache/kv_cache.hpp"
#include "cache/slru.hpp"
#include "reference/clock.hpp"
#include "reference/fifo.hpp"
#include "reference/lru.hpp"
#include "storage/block_cache.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace dcache::cache {
namespace {

void expectSameState(const KvCache& oracle, const KvCache& flat,
                     std::size_t step) {
  ASSERT_EQ(oracle.itemCount(), flat.itemCount()) << "step " << step;
  ASSERT_EQ(oracle.bytesUsed().count(), flat.bytesUsed().count())
      << "step " << step;
  const CacheStats& os = oracle.stats();
  const CacheStats& fs = flat.stats();
  ASSERT_EQ(os.hits, fs.hits) << "step " << step;
  ASSERT_EQ(os.misses, fs.misses) << "step " << step;
  ASSERT_EQ(os.insertions, fs.insertions) << "step " << step;
  ASSERT_EQ(os.overwrites, fs.overwrites) << "step " << step;
  ASSERT_EQ(os.evictions, fs.evictions) << "step " << step;
}

/// Drives the oracle and makeCache(policy) with an identical seeded stream
/// of get/put/erase/peek ops over a keyspace sized to force constant
/// eviction churn.
template <typename Oracle>
void runDifferential(EvictionPolicy policy, std::uint64_t seed,
                     std::size_t ops) {
  Oracle oracle(util::Bytes::of(40 * 200));
  auto flat = makeCache(policy, util::Bytes::of(40 * 200));
  util::Pcg32 rng(seed, 7);

  for (std::size_t step = 0; step < ops; ++step) {
    const std::uint32_t keyIdx = rng.next() % 200;
    std::string key = "diff-key-" + std::to_string(keyIdx);
    switch (rng.next() % 8) {
      case 0:
      case 1:
      case 2:
      case 3: {  // get dominates, as in the serve path
        const CacheEntry* a = oracle.get(key);
        const CacheEntry* b = flat->get(key);
        ASSERT_EQ(a != nullptr, b != nullptr) << "step " << step;
        if (a != nullptr) {
          ASSERT_EQ(a->size, b->size) << "step " << step;
          ASSERT_EQ(a->version, b->version) << "step " << step;
        }
        break;
      }
      case 4:
      case 5: {  // put with varying sizes to exercise accounting
        const std::uint64_t size = 50 + rng.next() % 150;
        oracle.put(key, CacheEntry::sized(size, step));
        flat->put(key, CacheEntry::sized(size, step));
        break;
      }
      case 6: {
        ASSERT_EQ(oracle.erase(key), flat->erase(key)) << "step " << step;
        break;
      }
      default: {  // peek must not touch stats on either side
        const CacheEntry* a = oracle.peek(key);
        const CacheEntry* b = flat->peek(key);
        ASSERT_EQ(a != nullptr, b != nullptr) << "step " << step;
        break;
      }
    }
    expectSameState(oracle, *flat, step);
  }
  // Conservation: replaying the resident set must account to bytesUsed.
  ASSERT_LE(oracle.bytesUsed().count(), oracle.capacity().count());
  ASSERT_LE(flat->bytesUsed().count(), flat->capacity().count());
}

TEST(CacheDifferential, LruLockstep) {
  runDifferential<LruCache>(EvictionPolicy::kLru, 0x1234, 20000);
  runDifferential<LruCache>(EvictionPolicy::kLru, 0xbeef, 20000);
}

TEST(CacheDifferential, FifoLockstep) {
  runDifferential<FifoCache>(EvictionPolicy::kFifo, 0x5678, 20000);
  runDifferential<FifoCache>(EvictionPolicy::kFifo, 0xcafe, 20000);
}

TEST(CacheDifferential, ClockLockstep) {
  runDifferential<ClockCache>(EvictionPolicy::kClock, 0x9abc, 20000);
  runDifferential<ClockCache>(EvictionPolicy::kClock, 0xf00d, 20000);
}

TEST(CacheDifferential, LruVictimParity) {
  LruCache oracle(util::Bytes::of(10 * 200));
  FlatCache flat(FlatMode::kLru, util::Bytes::of(10 * 200));
  util::Pcg32 rng(42, 3);
  for (std::size_t step = 0; step < 5000; ++step) {
    const std::string key =
        "victim-key-" + std::to_string(rng.next() % 40);
    if (rng.next() % 3 == 0) {
      (void)oracle.get(key);
      (void)flat.get(key);
    } else {
      oracle.put(key, CacheEntry::sized(100));
      flat.put(key, CacheEntry::sized(100));
    }
    ASSERT_EQ(oracle.victim(), flat.victim()) << "step " << step;
  }
}

/// A block id spelled as 'b' and 16 hex digits: the key the reference
/// ClockCache holds each block under.
std::string hexBlockId(std::uint64_t id) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(17, 'b');
  for (std::size_t i = 16; i > 0; --i) {
    out[i] = kHex[id & 0xF];
    id >>= 4;
  }
  return out;
}

void expectSameBlocks(const ClockCache& oracle,
                      const storage::BlockCache& blocks, std::size_t step) {
  ASSERT_EQ(oracle.itemCount(), blocks.itemCount()) << "step " << step;
  ASSERT_EQ(oracle.bytesUsed().count(), blocks.bytesUsed().count())
      << "step " << step;
  const CacheStats& os = oracle.stats();
  const CacheStats& bs = blocks.stats();
  ASSERT_EQ(os.hits, bs.hits) << "step " << step;
  ASSERT_EQ(os.misses, bs.misses) << "step " << step;
  ASSERT_EQ(os.insertions, bs.insertions) << "step " << step;
  ASSERT_EQ(os.overwrites, bs.overwrites) << "step " << step;
  ASSERT_EQ(os.evictions, bs.evictions) << "step " << step;
}

TEST(CacheDifferential, BlockCacheLockstep) {
  // The integer-keyed block CLOCK against the reference ClockCache keyed by
  // each block's hex id with entries of the block's size: one seeded
  // stream of reads, writes and rare clears over 400 keys, rows on both
  // sides of the 4 KiB block and now and then one too large to admit, at
  // a capacity of about 100 blocks so that the hand keeps evicting.
  using storage::BlockCache;
  constexpr std::uint64_t kBlock = BlockCache::kBlockBytes;
  const util::Bytes capacity = util::Bytes::of(100 * (kBlock + 97));
  for (const std::uint64_t seed : {0x51ull, 0xb10cull}) {
    BlockCache blocks(capacity);
    ClockCache oracle(capacity);
    util::Pcg32 rng(seed, 11);
    for (std::size_t step = 0; step < 20000; ++step) {
      const std::string key = "block-key-" + std::to_string(rng.next() % 400);
      const std::uint64_t keyHash = util::hashKey(key);
      const std::string id = hexBlockId(keyHash >> 4);
      const std::uint64_t rowBytes = rng.next() % 64 == 0
                                         ? capacity.count()
                                         : 1 + rng.next() % (3 * kBlock);
      const CacheEntry entry =
          CacheEntry::sized(BlockCache::blockSizeFor(rowBytes));
      const std::uint32_t op = rng.next() % 500;
      if (op < 2) {
        blocks.clear();
        oracle.clear();
      } else if (op < 150) {
        blocks.touchWrite(keyHash, rowBytes);
        oracle.put(id, entry);
      } else {
        const bool hit = oracle.get(id) != nullptr;
        if (!hit) oracle.put(id, entry);
        ASSERT_EQ(blocks.touchRead(keyHash, rowBytes), hit) << "step " << step;
      }
      expectSameBlocks(oracle, blocks, step);
    }
    EXPECT_GT(blocks.stats().evictions, 1000u);
    EXPECT_GT(blocks.stats().overwrites, 500u);
  }
}

// --- SlruCache constructor clamp (regression for the silent-overshoot bug:
// a fraction > 1 used to size the protected segment past the total, and the
// probation capacity wrapped around zero) ---

TEST(SlruCtorClamp, FractionAboveOneIsClamped) {
  SlruCache cache(util::Bytes::of(1000), 1.5);
  EXPECT_EQ(cache.probationSegment().capacity().count() +
                cache.protectedSegment().capacity().count(),
            1000u);
  EXPECT_EQ(cache.protectedSegment().capacity().count(), 1000u);
}

TEST(SlruCtorClamp, NegativeFractionIsClamped) {
  SlruCache cache(util::Bytes::of(1000), -0.25);
  EXPECT_EQ(cache.protectedSegment().capacity().count(), 0u);
  EXPECT_EQ(cache.probationSegment().capacity().count(), 1000u);
}

TEST(SlruCtorClamp, NanFallsBackToDefaultSplit) {
  SlruCache cache(util::Bytes::of(1000),
                  std::numeric_limits<double>::quiet_NaN());
  SlruCache reference(util::Bytes::of(1000));  // default 0.8
  EXPECT_EQ(cache.protectedSegment().capacity().count(),
            reference.protectedSegment().capacity().count());
  EXPECT_EQ(cache.probationSegment().capacity().count(),
            reference.probationSegment().capacity().count());
}

TEST(SlruCtorClamp, InfinityFallsBackToDefaultSplit) {
  SlruCache cache(util::Bytes::of(1000),
                  std::numeric_limits<double>::infinity());
  SlruCache reference(util::Bytes::of(1000));
  EXPECT_EQ(cache.protectedSegment().capacity().count(),
            reference.protectedSegment().capacity().count());
}

TEST(SlruCtorClamp, HugeCapacityDoesNotOverflowSegmentMath) {
  // Near-max capacity: double->int back-conversion must not wrap either
  // segment. The partition property is the whole contract.
  const std::uint64_t cap = std::numeric_limits<std::uint64_t>::max() - 7;
  SlruCache cache(util::Bytes::of(cap), 0.8);
  EXPECT_EQ(cache.probationSegment().capacity().count() +
                cache.protectedSegment().capacity().count(),
            cap);
  EXPECT_LE(cache.protectedSegment().capacity().count(), cap);
}

TEST(SlruCtorClamp, StillCachesAfterDegenerateFraction) {
  SlruCache cache(util::Bytes::of(100000), 2.0);
  cache.put("k", CacheEntry::sized(10));
  // fraction clamped to 1.0: everything lands in probation first and the
  // cache still admits and serves entries.
  EXPECT_NE(cache.peek("k"), nullptr);
}

// --- Accounting invariant: drift aborts instead of silently re-zeroing ---

using CacheInvariantDeathTest = ::testing::Test;

TEST(CacheInvariantDeathTest, ViolationAborts) {
  EXPECT_DEATH(cacheInvariantFailure("test-policy", "forced for test"),
               "test-policy");
  EXPECT_DEATH(cacheInvariant(false, "lru", "accounting drift"),
               "accounting drift");
}

TEST(CacheInvariantDeathTest, HoldsOnHealthyChurn) {
  // The eviction invariant stays quiet across heavy churn.
  for (const auto policy : {EvictionPolicy::kLru, EvictionPolicy::kFifo,
                            EvictionPolicy::kClock}) {
    auto cache = makeCache(policy, util::Bytes::of(5 * 200));
    for (int i = 0; i < 2000; ++i) {
      cache->put("churn-" + std::to_string(i % 50),
                 CacheEntry::sized(static_cast<std::uint64_t>(40 + i % 100)));
    }
    EXPECT_LE(cache->bytesUsed().count(), cache->capacity().count());
  }
}

}  // namespace
}  // namespace dcache::cache
