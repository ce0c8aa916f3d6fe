// Differential fuzz between the flat KvEngine and the ordered-map oracle in
// tests/reference/: both run an identical seeded stream of puts (stale ones
// included), erases, snapshot gets, prefix scans with early stop and GC
// passes, and must agree on every result, the scan visit order, liveBytes,
// keyCount and writeCount after every step. Keys are shaped like the
// database's index keys (`t/<table>/i/<col>/<value>/<pk>`), so they share
// long prefixes, and new keys keep arriving between scans, so the engine's
// pending tail is merged mid-stream again and again.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "reference/kv_engine.hpp"
#include "storage/kv_engine.hpp"
#include "util/rng.hpp"

namespace dcache::storage {
namespace {

constexpr const char* kTables[] = {"tables", "privileges", "props"};
constexpr const char* kColumns[] = {"owner", "securable_id"};

struct KeyGen {
  util::Pcg32& rng;
  std::uint32_t pkSpace;

  std::string key() {
    const std::string table = kTables[rng.next() % 3];
    const std::uint32_t pk = rng.next() % pkSpace;
    if (rng.next() % 4 == 0) return "t/" + table + "/r/" + std::to_string(pk);
    return "t/" + table + "/i/" + kColumns[rng.next() % 2] + "/" +
           std::to_string(rng.next() % 12) + "/" + std::to_string(pk);
  }

  /// A prefix at a random depth of a random key. Mostly the index-value
  /// prefix the executor scans; now and then the whole table or keyspace.
  std::string prefix() {
    const std::string k = key();
    const std::uint32_t depth = rng.next() % 16;
    if (depth == 0) return "t/";
    if (depth == 1) return k.substr(0, k.find('/', 2) + 1);  // t/<table>/
    if (depth < 8) return k.substr(0, k.rfind('/') + 1);     // up to the pk
    if (depth < 12) return k.substr(0, 1 + rng.next() % k.size());  // a cut
    return k;                                                // one key
  }
};

using Visit = std::tuple<std::string, std::uint64_t, std::uint64_t, std::string>;

template <typename Engine>
std::pair<std::size_t, std::vector<Visit>> scan(const Engine& engine,
                                                std::string_view prefix,
                                                std::uint64_t snapshot,
                                                std::size_t stopAfter) {
  std::vector<Visit> seen;
  const std::size_t visited = engine.scanPrefix(
      prefix, snapshot, [&](std::string_view key, const StoredValue& v) {
        seen.emplace_back(std::string(key), v.version, v.size, v.payload);
        return seen.size() < stopAfter;
      });
  return {visited, seen};
}

void expectSameValue(const StoredValue* oracle, const StoredValue* flat,
                     std::size_t step) {
  ASSERT_EQ(oracle == nullptr, flat == nullptr) << "step " << step;
  if (oracle == nullptr) return;
  ASSERT_EQ(oracle->version, flat->version) << "step " << step;
  ASSERT_EQ(oracle->size, flat->size) << "step " << step;
  ASSERT_EQ(oracle->payload, flat->payload) << "step " << step;
  ASSERT_FALSE(flat->tombstone) << "step " << step;
}

void runDifferential(std::uint64_t seed, std::size_t ops,
                     std::size_t reserve) {
  MapKvEngine oracle;
  KvEngine flat;
  if (reserve > 0) flat.reserveKeys(reserve);
  util::Pcg32 rng(seed, 11);
  KeyGen gen{rng, 200};
  std::uint64_t ts = 0;

  for (std::size_t step = 0; step < ops; ++step) {
    const std::uint32_t op = rng.next() % 32;
    if (op < 10) {  // put; one in eight reuses or rewinds the timestamp
      const std::string key = gen.key();
      const std::uint64_t commitTs =
          rng.next() % 8 == 0 ? ts - std::min<std::uint64_t>(ts, rng.next() % 3)
                              : ++ts;
      const bool withPayload = rng.next() % 2 == 0;
      const std::uint64_t size = rng.next() % 500;
      auto value = [&] {
        return withPayload ? StoredValue::of(std::string(size % 40, 'p'))
                           : StoredValue::sized(size);
      };
      ASSERT_EQ(oracle.put(key, value(), commitTs),
                flat.put(key, value(), commitTs))
          << "step " << step;
    } else if (op < 12) {
      const std::string key = gen.key();
      const std::uint64_t commitTs = ++ts;
      ASSERT_EQ(oracle.erase(key, commitTs), flat.erase(key, commitTs))
          << "step " << step;
    } else if (op < 20) {
      const std::string key = gen.key();
      const std::uint64_t snapshot =
          rng.next() % 3 == 0 ? KvEngine::kLatest : rng.next() % (ts + 2);
      expectSameValue(oracle.get(key, snapshot), flat.get(key, snapshot), step);
      ASSERT_EQ(oracle.latestVersion(key), flat.latestVersion(key))
          << "step " << step;
    } else if (op < 31) {
      const std::string prefix = gen.prefix();
      const std::uint64_t snapshot =
          rng.next() % 2 == 0 ? KvEngine::kLatest : rng.next() % (ts + 2);
      const std::size_t stopAfter = rng.next() % 3 == 0 ? 1 + rng.next() % 5
                                                        : SIZE_MAX;
      ASSERT_EQ(scan(oracle, prefix, snapshot, stopAfter),
                scan(flat, prefix, snapshot, stopAfter))
          << "step " << step << " prefix " << prefix;
    } else if (rng.next() % 8 == 0) {
      const std::size_t keep = rng.next() % 4;
      ASSERT_EQ(oracle.gc(keep), flat.gc(keep)) << "step " << step;
    }
    ASSERT_EQ(oracle.keyCount(), flat.keyCount()) << "step " << step;
    ASSERT_EQ(oracle.liveBytes().count(), flat.liveBytes().count())
        << "step " << step;
    ASSERT_EQ(oracle.writeCount(), flat.writeCount()) << "step " << step;
  }
}

TEST(KvDifferential, LockstepWithMapOracle) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    runDifferential(seed, 10000, 0);
  }
}

TEST(KvDifferential, LockstepAfterReserve) {
  // Reserve below and above the final key count: growth past a reserve
  // must re-place slots exactly as growth from empty does.
  runDifferential(21, 10000, 100);
  runDifferential(22, 10000, 100000);
}

TEST(KvDifferential, NewKeysBetweenScansMergeInOrder) {
  // Every scan follows a fresh insert, so each one merges a one-key tail.
  MapKvEngine oracle;
  KvEngine flat;
  util::Pcg32 rng(5, 3);
  for (std::uint64_t ts = 1; ts <= 3000; ++ts) {
    const std::string key = "t/tables/i/owner/" +
                            std::to_string(rng.next() % 50) + "/" +
                            std::to_string(ts);
    oracle.put(key, StoredValue::sized(ts), ts);
    flat.put(key, StoredValue::sized(ts), ts);
    const std::string prefix = key.substr(0, key.rfind('/') + 1);
    ASSERT_EQ(scan(oracle, prefix, KvEngine::kLatest, SIZE_MAX),
              scan(flat, prefix, KvEngine::kLatest, SIZE_MAX))
        << "ts " << ts;
  }
}

}  // namespace
}  // namespace dcache::storage
