// Differential fuzz between the flat KvEngine and the ordered-map oracle in
// tests/reference/: both run an identical seeded stream of puts (stale ones
// included), erases, gets, and prefix scans with early stop, and must agree
// on every result, the scan visit order, liveBytes, keyCount and
// writeCount after every step. The flat engine keeps one version per key,
// so the streams compare the oracle's newest reads only. Each scan goes
// through the KeyOrder of a random cut of its prefix, and the orders are
// held in a map by base, as Database holds them, so one stream drives many
// orders over the same engines; at the end of a stream every order must
// hold exactly the keys under its base. The first streams scan one engine;
// the last run three engines behind shared orders against three oracles.
// Keys are shaped like the database's index keys
// (`t/<table>/i/<col>/<value>/<pk>`), so they share long prefixes, and new
// keys keep arriving between scans, so every order merges new keys
// mid-stream again and again. Further streams aim at the engine's layout
// edges: keys on both sides of the 16-byte inline limit, a few keys
// overwritten thousands of times in place, and two keys whose stored
// 32-bit index hashes are equal. Payload bytes depend on the write that
// puts them and on their position, and their lengths cross the payload
// arena's edges (empty, one byte, around 16, around its 4 KiB classed
// limit, up to 10 KiB), so a stale, shared or wrongly sized block reads
// back as bytes the oracle does not hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "reference/kv_engine.hpp"
#include "storage/database.hpp"
#include "storage/key_order.hpp"
#include "storage/kv_engine.hpp"
#include "util/hash.hpp"
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

/// Keys of 15, 16, 17 and 200 bytes around the engine's 16-byte inline
/// limit, plus the empty and one-byte keys. A key is a stem (`b/<c>/<n>`)
/// padded with '-', so the shorter keys of a stem are prefixes of the
/// longer ones and every scan crosses the inline/arena boundary.
struct BoundaryKeyGen {
  util::Pcg32& rng;

  std::string key() {
    static constexpr std::size_t kLengths[] = {15, 16, 17, 200, 0, 1};
    const std::size_t length = kLengths[rng.next() % 6];
    std::string k = "b/";
    k += static_cast<char>('a' + rng.next() % 3);
    k += "/" + std::to_string(rng.next() % 40);
    k.resize(length, '-');
    return k;
  }

  std::string prefix() {
    const std::string k = key();
    switch (rng.next() % 6) {
      case 0: return "";
      case 1: return k.substr(0, 4);  // b/<c>/
      case 2:  // the first 15, 16 or 17 bytes
        return k.substr(0, std::min<std::size_t>(k.size(), 15 + rng.next() % 3));
      case 3: return k.substr(0, rng.next() % (k.size() + 1));
      default: return k;
    }
  }
};

/// A handful of hot keys, inline and arena-sized, overwritten again and
/// again in place.
struct HotKeyGen {
  util::Pcg32& rng;

  std::string key() {
    const std::uint32_t n = rng.next() % 6;
    return n % 2 == 0 ? "h/" + std::to_string(n)
                      : "h/" + std::string(40, 'x') + std::to_string(n);
  }

  std::string prefix() { return rng.next() % 2 == 0 ? "h/" : key(); }
};

/// `length` payload bytes that depend on the write that puts them and on
/// their position, so a block that still holds another write's bytes does
/// not read back as this write's.
std::string payloadOf(std::uint64_t write, std::size_t length) {
  std::string bytes(length, '\0');
  for (std::size_t i = 0; i < length; ++i) {
    bytes[i] = static_cast<char>(util::mix64(write << 16 ^ i));
  }
  return bytes;
}

/// A payload length: the arena's edges in a quarter of draws (empty, one
/// byte, around 16, around the 4 KiB classed limit), up to 10 KiB in one
/// of sixteen, else under 40 bytes.
std::size_t payloadLength(util::Pcg32& rng) {
  static constexpr std::size_t kEdges[] = {0, 1, 15, 16, 17, 4095, 4096, 4097};
  const std::uint32_t pick = rng.next() % 16;
  if (pick < 4) return kEdges[rng.next() % 8];
  if (pick == 4) return rng.next() % (10 * 1024 + 1);
  return rng.next() % 40;
}

using Visit = std::tuple<std::string, std::uint64_t, std::uint64_t, std::string>;

std::pair<std::size_t, std::vector<Visit>> scan(const MapKvEngine& engine,
                                                std::string_view prefix,
                                                std::size_t stopAfter) {
  std::vector<Visit> seen;
  const std::size_t visited = engine.scanPrefix(
      prefix, MapKvEngine::kLatest,
      [&](std::string_view key, const OracleValue& v) {
        seen.emplace_back(std::string(key), v.version, v.size, v.payload);
        return seen.size() < stopAfter;
      });
  return {visited, seen};
}

/// The same scan of one engine through a one-shard KeyOrder.
std::pair<std::size_t, std::vector<Visit>> scan(KeyOrder& order,
                                                const KvEngine& engine,
                                                std::string_view prefix,
                                                std::size_t stopAfter) {
  std::vector<Visit> seen;
  order.scanPrefix(
      std::span(&engine, 1), prefix, [](std::size_t) {},
      [&](std::size_t, std::string_view key, const ValueView& v) {
        seen.emplace_back(std::string(key), v.version, v.size,
                          std::string(v.payload));
        return seen.size() < stopAfter;
      });
  return {seen.size(), seen};
}

/// The key orders of one stream by base, as Database holds them.
struct Orders {
  std::size_t shards;
  std::map<std::string, KeyOrder, std::less<>> byBase{};

  /// The order of a random cut of `prefix`, created empty on first use.
  KeyOrder& ofCut(util::Pcg32& rng, std::string_view prefix) {
    const std::string_view base =
        prefix.substr(0, rng.next() % (prefix.size() + 1));
    if (const auto it = byBase.find(base); it != byBase.end()) {
      return it->second;
    }
    return byBase.try_emplace(std::string(base), base, shards).first->second;
  }

  /// The order contract: after a scan, every order holds exactly the keys
  /// of `engines` under its base.
  void expectEachHoldsItsBase(std::span<const KvEngine> engines) {
    ASSERT_GT(byBase.size(), 1u);
    for (auto& [base, order] : byBase) {
      order.scanPrefix(
          engines, base, [](std::size_t) {},
          [](std::size_t, std::string_view, const ValueView&) {
            return true;
          });
      std::size_t under = 0;
      for (const KvEngine& engine : engines) {
        for (std::uint32_t id = 0; id < engine.keyCount(); ++id) {
          if (engine.keyAt(id).starts_with(base)) ++under;
        }
      }
      EXPECT_EQ(order.size(), under) << "base '" << base << "'";
    }
  }
};

/// A ValueView has no tombstone flag: get() returning a tombstone shows
/// as a value where the oracle has none.
void expectSameValue(const OracleValue* oracle,
                     const std::optional<ValueView>& flat, std::size_t step) {
  ASSERT_EQ(oracle == nullptr, !flat.has_value()) << "step " << step;
  if (oracle == nullptr) return;
  ASSERT_EQ(oracle->version, flat->version) << "step " << step;
  ASSERT_EQ(oracle->size, flat->size) << "step " << step;
  ASSERT_EQ(oracle->payload, flat->payload) << "step " << step;
}

/// One lockstep stream of `ops` steps. Of every 32 op draws, `putSlots`
/// are puts, the next 2 erases and the next 8 gets; scans take the rest.
template <typename Gen>
void runLockstep(util::Pcg32& rng, Gen& gen, std::size_t ops,
                 std::size_t reserve, std::uint32_t putSlots = 10) {
  MapKvEngine oracle;
  KvEngine flat;
  Orders orders{1};
  if (reserve > 0) flat.reserveKeys(reserve);
  std::uint64_t ts = 0;

  for (std::size_t step = 0; step < ops; ++step) {
    const std::uint32_t op = rng.next() % 32;
    if (op < putSlots) {  // put; one in eight reuses or rewinds the timestamp
      const std::string key = gen.key();
      const std::uint64_t commitTs =
          rng.next() % 8 == 0 ? ts - std::min<std::uint64_t>(ts, rng.next() % 3)
                              : ++ts;
      const bool withPayload = rng.next() % 2 == 0;
      const std::uint64_t size = rng.next() % 500;
      const std::string payload =
          withPayload ? payloadOf(step, payloadLength(rng)) : std::string();
      auto value = [&] {
        return withPayload ? StoredValue::of(payload)
                           : StoredValue::sized(size);
      };
      ASSERT_EQ(oracle.put(key, value(), commitTs),
                flat.put(key, value(), commitTs))
          << "step " << step;
    } else if (op < putSlots + 2) {
      const std::string key = gen.key();
      const std::uint64_t commitTs = ++ts;
      ASSERT_EQ(oracle.erase(key, commitTs), flat.erase(key, commitTs))
          << "step " << step;
    } else if (op < putSlots + 10) {
      const std::string key = gen.key();
      expectSameValue(oracle.get(key), flat.get(key), step);
      ASSERT_EQ(oracle.latestVersion(key), flat.latestVersion(key))
          << "step " << step;
    } else {
      const std::string prefix = gen.prefix();
      const std::size_t stopAfter = rng.next() % 3 == 0 ? 1 + rng.next() % 5
                                                        : SIZE_MAX;
      ASSERT_EQ(scan(oracle, prefix, stopAfter),
                scan(orders.ofCut(rng, prefix), flat, prefix, stopAfter))
          << "step " << step << " prefix " << prefix;
    }
    ASSERT_EQ(oracle.keyCount(), flat.keyCount()) << "step " << step;
    ASSERT_EQ(oracle.liveBytes().count(), flat.liveBytes().count())
        << "step " << step;
    ASSERT_EQ(oracle.writeCount(), flat.writeCount()) << "step " << step;
  }
  orders.expectEachHoldsItsBase(std::span(&flat, 1));
}

void runDifferential(std::uint64_t seed, std::size_t ops,
                     std::size_t reserve) {
  util::Pcg32 rng(seed, 11);
  KeyGen gen{rng, 200};
  runLockstep(rng, gen, ops, reserve);
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

TEST(KvDifferential, KeysAroundTheInlineLimit) {
  for (std::uint64_t seed = 31; seed <= 33; ++seed) {
    util::Pcg32 rng(seed, 11);
    BoundaryKeyGen gen{rng};
    runLockstep(rng, gen, 10000, 0);
  }
}

TEST(KvDifferential, OverwriteHeavyHistoryUnderGc) {
  // Twenty of every 32 ops are puts to six keys, each of which keeps one
  // version, overwritten in place.
  for (const std::uint64_t seed : {41, 48}) {
    util::Pcg32 rng(seed, 11);
    HotKeyGen gen{rng};
    runLockstep(rng, gen, 20000, 0, 20);
  }
}

TEST(KvDifferential, PayloadsGrowShrinkAndReturnAfterTombstones) {
  // Three keys, one inline and two in the key arena, each put through the
  // payload edges in turn, so every overwrite grows or shrinks its payload
  // and most change its size class; every third put follows a tombstone.
  // The keys share the payload arena, so a block given back under the
  // wrong class, or read through after its key moved to another, shows in
  // a neighbour's bytes or its own.
  static constexpr std::size_t kLengths[] = {0,     17, 4097, 1,  16,
                                             10240, 4095, 15, 4096, 17};
  const std::string keys[] = {"p/a", "p/" + std::string(30, 'b'),
                              "p/" + std::string(20, 'c')};
  MapKvEngine oracle;
  KvEngine flat;
  KeyOrder order("p/", 1);
  std::uint64_t ts = 0;
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < std::size(kLengths); ++i) {
      for (std::size_t k = 0; k < std::size(keys); ++k) {
        if ((i + k) % 3 == 0) {
          ++ts;
          ASSERT_EQ(oracle.erase(keys[k], ts), flat.erase(keys[k], ts));
        }
        ++ts;
        const std::string payload =
            payloadOf(ts, kLengths[(i + k + round) % std::size(kLengths)]);
        ASSERT_TRUE(oracle.put(keys[k], StoredValue::of(payload), ts));
        ASSERT_TRUE(flat.put(keys[k], StoredValue::of(payload), ts));
        for (const std::string& key : keys) {
          expectSameValue(oracle.get(key), flat.get(key), ts);
        }
        ASSERT_EQ(scan(oracle, "p/", SIZE_MAX),
                  scan(order, flat, "p/", SIZE_MAX))
            << "ts " << ts;
      }
    }
  }
  EXPECT_EQ(oracle.liveBytes().count(), flat.liveBytes().count());
}

/// The first two keys `key<N>` whose index hashes are equal.
std::pair<std::string, std::string> collidingKeys() {
  std::unordered_map<std::uint32_t, std::uint32_t> seen;
  for (std::uint32_t n = 0; n < 1000000; ++n) {
    std::string key = "key" + std::to_string(n);
    const auto [it, fresh] = seen.emplace(KvEngine::indexHash(key), n);
    if (!fresh) return {"key" + std::to_string(it->second), std::move(key)};
  }
  return {};
}

/// The colliding pair and enough filler keys to double the index three
/// times, so the pair is re-placed by growth while both are resident.
struct CollidingKeyGen {
  util::Pcg32& rng;
  std::string a;
  std::string b;

  std::string key() {
    const std::uint32_t n = rng.next() % 8;
    if (n == 0) return a;
    if (n == 1) return b;
    return "f" + std::to_string(rng.next() % 6000);
  }

  std::string prefix() { return rng.next() % 2 == 0 ? "key" : key(); }
};

TEST(KvDifferential, KeysWithEqualIndexHashesStayApart) {
  const auto [a, b] = collidingKeys();
  ASSERT_FALSE(a.empty()) << "no colliding key pair found";
  ASSERT_EQ(KvEngine::indexHash(a), KvEngine::indexHash(b));

  KvEngine flat;
  const auto sizeOf = [&](const std::string& key) {
    const std::optional<ValueView> v = flat.get(key);
    return v ? std::optional(v->size) : std::nullopt;
  };
  ASSERT_TRUE(flat.put(a, StoredValue::sized(1), 1));
  ASSERT_TRUE(flat.put(b, StoredValue::sized(2), 2));
  ASSERT_TRUE(flat.put(a, StoredValue::sized(3), 3));  // overwrite a only
  EXPECT_EQ(sizeOf(a), 3u);
  EXPECT_EQ(sizeOf(b), 2u);
  ASSERT_TRUE(flat.erase(a, 4));  // erase a only
  EXPECT_EQ(sizeOf(a), std::nullopt);
  EXPECT_EQ(sizeOf(b), 2u);
  EXPECT_EQ(flat.keyCount(), 2u);

  util::Pcg32 rng(51, 11);
  CollidingKeyGen gen{rng, a, b};
  runLockstep(rng, gen, 20000, 0, 20);
}

TEST(KvDifferential, NewKeysBetweenScansMergeInOrder) {
  // Every scan follows a fresh insert, so each one merges a one-key tail.
  MapKvEngine oracle;
  KvEngine flat;
  KeyOrder order("t/tables/i/owner/", 1);
  util::Pcg32 rng(5, 3);
  for (std::uint64_t ts = 1; ts <= 3000; ++ts) {
    const std::string key = "t/tables/i/owner/" +
                            std::to_string(rng.next() % 50) + "/" +
                            std::to_string(ts);
    oracle.put(key, StoredValue::sized(ts), ts);
    flat.put(key, StoredValue::sized(ts), ts);
    const std::string prefix = key.substr(0, key.rfind('/') + 1);
    ASSERT_EQ(scan(oracle, prefix, SIZE_MAX),
              scan(order, flat, prefix, SIZE_MAX))
        << "ts " << ts;
  }
}

/// Keys for the shared-order stream: index-shaped keys and keys of 0, 1,
/// 15, 16, 17 and 200 bytes. Prefixes include the empty one, ones that
/// match no key and whole keys.
struct SharedOrderKeyGen {
  util::Pcg32& rng;
  KeyGen index{rng, 60};
  BoundaryKeyGen boundary{rng};

  std::string key() {
    return rng.next() % 2 == 0 ? index.key() : boundary.key();
  }

  std::string prefix() {
    switch (rng.next() % 8) {
      case 0: return "";
      case 1: return "t/tables/x/";  // no key has it
      case 2: return key() + "~";    // no key extends a key with '~'
      case 3: return key();
      case 4:
      case 5: return index.prefix();
      default: return boundary.prefix();
    }
  }
};

/// Keys in and around the Database key layout: rowKey, indexKey and kvKey
/// over a few table, column and value names, some holding '/'; strings that
/// stop inside the layout; and arbitrary strings of 0, 1, 15, 16, 17 and
/// 200 bytes over the layout's own characters and two others.
struct LayoutKeyGen {
  util::Pcg32& rng;
  std::string buf{};  // the key builders' buffer

  template <std::size_t N>
  std::string pick(const char* const (&names)[N]) {
    return names[rng.next() % N];
  }

  std::string value() {
    switch (rng.next() % 4) {
      case 0: return "";
      case 1: return std::to_string(rng.next() % 20) + "/" +
                     std::to_string(rng.next() % 4);
      default: return std::to_string(rng.next() % 40);
    }
  }

  std::string key() {
    static constexpr const char* kTableNames[] = {"a", "tables", "x/r",
                                                  "x/i/y", ""};
    static constexpr const char* kColumnNames[] = {"owner", "id", "c/d"};
    static constexpr const char* kCuts[] = {
        "",     "t",      "t/",      "t/a",      "t/a/",  "t/a/r",
        "t/a/r/", "t/a/i", "t/a/i/", "t/a/i/c", "t/a/x/", "t//r/",
        "k",    "kv",     "kv/",     "kv0"};
    switch (rng.next() % 10) {
      case 0:
      case 1:
        return std::string(Database::rowKey(buf, pick(kTableNames), value()));
      case 2:
      case 3:
      case 4:
        return std::string(Database::indexKey(buf, pick(kTableNames),
                                              pick(kColumnNames), value(),
                                              value()));
      case 5:
        return std::string(Database::kvKey(buf, value()));
      case 6:
        return pick(kCuts);
      default: {
        static constexpr std::size_t kLengths[] = {0, 1, 15, 16, 17, 200};
        static constexpr char kBytes[] = {'t', '/', 'k', 'v', 'r',
                                          'i', 'a', '\0', '\xff'};
        std::string k(kLengths[rng.next() % 6], ' ');
        for (char& c : k) c = kBytes[rng.next() % sizeof(kBytes)];
        return k;
      }
    }
  }

  /// A key, a cut of one, its part through its first one to five '/' (a
  /// table's or an index's base at three and four) or the part up to its
  /// last '/'.
  std::string prefix() {
    const std::string k = key();
    switch (rng.next() % 4) {
      case 0: return k;
      case 1: return k.substr(0, rng.next() % (k.size() + 1));
      case 2: {
        std::size_t end = 0;
        for (std::uint32_t n = 1 + rng.next() % 5; n > 0; --n) {
          end = k.find('/', end);
          if (end == std::string::npos) return k;
          ++end;
        }
        return k.substr(0, end);
      }
      default: return k.substr(0, k.rfind('/') + 1);  // "" without a '/'
    }
  }
};

/// One step of a multi-shard scan: entering a shard (no row), or a row.
using ShardEvent = std::pair<std::size_t, std::optional<Visit>>;

/// The oracle scans concatenated in shard order, each shard entered before
/// its rows, with the early stop counted per shard.
std::vector<ShardEvent> scan(const std::vector<MapKvEngine>& oracles,
                             std::string_view prefix, std::size_t stopAfter) {
  std::vector<ShardEvent> events;
  for (std::size_t s = 0; s < oracles.size(); ++s) {
    events.emplace_back(s, std::nullopt);
    for (Visit& v : scan(oracles[s], prefix, stopAfter).second) {
      events.emplace_back(s, std::move(v));
    }
  }
  return events;
}

/// The same scan of `engines` through `order`.
std::vector<ShardEvent> scan(KeyOrder& order,
                             const std::vector<KvEngine>& engines,
                             std::string_view prefix, std::size_t stopAfter) {
  std::vector<ShardEvent> events;
  std::size_t inShard = 0;
  order.scanPrefix(
      engines, prefix,
      [&](std::size_t idx) {
        events.emplace_back(idx, std::nullopt);
        inShard = 0;
      },
      [&](std::size_t idx, std::string_view key, const ValueView& v) {
        events.emplace_back(idx,
                            Visit{std::string(key), v.version, v.size,
                                  std::string(v.payload)});
        return ++inShard < stopAfter;
      });
  return events;
}

/// Three engines behind shared orders, each diffed against its own map
/// oracle over one seeded stream of writes and scans: every scan, through
/// the order of a random cut of its prefix, must equal the oracle scans
/// concatenated in shard order. Keys land on random shards, so one key can
/// live on two.
template <typename Gen>
void runSharedOrder(std::uint64_t seed) {
  constexpr std::size_t kShards = 3;
  util::Pcg32 rng(seed, 11);
  Gen gen{rng};
  std::vector<MapKvEngine> oracles(kShards);
  std::vector<KvEngine> engines(kShards);
  Orders orders{kShards};
  std::uint64_t ts = 0;

  for (std::size_t step = 0; step < 8000; ++step) {
    const std::uint32_t op = rng.next() % 16;
    if (op < 8) {  // a write; one in eight is an erase
      const std::size_t shard = rng.next() % kShards;
      const std::string key = gen.key();
      const std::uint64_t commitTs = ++ts;
      if (op == 7) {
        ASSERT_EQ(oracles[shard].erase(key, commitTs),
                  engines[shard].erase(key, commitTs))
            << "step " << step;
        continue;
      }
      const std::string payload = payloadOf(step, payloadLength(rng));
      ASSERT_EQ(oracles[shard].put(key, StoredValue::of(payload), commitTs),
                engines[shard].put(key, StoredValue::of(payload), commitTs))
          << "step " << step;
      continue;
    }
    const std::string prefix = gen.prefix();
    const std::size_t stopAfter = rng.next() % 3 == 0 ? 1 + rng.next() % 4
                                                      : SIZE_MAX;
    ASSERT_EQ(scan(oracles, prefix, stopAfter),
              scan(orders.ofCut(rng, prefix), engines, prefix, stopAfter))
        << "seed " << seed << " step " << step << " prefix " << prefix;
  }
  orders.expectEachHoldsItsBase(engines);
}

TEST(KvDifferential, SharedOrderMatchesPerShardOracles) {
  // Row, index and odd keys; the orders must merge new keys mid-stream
  // again and again.
  for (std::uint64_t seed = 61; seed <= 63; ++seed) {
    runSharedOrder<SharedOrderKeyGen>(seed);
  }
}

TEST(KvDifferential, FamilyOrderMatchesPerShardOraclesOnLayoutKeys) {
  // Row, index and KV keys over names holding '/', cut keys and odd keys,
  // scanned through the orders of their index and table bases and of
  // arbitrary cuts.
  for (std::uint64_t seed = 64; seed <= 66; ++seed) {
    runSharedOrder<LayoutKeyGen>(seed);
  }
}

TEST(KvDifferential, IndexOrderHoldsOnlyItsIndex) {
  constexpr std::size_t kShards = 2;
  std::vector<MapKvEngine> oracles(kShards);
  std::vector<KvEngine> engines(kShards);
  KeyOrder order("t/tables/i/owner/", kShards);
  std::uint64_t ts = 0;
  std::string buf;
  const auto put = [&](std::string_view key) {
    const std::size_t shard = ts % kShards;
    ++ts;
    ASSERT_TRUE(oracles[shard].put(key, StoredValue::sized(ts), ts));
    ASSERT_TRUE(engines[shard].put(key, StoredValue::sized(ts), ts));
  };
  const auto expectScan = [&](std::string_view prefix) {
    ASSERT_EQ(scan(oracles, prefix, SIZE_MAX),
              scan(order, engines, prefix, SIZE_MAX))
        << "prefix " << prefix;
  };
  // A table's rows, its owner index and KV keys, 100 each, put in
  // descending key order.
  for (int pk = 99; pk >= 0; --pk) {
    const std::string id = std::to_string(pk);
    put(Database::rowKey(buf, "tables", id));
    put(Database::indexKey(buf, "tables", "owner", std::to_string(pk % 7), id));
    put(Database::kvKey(buf, "k" + id));
  }

  expectScan("t/tables/i/owner/3/");
  EXPECT_EQ(order.size(), 100u);  // the owner index alone
  expectScan("t/tables/i/owner/x/");  // a value no key has
  EXPECT_EQ(order.size(), 100u);

  // New owner keys on both sides of the recorded ones and among them, and
  // new rows: the next scan merges in the owner keys alone.
  for (int pk = 100; pk < 150; ++pk) {
    const std::string id = std::to_string(pk);
    put(Database::indexKey(buf, "tables", "owner", std::to_string(pk % 9), id));
    put(Database::rowKey(buf, "tables", id));
  }
  put(Database::indexKey(buf, "tables", "owner", "/", "0"));  // below "0/"
  expectScan("t/tables/i/owner/");
  EXPECT_EQ(order.size(), 151u);
  expectScan("t/tables/i/owner/8/");  // only new keys have value 8
}

}  // namespace
}  // namespace dcache::storage
