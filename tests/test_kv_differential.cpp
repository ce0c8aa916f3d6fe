// Differential fuzz between the flat KvEngine and the ordered-map oracle in
// tests/reference/: both run an identical seeded stream of puts (stale ones
// included) and gets, and must agree on every put's acceptance, every read,
// liveBytes, keyCount and writeCount after every step. Keys are shaped like
// the database's keys (`t/<table>/i/<col>/<value>/<pk>`), so they share
// long prefixes. Further streams aim at the engine's layout edges: keys on
// both sides of the 16-byte inline limit, a few keys overwritten thousands
// of times in place, and two keys whose stored 32-bit index hashes are
// equal. Payload bytes depend on the write that puts them and on their
// position, and their lengths cross the payload arena's edges (empty, one
// byte, around 16, around its 4 KiB classed limit, up to 10 KiB), so a
// stale, shared or wrongly sized block reads back as bytes the oracle does
// not hold.
//
// The IndexOrder streams diff one secondary index's entry order against a
// std::map of entry to shard: appends of new entries and of entries the
// order holds, and lookups with early stop, over entries of 0, 1, 15, 16,
// 17 and 200 bytes and values that hold '/', on several shards. A lookup
// visits shard by shard in ascending entry order, a false return stops
// only its own shard, and an entry appended twice is held once.
// Database-level tests check an index's lookups against the rows loaded
// into it, that a resident primary key loaded again changes nothing, and
// that two rows spelling one entry alike share it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "reference/kv_engine.hpp"
#include "rpc/channel.hpp"
#include "sim/node.hpp"
#include "sim/network.hpp"
#include "sim/tier.hpp"
#include "storage/database.hpp"
#include "storage/index_order.hpp"
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
};

/// Keys of 15, 16, 17 and 200 bytes around the engine's 16-byte inline
/// limit, plus the empty and one-byte keys. A key is a stem (`b/<c>/<n>`)
/// padded with '-', so the shorter keys of a stem are prefixes of the
/// longer ones, on both sides of the inline/arena boundary.
struct BoundaryKeyGen {
  util::Pcg32& rng;

  std::string key() {
    static constexpr std::size_t kLengths[] = {15, 16, 17, 200, 0, 1};
    const std::size_t length = kLengths[rng.next() % 6];
    std::string k = "b/";
    k += static_cast<char>('a' + rng.next() % 3);
    k += '/';
    k += std::to_string(rng.next() % 40);
    k.resize(length, '-');
    return k;
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

void expectSameValue(const OracleValue* oracle,
                     const std::optional<ValueView>& flat, std::size_t step) {
  ASSERT_EQ(oracle == nullptr, !flat.has_value()) << "step " << step;
  if (oracle == nullptr) return;
  ASSERT_EQ(oracle->version, flat->version) << "step " << step;
  ASSERT_EQ(oracle->size, flat->size) << "step " << step;
  ASSERT_EQ(oracle->payload, flat->payload) << "step " << step;
}

/// One lockstep stream of `ops` steps. Of every 32 op draws, `putSlots`
/// are puts and the rest gets.
template <typename Gen>
void runLockstep(util::Pcg32& rng, Gen& gen, std::size_t ops,
                 std::size_t reserve, std::uint32_t putSlots = 10) {
  MapKvEngine oracle;
  KvEngine flat;
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
    } else {
      const std::string key = gen.key();
      expectSameValue(oracle.get(key), flat.get(key), step);
      ASSERT_EQ(oracle.latestVersion(key), flat.latestVersion(key))
          << "step " << step;
    }
    ASSERT_EQ(oracle.keyCount(), flat.keyCount()) << "step " << step;
    ASSERT_EQ(oracle.liveBytes().count(), flat.liveBytes().count())
        << "step " << step;
    ASSERT_EQ(oracle.writeCount(), flat.writeCount()) << "step " << step;
  }
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
  // and most change its size class. The keys share the payload arena, so a
  // block given back under the wrong class, or read through after its key
  // moved to another, shows in a neighbour's bytes or its own.
  static constexpr std::size_t kLengths[] = {0,     17, 4097, 1,  16,
                                             10240, 4095, 15, 4096, 17};
  const std::string keys[] = {"p/a", "p/" + std::string(30, 'b'),
                              "p/" + std::string(20, 'c')};
  MapKvEngine oracle;
  KvEngine flat;
  std::uint64_t ts = 0;
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < std::size(kLengths); ++i) {
      for (std::size_t k = 0; k < std::size(keys); ++k) {
        ++ts;
        const std::string payload =
            payloadOf(ts, kLengths[(i + k + round) % std::size(kLengths)]);
        ASSERT_TRUE(oracle.put(keys[k], StoredValue::of(payload), ts));
        ASSERT_TRUE(flat.put(keys[k], StoredValue::of(payload), ts));
        for (const std::string& key : keys) {
          expectSameValue(oracle.get(key), flat.get(key), ts);
        }
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
    return std::string("f").append(std::to_string(rng.next() % 6000));
  }
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
  EXPECT_EQ(flat.keyCount(), 2u);

  util::Pcg32 rng(51, 11);
  CollidingKeyGen gen{rng, a, b};
  runLockstep(rng, gen, 20000, 0, 20);
}

/// The IndexOrder oracle: every entry the index holds, with its shard.
using EntryOracle = std::map<std::string, std::size_t, std::less<>>;

/// One step of a lookup: entering a shard (no entry), or an entry.
using ShardEvent = std::pair<std::size_t, std::optional<std::string>>;

/// The oracle's lookup: each shard entered in order, then its entries that
/// start with `prefix` in ascending order, `stopAfter` at most.
std::vector<ShardEvent> lookup(const EntryOracle& oracle, std::size_t shards,
                               std::string_view prefix,
                               std::size_t stopAfter) {
  std::vector<ShardEvent> events;
  for (std::size_t s = 0; s < shards; ++s) {
    events.emplace_back(s, std::nullopt);
    std::size_t inShard = 0;
    for (auto it = oracle.lower_bound(prefix);
         it != oracle.end() && it->first.starts_with(prefix) &&
         inShard < stopAfter;
         ++it) {
      if (it->second != s) continue;
      events.emplace_back(s, it->first);
      ++inShard;
    }
  }
  return events;
}

/// The same lookup through `order`.
std::vector<ShardEvent> lookup(IndexOrder& order, std::string_view prefix,
                               std::size_t stopAfter) {
  std::vector<ShardEvent> events;
  std::size_t inShard = 0;
  order.lookup(
      prefix,
      [&](std::size_t idx) {
        events.emplace_back(idx, std::nullopt);
        inShard = 0;
      },
      [&](std::size_t idx, std::string_view entry) {
        events.emplace_back(idx, std::string(entry));
        return ++inShard < stopAfter;
      });
  return events;
}

/// The shard an entry lives on, fixed per entry as the full key's hash
/// fixes it in a Database.
std::size_t shardOf(std::string_view entry, std::size_t shards) {
  return util::hashKey(entry) % shards;
}

TEST(KvDifferential, NewKeysBetweenScansMergeInOrder) {
  // Every lookup follows a fresh append, so each one merges a one-entry
  // tail; now and then a second append lands before the next lookup.
  constexpr std::size_t kShards = 3;
  EntryOracle oracle;
  IndexOrder order(kShards);
  util::Pcg32 rng(5, 3);
  for (std::uint64_t pk = 1; pk <= 3000; ++pk) {
    const std::string value = std::to_string(rng.next() % 50);
    const std::string entry = value + "/" + std::to_string(pk);
    order.append(entry, shardOf(entry, kShards));
    oracle.emplace(entry, shardOf(entry, kShards));
    if (rng.next() % 4 == 0) continue;
    ASSERT_EQ(lookup(oracle, kShards, value + "/", SIZE_MAX),
              lookup(order, value + "/", SIZE_MAX))
        << "pk " << pk;
    ASSERT_EQ(order.size(), oracle.size());
  }
}

/// A fixed pool of entries: index-shaped `<value>/<pk>` ones whose values
/// hold '/' now and then, and stems padded to 0, 1, 15, 16, 17 and 200
/// bytes, so the shorter entries of a stem are prefixes of the longer ones.
/// Prefixes are the empty one, a value with its '/', a whole entry, a cut
/// of one, and one that extends an entry past what any holds.
struct EntryPool {
  util::Pcg32& rng;
  std::vector<std::string> entries{};

  explicit EntryPool(util::Pcg32& r) : rng(r) {
    static constexpr const char* kValues[] = {"", "7", "12", "a", "a/b",
                                              "a/b/", "tbl3", "/"};
    static constexpr std::size_t kLengths[] = {0, 1, 15, 16, 17, 200};
    for (const char* value : kValues) {
      for (std::uint32_t pk = 0; pk < 12; ++pk) {
        entries.push_back(std::string(value) + "/" + std::to_string(pk));
      }
    }
    for (const char c : {'a', 'b'}) {
      for (std::uint32_t n = 0; n < 8; ++n) {
        for (const std::size_t length : kLengths) {
          std::string e = "b/";
          e += c;
          e += '/';
          e += std::to_string(n);
          e.resize(length, '-');
          entries.push_back(std::move(e));
        }
      }
    }
  }

  const std::string& entry() { return entries[rng.next() % entries.size()]; }

  std::string prefix() {
    const std::string& e = entry();
    switch (rng.next() % 6) {
      case 0: return "";
      case 1: return e.substr(0, e.rfind('/') + 1);  // "" without a '/'
      case 2: return e;
      case 3: return e.substr(0, rng.next() % (e.size() + 1));
      case 4: return e + "~";
      default: return e.substr(0, std::min<std::size_t>(e.size(), 15 + rng.next() % 3));
    }
  }
};

/// One seeded stream over an IndexOrder of `shards` shards, checked against
/// the map oracle at every lookup. The pool is small, so most appends past
/// the first few hundred steps repeat an entry the order holds, in its
/// tail or its sorted records, and the merge must drop each repeat.
void runIndexOrderStream(std::uint64_t seed, std::size_t shards) {
  util::Pcg32 rng(seed, 11);
  EntryPool pool(rng);
  EntryOracle oracle;
  IndexOrder order(shards);
  for (std::size_t step = 0; step < 8000; ++step) {
    if (rng.next() % 16 < 7) {
      const std::string& entry = pool.entry();
      order.append(entry, shardOf(entry, shards));
      oracle.emplace(entry, shardOf(entry, shards));
      continue;
    }
    const std::string prefix = pool.prefix();
    const std::size_t stopAfter = rng.next() % 3 == 0 ? 1 + rng.next() % 4
                                                      : SIZE_MAX;
    ASSERT_EQ(lookup(oracle, shards, prefix, stopAfter),
              lookup(order, prefix, stopAfter))
        << "seed " << seed << " step " << step << " prefix " << prefix;
    ASSERT_EQ(order.size(), oracle.size()) << "step " << step;
  }
}

TEST(KvDifferential, SharedOrderMatchesPerShardOracles) {
  // One order shared by one, three and seven shards.
  for (const std::size_t shards : {1, 3, 7}) {
    for (std::uint64_t seed = 61; seed <= 63; ++seed) {
      runIndexOrderStream(seed + 10 * shards, shards);
    }
  }
}

TEST(IndexOrder, AppendedDuplicatesKeepOneCopy) {
  // Twice in the tail, then in the tail and the sorted records: the merge
  // that the next lookup makes keeps one copy, on its shard.
  IndexOrder order(2);
  order.append("7/1", 0);
  order.append("7/1", 0);
  order.append("7/2", 1);
  EXPECT_EQ(order.size(), 3u);  // the tail counts both until it is merged
  EXPECT_EQ(lookup(order, "7/", SIZE_MAX),
            (std::vector<ShardEvent>{
                {0, std::nullopt}, {0, "7/1"}, {1, std::nullopt}, {1, "7/2"}}));
  EXPECT_EQ(order.size(), 2u);
  order.append("7/2", 1);
  order.append("7/0", 1);
  order.append("7/1", 0);
  EXPECT_EQ(lookup(order, "7/", SIZE_MAX),
            (std::vector<ShardEvent>{{0, std::nullopt},
                                     {0, "7/1"},
                                     {1, std::nullopt},
                                     {1, "7/0"},
                                     {1, "7/2"}}));
  EXPECT_EQ(order.size(), 3u);
}

/// A Database of three KV nodes on its own tiers and channel.
struct Db {
  sim::NetworkModel network;
  sim::Tier sqlTier{"sql", sim::TierKind::kSqlFrontend, 1};
  sim::Tier kvTier{"kv", sim::TierKind::kKvStorage, 3};
  rpc::Channel channel{network, rpc::SerializationModel{}};
  Database db{sqlTier, kvTier, channel};
};

TEST(KvDifferential, IndexOrderHoldsOnlyItsIndex) {
  // A table's rows, its owner index and KV keys: the engines hold the rows
  // and KV keys alone, the index every row's entry, and a lookup visits
  // the entries of its value shard by shard in entry order, charged one
  // scanned row each after one lease check per shard. A resident primary
  // key loaded again is refused and changes nothing.
  Db side;
  Database& db = side.db;
  db.createTable(TableSchema(
      "tables", {Column{"id", ColumnType::kInt}, Column{"owner", ColumnType::kString}},
      0, {1}));
  constexpr std::string_view kBase = "t/tables/i/owner/";
  EntryOracle oracle;  // entry -> shard of its full key
  std::string buf;
  const auto load = [&](std::int64_t pk, const std::string& owner) {
    ASSERT_TRUE(db.loadRow("tables", Row{{pk, owner}})) << pk;
    const std::string key(
        Database::indexKey(buf, "tables", "owner", owner, std::to_string(pk)));
    oracle.emplace(key.substr(kBase.size()), util::hashKey(key) % 3);
  };
  const auto expectLookup = [&](const std::string& value) {
    const std::string prefix = std::string(kBase) + value + "/";
    std::vector<ShardEvent> seen;
    for (std::size_t s = 0; s < 3; ++s) seen.emplace_back(s, std::nullopt);
    std::vector<std::pair<std::size_t, std::string>> entries;
    ExecTrace trace;
    const std::uint64_t leases = db.raft().leaseChecks();
    db.indexLookup(prefix, kBase.size(), trace, [&](std::string_view pk) {
      const std::string entry = value + "/" + std::string(pk);
      entries.emplace_back(util::hashKey(std::string(kBase) + entry) % 3, entry);
      return true;
    });
    EXPECT_EQ(db.raft().leaseChecks(), leases + 3);
    EXPECT_EQ(trace.rowsRead, entries.size());
    EXPECT_EQ(trace.bytesRead, 0u);
    // Shard by shard, ascending within each.
    std::vector<ShardEvent> want = lookup(oracle, 3, value + "/", SIZE_MAX);
    std::vector<ShardEvent> got;
    std::size_t next = 0;
    for (std::size_t s = 0; s < 3; ++s) {
      got.emplace_back(s, std::nullopt);
      while (next < entries.size() && entries[next].first == s) {
        got.emplace_back(s, entries[next++].second);
      }
    }
    EXPECT_EQ(next, entries.size()) << "value " << value << ": shards out of order";
    EXPECT_EQ(got, want) << "value " << value;
  };

  // 100 rows put in descending pk order, and a KV key with each.
  for (std::int64_t pk = 99; pk >= 0; --pk) {
    load(pk, std::to_string(pk % 7));
    db.loadValue(std::string("k").append(std::to_string(pk)), 10);
  }
  EXPECT_EQ(db.engineKeyCount(), 200u);  // rows and KV keys, no entry
  EXPECT_EQ(db.indexEntryCount(kBase), 100u);
  expectLookup("3");
  expectLookup("x");  // a value no row has

  // New rows with entries on both sides of the held ones and among them,
  // and an owner that holds a '/'. Resident rows loaded again, under their
  // owners and under new ones, and a row of an unknown table are refused:
  // no row, entry or timestamp changes, as the next new row's version shows.
  for (std::int64_t pk = 100; pk < 150; ++pk) load(pk, std::to_string(pk % 9));
  const std::optional<std::uint64_t> last = db.peekRowVersion("tables", "149");
  ASSERT_TRUE(last.has_value());
  for (std::int64_t pk = 0; pk < 20; ++pk) {
    const std::string id = std::to_string(pk);
    const std::optional<std::uint64_t> version = db.peekRowVersion("tables", id);
    for (const std::string& owner : {std::to_string(pk % 7), std::string("8"),
                                    std::string("/")}) {
      EXPECT_FALSE(db.loadRow("tables", Row{{pk, owner}})) << pk << " " << owner;
    }
    EXPECT_EQ(db.peekRowVersion("tables", id), version) << pk;
  }
  EXPECT_FALSE(db.loadRow("nope", Row{{std::int64_t{1}, std::string("8")}}));
  load(150, "8/1");
  // The row and its one entry take the two timestamps after row 149's.
  EXPECT_EQ(db.peekRowVersion("tables", "150"), *last + 2);
  EXPECT_EQ(db.engineKeyCount(), 251u);
  EXPECT_EQ(db.indexEntryCount(kBase), oracle.size());
  EXPECT_EQ(oracle.size(), 151u);
  for (const char* value : {"", "0", "3", "5", "8", "8/1", "/", "x"}) {
    expectLookup(value);
  }
  EXPECT_EQ(db.indexEntryCount("t/tables/i/id/"), 0u);
}

TEST(KvDifferential, RowsThatSpellOneEntryAlikeShareIt) {
  // Owner "a/b" with name "c" and owner "a" with name "b/c" both spell the
  // owner index's entry "a/b/c". Both appends land in the tail; the first
  // lookup keeps one copy, through which each owner finds its own row.
  Db side;
  Database& db = side.db;
  db.createTable(TableSchema("files",
                             {Column{"name", ColumnType::kString},
                              Column{"owner", ColumnType::kString}},
                             0, {1}));
  ASSERT_TRUE(db.loadRow("files", Row{{std::string("c"), std::string("a/b")}}));
  ASSERT_TRUE(db.loadRow("files", Row{{std::string("b/c"), std::string("a")}}));
  constexpr std::string_view kBase = "t/files/i/owner/";
  EXPECT_EQ(db.indexEntryCount(kBase), 2u);
  sim::Node client("client", sim::TierKind::kClient);
  for (const std::string owner : {"a", "a/b"}) {
    const Value param[] = {Value{owner}};
    const auto sel =
        db.exec(client, "SELECT * FROM files WHERE owner = ?", param);
    ASSERT_TRUE(sel.ok) << sel.error;
    ASSERT_EQ(sel.rows.size(), 1u) << owner;
    EXPECT_EQ(std::get<std::string>(sel.rows[0].at(1)), owner);
  }
  EXPECT_EQ(db.indexEntryCount(kBase), 1u);
}

TEST(KvDifferential, IndexLookupLeavesOutARowOfAnotherValue) {
  // Owner "a/b" with name "c" spells the entry "a/b/c", which under owner
  // "a" reads as the primary key "b/c": a real row, but one whose owner is
  // "z". The lookup fetches and charges it, then leaves it out.
  Db side;
  Database& db = side.db;
  db.createTable(TableSchema("files",
                             {Column{"name", ColumnType::kString},
                              Column{"owner", ColumnType::kString}},
                             0, {1}));
  ASSERT_TRUE(db.loadRow("files", Row{{std::string("c"), std::string("a/b")}}));
  ASSERT_TRUE(db.loadRow("files", Row{{std::string("b/c"), std::string("z")}}));
  sim::Node client("client", sim::TierKind::kClient);
  const auto select = [&](const std::string& owner) {
    const Value param[] = {Value{owner}};
    return db.exec(client, "SELECT * FROM files WHERE owner = ?", param);
  };
  const std::uint64_t missesBefore = db.blockCacheMisses();
  const auto none = select("a");
  ASSERT_TRUE(none.ok) << none.error;
  EXPECT_TRUE(none.rows.empty());
  EXPECT_EQ(none.logicalBytes, 0u);
  EXPECT_EQ(db.blockCacheMisses(), missesBefore + 1);  // the fetch is charged
  const auto one = select("a/b");
  ASSERT_TRUE(one.ok) << one.error;
  ASSERT_EQ(one.rows.size(), 1u);
  EXPECT_EQ(std::get<std::string>(one.rows[0].at(0)), "c");
  EXPECT_EQ(std::get<std::string>(one.rows[0].at(1)), "a/b");
}

}  // namespace
}  // namespace dcache::storage
