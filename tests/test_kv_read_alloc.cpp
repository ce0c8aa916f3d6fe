// The storage read paths allocate nothing they can avoid once warm:
// Database::readValue, versionCheck and versionCheckRow on resident keys
// build no per-statement container, build their keys in a reused buffer
// and grow no engine, block-cache or meter state; writeValue to a resident
// key replaces its one version in place; peekRowVersion and
// peekValueVersion reuse a key buffer too, on untouched range keys as
// well; Raft replication walks its followers without a container; a
// resident SELECT allocates only its decoded rows and the result vector
// that carries them; encoding a row into a new string allocates its buffer
// and result, while loadRow refuses a resident row without allocating; a
// version-bump UPDATE decodes into and encodes from reused buffers and
// writes no index entry; and the KV engine rewrites payloads, with the
// tails of long keys, in its arena's recycled blocks, at row sizes and past
// the arena's 4 KiB classed limit alike.
// This executable replaces the global operator new, plain and nothrow, to
// count calls, so it is a binary of its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "richobject/catalog_store.hpp"
#include "rpc/channel.hpp"
#include "sim/network.hpp"
#include "sim/tier.hpp"
#include "storage/database.hpp"
#include "storage/raft.hpp"
#include "util/rng.hpp"
#include "workload/uc_trace.hpp"
#include "workload/workload.hpp"

namespace {
std::atomic<std::uint64_t> gNewCalls{0};

// Every delete below frees through this one out-of-line call. Inlined into
// a `delete`, a bare std::free on a pointer from operator new reads to
// GCC's -Wmismatched-new-delete as a mismatch, though every new here
// allocates with malloc.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  gNewCalls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// std::inplace_merge's temporary buffer comes from the nothrow form; it must
// come from malloc too, since the operator delete below frees it.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  gNewCalls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }

namespace dcache::storage {
namespace {

/// Heap allocations made while `fn` runs.
template <typename Fn>
std::uint64_t allocationsDuring(Fn&& fn) {
  const std::uint64_t before = gNewCalls.load(std::memory_order_relaxed);
  fn();
  return gNewCalls.load(std::memory_order_relaxed) - before;
}

class KvReadAllocations : public ::testing::Test {
 protected:
  sim::NetworkModel network_;
  sim::Tier sqlTier_{"sql", sim::TierKind::kSqlFrontend, 3};
  sim::Tier kvTier_{"kv", sim::TierKind::kKvStorage, 3};
  sim::Node client_{"client", sim::TierKind::kClient};
  rpc::Channel channel_{network_, rpc::SerializationModel{}};
  Database db_{sqlTier_, kvTier_, channel_};
};

TEST_F(KvReadAllocations, ResidentReadsAndVersionChecksAllocateNothing) {
  // Keys shaped like the workloads' ("k%09llu").
  constexpr std::size_t kKeys = 1000;
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < kKeys; ++i) {
    std::string key = std::to_string(1000000000 + i);
    key[0] = 'k';
    db_.loadValue(key, 64 + i);
    keys.push_back(std::move(key));
  }
  // One warm pass loads every key's block into its node's block cache.
  for (const std::string& key : keys) {
    ASSERT_TRUE(db_.readValue(client_, key).found);
    ASSERT_TRUE(db_.versionCheck(client_, key).found);
  }

  constexpr std::size_t kCalls = 20000;  // half reads, half version checks
  std::size_t found = 0;
  const std::uint64_t allocations = allocationsDuring([&] {
    for (std::size_t i = 0; i < kCalls / 2; ++i) {
      const std::string& key = keys[i % kKeys];
      found += db_.readValue(client_, key).found ? 1 : 0;
      found += db_.versionCheck(client_, key).found ? 1 : 0;
    }
  });

  EXPECT_EQ(found, kCalls);
  EXPECT_EQ(allocations, 0u) << "heap allocations over " << kCalls
                             << " resident KV reads and version checks";
}

TEST_F(KvReadAllocations, ResidentWritesAllocateNothing) {
  constexpr std::size_t kKeys = 1000;
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < kKeys; ++i) {
    std::string key = std::to_string(1000000000 + i);
    key[0] = 'k';
    db_.loadValue(key, 64);
    keys.push_back(std::move(key));
  }
  // One write per key warms its block and sizes the statement buffers.
  for (const std::string& key : keys) db_.writeValue(client_, key, 100);

  constexpr std::size_t kCalls = 20000;
  std::uint64_t lastVersion = 0;
  const std::uint64_t allocations = allocationsDuring([&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      lastVersion =
          db_.writeValue(client_, keys[i % kKeys], 64 + i % 100).version;
    }
  });

  EXPECT_EQ(allocations, 0u) << "heap allocations over " << kCalls
                             << " writes to resident keys";
  EXPECT_EQ(db_.peekValueVersion(keys[(kCalls - 1) % kKeys]), lastVersion);
}

TEST_F(KvReadAllocations, LongKeysAndRowVersionChecksAllocateNothing) {
  // Stored keys past the 15 bytes a std::string holds inline: "kv/" plus a
  // 13- to 40-byte key, and "t/tables/r/" plus a six-digit pk.
  db_.createTable(TableSchema("tables",
                              {Column{"id", ColumnType::kInt},
                               Column{"name", ColumnType::kString}},
                              0));
  constexpr std::size_t kKeys = 500;
  std::vector<std::string> keys;
  std::vector<std::string> pks;
  for (std::size_t i = 0; i < kKeys; ++i) {
    std::string key = "user-profile-" + std::to_string(i);
    key.resize(13 + i % 28, '-');
    db_.loadValue(key, 100);
    keys.push_back(std::move(key));
    const auto id = static_cast<std::int64_t>(100000 + i);
    db_.loadRow("tables", Row{{id, std::string("t")}});
    pks.push_back(std::to_string(id));
  }
  for (std::size_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db_.readValue(client_, keys[i]).found);
    ASSERT_TRUE(db_.versionCheck(client_, keys[i]).found);
    ASSERT_TRUE(db_.versionCheckRow(client_, "tables", pks[i]).found);
  }

  constexpr std::size_t kRounds = 6000;  // a read and two checks each
  std::size_t found = 0;
  const std::uint64_t allocations = allocationsDuring([&] {
    for (std::size_t i = 0; i < kRounds; ++i) {
      const std::size_t k = i % kKeys;
      found += db_.readValue(client_, keys[k]).found ? 1 : 0;
      found += db_.versionCheck(client_, keys[k]).found ? 1 : 0;
      found += db_.versionCheckRow(client_, "tables", pks[k]).found ? 1 : 0;
    }
  });

  EXPECT_EQ(found, 3 * kRounds);
  EXPECT_EQ(allocations, 0u) << "heap allocations over " << 3 * kRounds
                             << " resident reads and version checks";
}

TEST_F(KvReadAllocations, PeeksAllocateNothing) {
  // Row keys ("t/tables/r/" plus a six-digit pk) and KV keys ("kv/" plus 13
  // to 40 bytes) past the 15 bytes a std::string holds inline, and range
  // keys that were never touched, so the peek answers from the range.
  db_.createTable(TableSchema("tables",
                              {Column{"id", ColumnType::kInt},
                               Column{"name", ColumnType::kString}},
                              0));
  db_.loadValueRange(std::vector<std::uint64_t>(100, 64), workload::keyNameTo,
                     workload::keyIndexOf);
  constexpr std::size_t kKeys = 500;
  std::vector<std::string> keys;
  std::vector<std::string> pks;
  for (std::size_t i = 0; i < kKeys; ++i) {
    std::string key = "user-profile-" + std::to_string(i);
    key.resize(13 + i % 28, '-');
    db_.loadValue(key, 100);
    keys.push_back(std::move(key));
    const auto id = static_cast<std::int64_t>(100000 + i);
    db_.loadRow("tables", Row{{id, std::string("t")}});
    pks.push_back(std::to_string(id));
  }
  std::vector<std::string> rangeKeys;
  for (std::uint64_t i = 0; i < 100; ++i) {
    rangeKeys.push_back(workload::keyName(i));
  }
  const auto peekAll = [&](std::size_t rounds) {
    std::size_t found = 0;
    for (std::size_t i = 0; i < rounds; ++i) {
      found += db_.peekValueVersion(keys[i % kKeys]).has_value() ? 1 : 0;
      found += db_.peekRowVersion("tables", pks[i % kKeys]).has_value() ? 1 : 0;
      found += db_.peekValueVersion(rangeKeys[i % 100]).has_value() ? 1 : 0;
    }
    return found;
  };
  ASSERT_EQ(peekAll(kKeys), 3 * kKeys);  // sizes the peek key buffer

  constexpr std::size_t kRounds = 6000;
  std::size_t found = 0;
  const std::uint64_t allocations =
      allocationsDuring([&] { found = peekAll(kRounds); });

  EXPECT_EQ(found, 3 * kRounds);
  EXPECT_EQ(allocations, 0u) << "heap allocations over " << 3 * kRounds
                             << " row and value version peeks";
  EXPECT_EQ(db_.pendingRangeKeys(), 100u);  // peeks never materialize
}

TEST_F(KvReadAllocations, ResidentSelectsAllocateOnlyTheirRows) {
  // SELECT * without a join decodes each row straight into the result, and
  // an index lookup keeps its matched primary keys as views in a buffer
  // the Database reuses, so a resident statement allocates the decoded
  // rows' value vectors and the result-row vector. Every string below fits
  // a std::string inline.
  db_.createTable(TableSchema("tables",
                              {Column{"id", ColumnType::kInt},
                               Column{"owner", ColumnType::kString},
                               Column{"name", ColumnType::kString}},
                              0, {1}));
  for (std::int64_t id = 100000; id < 100400; ++id) {
    std::string owner = "o";  // two rows each
    owner += std::to_string(id / 2);
    db_.loadRow("tables", Row{{id, owner, std::string("n")}});
  }
  const std::vector<Value> point{Value{std::int64_t{100123}}};
  const std::vector<Value> owner{Value{std::string("o50061")}};
  const auto select = [&](const char* sql, const std::vector<Value>& params) {
    return db_.exec(client_, sql, params).rows.size();
  };
  constexpr const char* kPoint = "SELECT * FROM tables WHERE id = ?";
  constexpr const char* kIndex = "SELECT * FROM tables WHERE owner = ?";
  ASSERT_EQ(select(kPoint, point), 1u);  // plans both texts, warms blocks
  ASSERT_EQ(select(kIndex, owner), 2u);

  constexpr std::size_t kCalls = 2000;
  std::size_t rows = 0;
  const std::uint64_t pointAllocations = allocationsDuring([&] {
    for (std::size_t i = 0; i < kCalls; ++i) rows += select(kPoint, point);
  });
  // One decoded row and the result-row vector.
  EXPECT_EQ(pointAllocations, 2 * kCalls);

  const std::uint64_t indexAllocations = allocationsDuring([&] {
    for (std::size_t i = 0; i < kCalls; ++i) rows += select(kIndex, owner);
  });
  // Two decoded rows and the result-row vector, sized once.
  EXPECT_EQ(indexAllocations, 3 * kCalls);
  EXPECT_EQ(rows, 3 * kCalls);
}

/// Heap allocations `engine` makes over `puts` puts to `keys` in turn, put
/// n carrying a payload of `length(n)` bytes. The payloads are built in
/// batches before each counted region, so the count is the engine's alone.
template <typename Length>
std::uint64_t payloadPutAllocations(KvEngine& engine,
                                    std::span<const std::string> keys,
                                    std::size_t puts, std::uint64_t& ts,
                                    Length&& length) {
  constexpr std::size_t kBatch = 500;
  std::vector<std::string> payloads;
  payloads.reserve(kBatch);
  std::uint64_t allocations = 0;
  std::size_t rejected = 0;
  for (std::size_t first = 0; first < puts; first += kBatch) {
    const std::size_t n = std::min(kBatch, puts - first);
    payloads.clear();
    for (std::size_t i = 0; i < n; ++i) {
      payloads.emplace_back(length(first + i), 'p');
    }
    allocations += allocationsDuring([&] {
      for (std::size_t i = 0; i < n; ++i) {
        const std::string& key = keys[(first + i) % keys.size()];
        if (!engine.put(key, StoredValue::of(payloads[i]), ++ts)) {
          ++rejected;
        }
      }
    });
  }
  EXPECT_EQ(rejected, 0u);
  return allocations;
}

TEST(KvEngineAllocations, PayloadRewritesAndErasesAllocateNothing) {
  // Six row keys, each put in turn with a payload of one of seven sizes: an
  // overwrite gives the old block back to its size class, where a later
  // put takes it again. The pattern repeats every 42 puts, so the 168
  // warming puts reach every class's high-water mark.
  static constexpr std::size_t kLengths[] = {17, 40, 41, 200, 333, 1000, 4096};
  const std::vector<std::string> keys = {"t/a/r/1", "t/a/r/2", "t/a/r/3",
                                         "t/tables/r/100004", "t/tables/r/5",
                                         "t/tables/r/100006"};
  const auto length = [](std::size_t n) { return kLengths[n % 7]; };
  KvEngine engine;
  std::uint64_t ts = 0;
  payloadPutAllocations(engine, keys, 2 * 84, ts, length);

  const std::uint64_t allocations =
      payloadPutAllocations(engine, keys, 20000, ts, length);
  EXPECT_EQ(allocations, 0u) << "heap allocations over 20000 payload puts "
                                "to resident keys";
  // The last put to keys[0] is put 19998.
  EXPECT_EQ(engine.get(keys[0])->payload.size(), kLengths[19998 % 7]);
}

TEST(KvEngineAllocations, LongKeyedRowRewritesAllocateNothing) {
  // Row keys of 18 to 200 bytes keep their bytes past the inline 16 in one
  // block with the payload, so every rewrite stores the key's tail again
  // with the new payload and gives the old block back to its size class.
  // Four keys put in turn at six payload sizes, the empty one included:
  // once the 240 warming puts have reached each class's high-water mark,
  // rewrites take blocks back and allocate nothing.
  static constexpr std::size_t kLengths[] = {0, 1, 40, 333, 4000, 4096};
  const std::vector<std::string> keys = {
      "t/privileges/r/12345", "t/constraints/r/77", "t/lineage/r/100001",
      "t/properties/r/" + std::string(185, '9')};
  const auto length = [](std::size_t n) { return kLengths[n % 6]; };
  KvEngine engine;
  std::uint64_t ts = 0;
  payloadPutAllocations(engine, keys, 240, ts, length);

  const std::uint64_t allocations =
      payloadPutAllocations(engine, keys, 20000, ts, length);
  EXPECT_EQ(allocations, 0u) << "heap allocations over 20000 payload puts "
                                "to resident long-keyed rows";
  EXPECT_EQ(engine.keyCount(), keys.size());
  // The last puts to keys[0..3] are puts 19996..19999.
  for (std::size_t k = 0; k < keys.size(); ++k) {
    EXPECT_EQ(engine.get(keys[k])->payload.size(), kLengths[(19996 + k) % 6])
        << keys[k];
  }
}

TEST(KvEngineAllocations, LargePayloadRewritesStayBounded) {
  // One key rewritten at random sizes in (4 KiB, 64 KiB]. Past its 4 KiB
  // classed limit the payload arena rounds a block up to a power of two,
  // so the key cycles through four blocks; an arena that reused a large
  // block only at the same rounded size would carve a fresh chunk for
  // most rewrites, thousands over this run.
  const std::vector<std::string> keys = {"t/blobs/r/1"};
  util::Pcg32 rng(26, 7);
  const auto length = [&](std::size_t) {
    return 4096 + 1 + rng.next() % (60 * 1024);
  };
  KvEngine engine;
  std::uint64_t ts = 0;
  payloadPutAllocations(engine, keys, 200, ts, length);

  const std::uint64_t allocations =
      payloadPutAllocations(engine, keys, 10000, ts, length);
  EXPECT_LE(allocations, 4u) << "heap allocations over 10000 rewrites of "
                                "one key at 4-64 KiB";
}

TEST_F(KvReadAllocations, RowLoadsThroughAWarmBufferAllocateNothing) {
  // Database::loadRow builds each row key and encodes the row in buffers
  // the Database reuses, and its one engine probe refuses a primary key
  // the table holds, so loading catalog `tables` rows (42 bytes, with a
  // schema_id index) over resident keys writes nothing and allocates
  // nothing once the buffers are warm.
  db_.createTable(TableSchema("tables",
                              {Column{"id", ColumnType::kInt},
                               Column{"schema_id", ColumnType::kInt},
                               Column{"name", ColumnType::kString},
                               Column{"owner", ColumnType::kString},
                               Column{"format", ColumnType::kString},
                               Column{"data_bytes", ColumnType::kInt},
                               Column{"version", ColumnType::kInt}},
                              0, {1}));
  std::vector<Row> rows;
  for (std::int64_t id = 10000; id < 10500; ++id) {
    rows.push_back(Row{{id, id / 10, "table_" + std::to_string(id),
                        std::string("user123"), std::string("delta"),
                        std::int64_t{100000}, std::int64_t{1}}});
  }
  // The first load puts the rows and their entries.
  for (const Row& row : rows) ASSERT_TRUE(db_.loadRow("tables", row));
  const std::optional<std::uint64_t> version =
      db_.peekRowVersion("tables", "10499");

  constexpr std::size_t kRounds = 20;
  std::size_t loaded = 0;
  const std::uint64_t allocations = allocationsDuring([&] {
    for (std::size_t r = 0; r < kRounds; ++r) {
      for (const Row& row : rows) loaded += db_.loadRow("tables", row) ? 1 : 0;
    }
  });
  EXPECT_EQ(loaded, 0u);
  EXPECT_EQ(allocations, 0u) << "heap allocations over "
                             << kRounds * rows.size() << " row loads";
  EXPECT_EQ(db_.peekRowVersion("tables", "10499"), version);
  EXPECT_EQ(db_.engineKeyCount(), rows.size());
  EXPECT_EQ(db_.indexEntryCount("t/tables/i/schema_id/"), rows.size());
  EXPECT_EQ(db_.exec(client_, "SELECT * FROM tables WHERE id = 10499")
                .rows.size(),
            1u);
}

TEST_F(KvReadAllocations, VersionBumpUpdatesAllocateNothing) {
  // uc-object's version bump, `UPDATE tables SET version = ? WHERE id = ?`,
  // on catalog `tables` rows. The row decodes into a row the Database keeps
  // for UPDATEs and is rewritten through the reused encoder; its schema_id
  // entry, a column the statement does not set, has its re-put charged
  // without a write to the index. So 20,000 such statements leave the
  // index's entry count unchanged and, once warm, allocate nothing.
  db_.createTable(TableSchema("tables",
                              {Column{"id", ColumnType::kInt},
                               Column{"schema_id", ColumnType::kInt},
                               Column{"name", ColumnType::kString},
                               Column{"owner", ColumnType::kString},
                               Column{"format", ColumnType::kString},
                               Column{"data_bytes", ColumnType::kInt},
                               Column{"version", ColumnType::kInt}},
                              0, {1}));
  for (std::int64_t id = 10000; id < 10500; ++id) {
    db_.loadRow("tables", Row{{id, id / 10, "table_" + std::to_string(id),
                               std::string("user123"), std::string("delta"),
                               std::int64_t{100000}, std::int64_t{1}}});
  }
  constexpr std::string_view kIndex = "t/tables/i/schema_id/";
  ASSERT_EQ(db_.indexEntryCount(kIndex), 500u);
  // Versions from 100,001 on take three varint bytes each, so a row's
  // encoding keeps its length and its payload block's size class.
  std::int64_t version = 100000;
  const auto update = [&](std::int64_t id) {
    const Value params[] = {Value{++version}, Value{id}};
    return db_.exec(client_, "UPDATE tables SET version = ? WHERE id = ?",
                    params)
        .rowsAffected;
  };
  // One pass plans the text, sizes the buffers and warms the blocks.
  for (std::int64_t id = 10000; id < 10500; ++id) ASSERT_EQ(update(id), 1u);

  constexpr std::size_t kCalls = 20000;
  std::uint64_t updated = 0;
  const std::uint64_t allocations = allocationsDuring([&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      updated += update(10000 + static_cast<std::int64_t>(i % 500));
    }
  });
  EXPECT_EQ(updated, kCalls);
  EXPECT_EQ(allocations, 0u) << "heap allocations over " << kCalls
                             << " version-bump UPDATEs";
  EXPECT_EQ(db_.indexEntryCount(kIndex), 500u);
  // The index still finds every row of schema 1049, at its last version.
  const std::vector<Value> schema{Value{std::int64_t{1049}}};
  const auto rows =
      db_.exec(client_, "SELECT * FROM tables WHERE schema_id = ?", schema)
          .rows;
  ASSERT_EQ(rows.size(), 10u);
  for (const Row& row : rows) {
    // The last call wrote `version` to row 10499, the one before to 10498.
    const std::int64_t id = valueToInt(row.at(0));
    EXPECT_EQ(valueToInt(row.at(6)), version - (10499 - id)) << "id " << id;
  }
}

TEST_F(KvReadAllocations, CatalogPopulateAllocatesUnderTwoBlocksARow) {
  // uc-object's 20K-table catalog load. Each loadRow call is handed a Row
  // whose value vector is one heap block; loading it adds none, so the
  // whole populate stays under two blocks a row, where a heap string per
  // encoded row would add two more.
  workload::UcTraceConfig config;
  config.numTables = 20000;
  const workload::UcTraceWorkload trace(config);
  richobject::CatalogStore store(db_, trace);
  store.createSchemas();
  const std::int64_t schemas = store.schemaIdFor(trace.keyCount() - 1) + 1;
  const std::int64_t catalogs = store.catalogIdFor(schemas - 1) + 1;
  // Principals, schemas, and per catalog its row and its grant.
  std::uint64_t rows = store.config().principals +
                       static_cast<std::uint64_t>(schemas + 2 * catalogs);
  for (std::uint64_t t = 0; t < trace.keyCount(); ++t) {
    rows += 1 + store.privilegeCount(t) + store.constraintCount(t) +
            store.lineageCount(t) + store.propertyCount(t);
  }

  const std::uint64_t allocations = allocationsDuring([&] { store.populate(); });
  EXPECT_EQ(rows, 190085u);
  EXPECT_LT(allocations, 2 * rows);
  EXPECT_EQ(db_.exec(client_, "SELECT * FROM tables WHERE id = 19999")
                .rows.size(),
            1u);
}

TEST(RowCodecAllocations, EncodeRowAllocatesItsBufferAndResult) {
  // A catalog `tables` row of 42 bytes: the encoder's buffer, sized once
  // from encodedRowSize, and the returned string. String columns are
  // written from the row's own strings.
  const TableSchema tables("tables",
                           {Column{"id", ColumnType::kInt},
                            Column{"schema_id", ColumnType::kInt},
                            Column{"name", ColumnType::kString},
                            Column{"owner", ColumnType::kString},
                            Column{"format", ColumnType::kString},
                            Column{"data_bytes", ColumnType::kInt},
                            Column{"version", ColumnType::kInt}},
                           0, {1});
  const Row row{{std::int64_t{12345}, std::int64_t{246},
                 std::string("table_12345"), std::string("user123"),
                 std::string("delta"), std::int64_t{100000}, std::int64_t{1}}};
  std::string bytes;
  const std::uint64_t allocations =
      allocationsDuring([&] { bytes = encodeRow(tables, row); });
  EXPECT_EQ(bytes.size(), 42u);
  EXPECT_EQ(bytes.size(), encodedRowSize(tables, row));
  EXPECT_EQ(allocations, 2u);
}

TEST(RaftAllocations, ReplicateAllocatesNothing) {
  sim::NetworkModel network;
  sim::Tier tier("kv", sim::TierKind::kKvStorage, 5);
  RaftReplicator raft(tier, network, RaftCosts{}, 3);
  raft.replicate(0, 64);  // any lazy first-use state

  constexpr std::size_t kCalls = 10000;
  const std::uint64_t allocations = allocationsDuring([&] {
    for (std::size_t i = 0; i < kCalls; ++i) raft.replicate(i % 5, 64);
  });
  EXPECT_EQ(allocations, 0u) << "heap allocations over " << kCalls
                             << " replicated writes";
  EXPECT_EQ(raft.committedIndex(), kCalls + 1);
}

}  // namespace
}  // namespace dcache::storage
