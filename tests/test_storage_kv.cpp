// Storage engine unit tests: overwrites, stale commits, the key limit, the
// block cache's hit/miss/grouping behaviour and the row codec.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "storage/block_cache.hpp"
#include "storage/kv_engine.hpp"
#include "storage/row.hpp"
#include "storage/schema.hpp"
#include "util/rng.hpp"

namespace dcache::storage {
namespace {

TEST(KvEngine, LatestWinsAndSnapshotsSeePast) {
  KvEngine engine;
  EXPECT_TRUE(engine.put("k", StoredValue::sized(10), 5));
  EXPECT_TRUE(engine.put("k", StoredValue::sized(20), 9));

  const std::optional<ValueView> latest = engine.get("k");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->size, 20u);
  EXPECT_EQ(latest->version, 9u);
}

TEST(KvEngine, RejectsOutOfOrderCommits) {
  KvEngine engine;
  EXPECT_TRUE(engine.put("k", StoredValue::sized(1), 10));
  EXPECT_FALSE(engine.put("k", StoredValue::sized(2), 10));  // same ts
  EXPECT_FALSE(engine.put("k", StoredValue::sized(2), 9));   // older ts
  EXPECT_EQ(engine.get("k")->size, 1u);
}

TEST(KvEngine, LiveBytesTracksNewestVersions) {
  KvEngine engine;
  engine.put("a", StoredValue::sized(100), 1);
  engine.put("b", StoredValue::sized(50), 2);
  EXPECT_EQ(engine.liveBytes().count(), 150u);
  engine.put("a", StoredValue::sized(10), 3);  // replaces the 100
  EXPECT_EQ(engine.liveBytes().count(), 60u);
  EXPECT_FALSE(engine.put("b", StoredValue::sized(7), 2));  // stale: no change
  EXPECT_EQ(engine.liveBytes().count(), 60u);
}

TEST(KvEngine, RejectsKeysPastTheLimit) {
  KvEngine engine;
  const std::string longest(KvEngine::kMaxKeyBytes, 'k');
  EXPECT_TRUE(engine.put(longest, StoredValue::sized(1), 1));
  EXPECT_FALSE(engine.put(longest + "k", StoredValue::sized(1), 2));
  EXPECT_EQ(engine.keyCount(), 1u);
  EXPECT_TRUE(engine.contains(longest));
}

TEST(BlockCache, MissThenHit) {
  BlockCache cache(util::Bytes::mb(4));
  EXPECT_FALSE(cache.touchRead("key1", 100));  // cold miss loads block
  EXPECT_TRUE(cache.touchRead("key1", 100));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(BlockCache, WriteWarmsBlock) {
  BlockCache cache(util::Bytes::mb(4));
  cache.touchWrite("key1", 100);
  EXPECT_TRUE(cache.touchRead("key1", 100));
}

TEST(BlockCache, InvalidateForcesMiss) {
  BlockCache cache(util::Bytes::mb(4));
  cache.touchWrite("key1", 100);
  cache.invalidate("key1");
  EXPECT_FALSE(cache.touchRead("key1", 100));
}

TEST(BlockCache, BlocksAtLeastPageSized) {
  EXPECT_EQ(BlockCache::blockSizeFor(10), BlockCache::kBlockBytes);
  EXPECT_EQ(BlockCache::blockSizeFor(1 << 20), 1u << 20);
}

TEST(BlockCache, BlockIdGroupsAndIsStable) {
  const std::string id = BlockCache::blockIdFor("some-key");
  EXPECT_EQ(id, BlockCache::blockIdFor("some-key"));
  EXPECT_EQ(id.size(), 17u);
  EXPECT_EQ(id[0], 'b');
}

TEST(BlockCache, EvictsUnderPressure) {
  BlockCache cache(util::Bytes::of(3 * (BlockCache::kBlockBytes + 200)));
  util::Pcg32 rng(3, 1);
  for (int i = 0; i < 1000; ++i) {
    cache.touchRead("key" + std::to_string(i), 100);
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LE(cache.bytesUsed().count(), cache.capacity().count());
}

// ---- Row codec ----

TEST(RowCodec, RoundtripAllTypes) {
  const TableSchema schema("t",
                           {Column{"id", ColumnType::kInt},
                            Column{"score", ColumnType::kDouble},
                            Column{"name", ColumnType::kString}},
                           0);
  const Row row{{std::int64_t{-42}, 3.5, std::string("alice")}};
  const std::string bytes = encodeRow(schema, row);
  EXPECT_EQ(bytes.size(), encodedRowSize(schema, row));
  Row back;
  ASSERT_TRUE(decodeRow(schema, bytes, back));
  EXPECT_EQ(valueToInt(back.at(0)), -42);
  EXPECT_DOUBLE_EQ(std::get<double>(back.at(1)), 3.5);
  EXPECT_EQ(std::get<std::string>(back.at(2)), "alice");
  // Into a row that already holds other values, of other types.
  Row reused{{std::string("stale-string-past-the-inline-size"), std::int64_t{9},
              std::int64_t{7}, std::string("extra")}};
  ASSERT_TRUE(decodeRow(schema, bytes, reused));
  EXPECT_EQ(reused.values, back.values);
}

TEST(RowCodec, DecodeRejectsGarbage) {
  const TableSchema schema("t", {Column{"id", ColumnType::kInt}}, 0);
  // Length-delimited field claiming more bytes than present.
  const std::string bad = "\x0a\xff";
  Row row;
  EXPECT_FALSE(decodeRow(schema, bad, row));
}

TEST(RowCodec, DeclaredPayloadBytes) {
  TableSchema schema("t",
                     {Column{"id", ColumnType::kInt},
                      Column{"blob_bytes", ColumnType::kInt}},
                     0);
  schema.withPayloadSizeColumn("blob_bytes");
  ASSERT_TRUE(schema.payloadSizeColumn().has_value());
  const Row row{{std::int64_t{1}, std::int64_t{5000}}};
  EXPECT_EQ(declaredPayloadBytes(schema, row), 5000u);
  const Row negative{{std::int64_t{1}, std::int64_t{-10}}};
  EXPECT_EQ(declaredPayloadBytes(schema, negative), 0u);
}

TEST(RowCodec, PayloadColumnMustBeInt) {
  TableSchema schema("t",
                     {Column{"id", ColumnType::kInt},
                      Column{"name", ColumnType::kString}},
                     0);
  schema.withPayloadSizeColumn("name");  // wrong type: ignored
  EXPECT_FALSE(schema.payloadSizeColumn().has_value());
}

TEST(ValueHelpers, CrossTypeEquality) {
  EXPECT_TRUE(valueEquals(Value{std::int64_t{5}}, Value{5.0}));
  EXPECT_FALSE(valueEquals(Value{std::int64_t{5}}, Value{std::string("5")}));
  EXPECT_TRUE(valueEquals(Value{std::string("x")}, Value{std::string("x")}));
  EXPECT_EQ(valueToInt(Value{std::string("123")}), 123);
  EXPECT_EQ(valueToString(Value{std::int64_t{7}}), "7");
}

TEST(ValueHelpers, StringSizeMatchesValueToString) {
  for (const Value& v :
       {Value{std::int64_t{0}}, Value{std::int64_t{-7}},
        Value{std::int64_t{1234567}}, Value{INT64_MIN}, Value{INT64_MAX},
        Value{0.0}, Value{-3.25}, Value{1e20}, Value{std::string()},
        Value{std::string("securable")}}) {
    EXPECT_EQ(valueStringSize(v), valueToString(v).size()) << valueToString(v);
  }
}

}  // namespace
}  // namespace dcache::storage
