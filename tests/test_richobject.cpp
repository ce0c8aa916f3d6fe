// Rich-object layer tests: catalog population, the getTable assembler
// (query amplification, object correctness, sizes), permission inheritance
// and the object codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string_view>
#include <utility>

#include "richobject/assembler.hpp"
#include "richobject/catalog_store.hpp"
#include "richobject/entities.hpp"
#include "richobject/object_codec.hpp"
#include "rpc/channel.hpp"
#include "sim/tier.hpp"
#include "storage/database.hpp"
#include "storage/row.hpp"

namespace dcache::richobject {
namespace {

class RichObjectTest : public ::testing::Test {
 protected:
  RichObjectTest()
      : sqlTier_("sql", sim::TierKind::kSqlFrontend, 1),
        kvTier_("kv", sim::TierKind::kKvStorage, 3),
        app_("app", sim::TierKind::kAppServer),
        channel_(network_, rpc::SerializationModel{}),
        db_(sqlTier_, kvTier_, channel_) {
    workload::UcTraceConfig traceConfig;
    traceConfig.numTables = 200;  // small dataset for unit tests
    trace_ = std::make_unique<workload::UcTraceWorkload>(traceConfig);
    store_ = std::make_unique<CatalogStore>(db_, *trace_);
    store_->createSchemas();
    store_->populate();
    assembler_ = std::make_unique<Assembler>(*store_);
  }

  sim::NetworkModel network_;
  sim::Tier sqlTier_;
  sim::Tier kvTier_;
  sim::Node app_;
  rpc::Channel channel_;
  storage::Database db_;
  std::unique_ptr<workload::UcTraceWorkload> trace_;
  std::unique_ptr<CatalogStore> store_;
  std::unique_ptr<Assembler> assembler_;
};

TEST_F(RichObjectTest, SchemasCreated) {
  for (const char* table : {"tables", "schemas", "catalogs", "principals",
                            "privileges", "constraints", "lineage",
                            "properties"}) {
    EXPECT_NE(db_.schema(table), nullptr) << table;
  }
  // tables carries the declared blob column.
  ASSERT_TRUE(db_.schema("tables")->payloadSizeColumn().has_value());
}

TEST_F(RichObjectTest, LoadKeepsOneEngineKeyPerRowAndOneEntryPerIndexedColumn) {
  // The KV engines hold each catalog row once and no index entry; each
  // index holds one entry per row of its table.
  const std::uint64_t tables = trace_->keyCount();
  const std::int64_t schemas = store_->schemaIdFor(tables - 1) + 1;
  const std::int64_t catalogs = store_->catalogIdFor(schemas - 1) + 1;
  std::uint64_t privileges = static_cast<std::uint64_t>(catalogs);
  std::uint64_t constraints = 0;
  std::uint64_t lineage = 0;
  std::uint64_t properties = 0;
  for (std::uint64_t t = 0; t < tables; ++t) {
    privileges += store_->privilegeCount(t);
    constraints += store_->constraintCount(t);
    lineage += store_->lineageCount(t);
    properties += store_->propertyCount(t);
  }
  const std::uint64_t rows = store_->config().principals +
                             static_cast<std::uint64_t>(schemas + catalogs) +
                             tables + privileges + constraints + lineage +
                             properties;
  EXPECT_EQ(db_.engineKeyCount(), rows);
  const std::pair<const char*, std::uint64_t> indexes[] = {
      {"t/tables/i/schema_id/", tables},
      {"t/schemas/i/catalog_id/", static_cast<std::uint64_t>(schemas)},
      {"t/catalogs/i/metastore_id/", static_cast<std::uint64_t>(catalogs)},
      {"t/privileges/i/securable_id/", privileges},
      {"t/constraints/i/table_id/", constraints},
      {"t/lineage/i/table_id/", lineage},
      {"t/properties/i/table_id/", properties}};
  for (const auto& [base, entries] : indexes) {
    EXPECT_EQ(db_.indexEntryCount(base), entries) << base;
  }
  EXPECT_EQ(db_.indexEntryCount("t/principals/i/name/"), 0u);  // no index
}

TEST_F(RichObjectTest, RowCountIsTheKeyCountPopulateLoads) {
  // populate() reserves the engines for rowCount() keys; an exact count
  // is what keeps the reservation from over-sizing the point indexes.
  EXPECT_EQ(store_->rowCount(), db_.engineKeyCount());
}

TEST_F(RichObjectTest, HierarchyIdsConsistent) {
  // Table 0 and table 49 share schema 0; table 50 starts schema 1.
  EXPECT_EQ(store_->schemaIdFor(0), store_->schemaIdFor(49));
  EXPECT_NE(store_->schemaIdFor(49), store_->schemaIdFor(50));
  EXPECT_EQ(store_->catalogIdFor(0), 0);
  EXPECT_EQ(store_->catalogIdFor(19), 0);
  EXPECT_EQ(store_->catalogIdFor(20), 1);
}

TEST_F(RichObjectTest, GetTableAssemblesFullObject) {
  const auto result = assembler_->getTable(app_, 0);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.object.table.id, 0);
  EXPECT_EQ(result.object.table.name, "table_0");
  EXPECT_GE(result.statementsIssued, 1u);
  EXPECT_LE(result.statementsIssued, 8u);
  EXPECT_GT(result.bytesRead, 0u);
  EXPECT_GT(result.latencyMicros, 0.0);
  // The budget comes from the trace.
  EXPECT_EQ(result.statementsIssued, trace_->statementsFor(0));
}

TEST_F(RichObjectTest, FullBudgetFetchesParentsAndSatellites) {
  // Find a table whose budget is 8 so everything is fetched.
  std::uint64_t full = 0;
  for (std::uint64_t t = 0; t < 200; ++t) {
    if (trace_->statementsFor(t) == 8) {
      full = t;
      break;
    }
  }
  const auto result = assembler_->getTable(app_, full);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.statementsIssued, 8u);
  EXPECT_EQ(result.object.schema.id, store_->schemaIdFor(full));
  EXPECT_EQ(result.object.catalog.id,
            store_->catalogIdFor(store_->schemaIdFor(full)));
  EXPECT_FALSE(result.object.schema.name.empty());
  EXPECT_GE(result.object.privileges.size(),
            store_->privilegeCount(full));  // + inherited catalog grants
  EXPECT_EQ(result.object.constraints.size(), store_->constraintCount(full));
  EXPECT_EQ(result.object.lineage.size(), store_->lineageCount(full));
  EXPECT_EQ(result.object.properties.size(), store_->propertyCount(full));
}

TEST_F(RichObjectTest, StatementLogicalBytesSumTheirRows) {
  // Each getTable statement reports the logical bytes of the rows it
  // returns from their stored sizes; they must equal the bytes of the
  // decoded rows, and getTable's bytesRead the sum over its statements.
  // Every third table is updated first, so rewritten rows count too.
  for (std::uint64_t t = 0; t < 200; ++t) {
    if (t % 3 == 0) assembler_->updateTable(app_, t);
    const auto id = static_cast<std::int64_t>(t);
    const std::int64_t schemaId = store_->schemaIdFor(t);
    const std::int64_t catalogId = store_->catalogIdFor(schemaId);
    const std::pair<const char*, storage::Value> statements[] = {
        {"SELECT * FROM tables WHERE id = ?", storage::Value{id}},
        {"SELECT * FROM schemas WHERE id = ?", storage::Value{schemaId}},
        {"SELECT * FROM catalogs WHERE id = ?", storage::Value{catalogId}},
        {"SELECT * FROM privileges WHERE securable_id = ?",
         storage::Value{CatalogStore::tableSecurable(t)}},
        {"SELECT * FROM privileges WHERE securable_id = ?",
         storage::Value{CatalogStore::catalogSecurable(catalogId)}},
        {"SELECT * FROM constraints WHERE table_id = ?", storage::Value{id}},
        {"SELECT * FROM lineage WHERE table_id = ?", storage::Value{id}},
        {"SELECT * FROM properties WHERE table_id = ?", storage::Value{id}}};
    const std::size_t budget =
        std::clamp<std::size_t>(trace_->statementsFor(t), 1, 8);
    std::uint64_t budgetBytes = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      const auto& [sql, param] = statements[i];
      const storage::Value params[] = {param};
      const auto r = db_.exec(app_, sql, params);
      ASSERT_TRUE(r.ok) << sql << ": " << r.error;
      const std::string_view from = std::string_view(sql).substr(14);
      const storage::TableSchema* schema =
          db_.schema(from.substr(0, from.find(' ')));
      ASSERT_NE(schema, nullptr) << sql;
      std::uint64_t want = 0;
      for (const storage::Row& row : r.rows) {
        want += storage::encodedRowSize(*schema, row) +
                storage::declaredPayloadBytes(*schema, row);
      }
      EXPECT_EQ(r.logicalBytes, want) << "table " << t << ": " << sql;
      if (i < budget) budgetBytes += r.logicalBytes;
    }
    const auto result = assembler_->getTable(app_, t);
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.bytesRead, budgetBytes) << "table " << t;
  }
}

TEST_F(RichObjectTest, UnknownTableFails) {
  const auto result = assembler_->getTable(app_, 99999);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.statementsIssued, 1u);  // stops after the table lookup
}

TEST_F(RichObjectTest, ObjectSizeTracksWorkloadSize) {
  // The declared blob is fitted so the object is close to the trace size
  // (slightly above for tables whose structured parts exceed the target).
  for (const std::uint64_t t : {0ULL, 7ULL, 50ULL, 199ULL}) {
    const auto result = assembler_->getTable(app_, t);
    ASSERT_TRUE(result.ok);
    const auto want = trace_->valueSizeFor(t);
    const auto got = result.object.approximateSize();
    EXPECT_GE(got, want / 2) << "table " << t;
    EXPECT_LE(got, want + 4096) << "table " << t;
  }
}

TEST_F(RichObjectTest, QueryAmplificationChargesStoragePerStatement) {
  const double parseBefore =
      sqlTier_.aggregateCpu().micros(sim::CpuComponent::kQueryParse);
  const auto result = assembler_->getTable(app_, 3);
  ASSERT_TRUE(result.ok);
  const double parseAfter =
      sqlTier_.aggregateCpu().micros(sim::CpuComponent::kQueryParse);
  // Each statement pays parse separately — the §5.4 amplification.
  const double perStatement =
      (parseAfter - parseBefore) / static_cast<double>(result.statementsIssued);
  EXPECT_GT(perStatement, 0.0);
  EXPECT_NEAR(parseAfter - parseBefore,
              perStatement * static_cast<double>(result.statementsIssued),
              1e-9);
  // And the app paid request-prep per statement.
  EXPECT_GE(app_.cpu().micros(sim::CpuComponent::kRequestPrep),
            static_cast<double>(result.statementsIssued));
}

TEST_F(RichObjectTest, UpdateTableBumpsVersion) {
  const auto before = db_.peekRowVersion("tables", "5");
  ASSERT_TRUE(before.has_value());
  assembler_->updateTable(app_, 5);
  const auto after = db_.peekRowVersion("tables", "5");
  ASSERT_TRUE(after.has_value());
  EXPECT_GT(*after, *before);

  // And the app-level version column advanced too.
  const auto result = assembler_->getTable(app_, 5);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.object.table.version, 2);
}

TEST_F(RichObjectTest, PermissionInheritance) {
  RichTableObject object;
  object.table.owner = "user1";
  object.schema.owner = "user2";
  object.catalog.owner = "user3";
  object.privileges = {
      Privilege{SecurableLevel::kTable, "alice", "SELECT"},
      Privilege{SecurableLevel::kCatalog, "bob", "MODIFY"},
      Privilege{SecurableLevel::kSchema, "carol", "ALL"},
      Privilege{SecurableLevel::kTable, "dave", "OWN"},
  };
  // Owners anywhere in the chain can do anything.
  EXPECT_TRUE(object.allowed("user1", "MODIFY"));
  EXPECT_TRUE(object.allowed("user2", "SELECT"));
  EXPECT_TRUE(object.allowed("user3", "DELETE"));
  // Exact grant.
  EXPECT_TRUE(object.allowed("alice", "SELECT"));
  EXPECT_FALSE(object.allowed("alice", "MODIFY"));
  // Catalog-level grant inherits downward.
  EXPECT_TRUE(object.allowed("bob", "MODIFY"));
  // ALL and OWN cover everything.
  EXPECT_TRUE(object.allowed("carol", "SELECT"));
  EXPECT_TRUE(object.allowed("dave", "MODIFY"));
  // Strangers denied.
  EXPECT_FALSE(object.allowed("mallory", "SELECT"));
}

TEST_F(RichObjectTest, CodecRoundtrip) {
  const auto result = assembler_->getTable(app_, 11);
  ASSERT_TRUE(result.ok);
  const std::string bytes = encodeObject(result.object);
  const auto back = decodeObject(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->table.id, result.object.table.id);
  EXPECT_EQ(back->table.name, result.object.table.name);
  EXPECT_EQ(back->table.dataBytes, result.object.table.dataBytes);
  EXPECT_EQ(back->schema.name, result.object.schema.name);
  EXPECT_EQ(back->catalog.name, result.object.catalog.name);
  EXPECT_EQ(back->privileges.size(), result.object.privileges.size());
  EXPECT_EQ(back->constraints.size(), result.object.constraints.size());
  EXPECT_EQ(back->lineage.size(), result.object.lineage.size());
  EXPECT_EQ(back->properties, result.object.properties);
}

TEST_F(RichObjectTest, CodecRejectsCorruption) {
  const auto result = assembler_->getTable(app_, 2);
  ASSERT_TRUE(result.ok);
  std::string bytes = encodeObject(result.object);
  int rejected = 0;
  for (std::size_t i = 0; i < bytes.size(); i += 3) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5A);
    if (!decodeObject(corrupt).has_value()) ++rejected;
  }
  EXPECT_GT(rejected, 0);
}

TEST_F(RichObjectTest, EncodedSizeIncludesBlob) {
  RichTableObject object;
  object.table.dataBytes = 100000;
  object.table.name = "t";
  EXPECT_GT(encodedObjectSize(object), 100000u);
  // approximateSize tracks the same blob.
  EXPECT_GT(object.approximateSize(), 100000u);
}

TEST_F(RichObjectTest, SecurableNames) {
  EXPECT_EQ(CatalogStore::tableSecurable(5), "tbl5");
  EXPECT_EQ(CatalogStore::schemaSecurable(2), "sch2");
  EXPECT_EQ(CatalogStore::catalogSecurable(0), "cat0");
  EXPECT_EQ(securableLevelName(SecurableLevel::kTable), "table");
}

}  // namespace
}  // namespace dcache::richobject
