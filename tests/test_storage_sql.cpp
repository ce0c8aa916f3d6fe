// SQL layer tests: parser golden cases and error handling (every form no
// simulated path issues is rejected), planner access-path selection and its
// refusals (no key or indexed-column equality, a SET of the key or of an
// indexed column), and end-to-end execution against the database (point
// and index selects, residual filters, updates, parameters, the plan
// cache). Rows are seeded with Database::loadRow, which refuses a primary
// key the table holds.
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "rpc/channel.hpp"
#include "sim/tier.hpp"
#include "storage/database.hpp"
#include "storage/sql_parser.hpp"

namespace dcache::storage {
namespace {

// ---- Parser ----

TEST(Parser, SelectStar) {
  const Statement s = parseSqlOrThrow("SELECT * FROM users WHERE id = ?");
  EXPECT_EQ(s.kind, StatementKind::kSelect);
  EXPECT_EQ(s.table, "users");
  ASSERT_EQ(s.where.size(), 1u);
  EXPECT_EQ(s.where[0].column, "id");
  EXPECT_FALSE(s.where[0].value.literal.has_value());
  EXPECT_TRUE(s.set.empty());
  EXPECT_EQ(s.paramCount, 1u);
}

TEST(Parser, MultiConditionWhere) {
  const Statement s = parseSqlOrThrow(
      "SELECT * FROM privileges WHERE securable_id = ? AND principal = 'bob'");
  ASSERT_EQ(s.where.size(), 2u);
  EXPECT_EQ(s.where[1].value.literal, "bob");
  EXPECT_EQ(s.paramCount, 1u);
}

TEST(Parser, InsertUpdateDelete) {
  // UPDATE is the one write statement; rows go in through Database::loadRow.
  EXPECT_TRUE(std::holds_alternative<ParseError>(
      parseSql("INSERT INTO users VALUES (?, 'amy', 42)")));
  EXPECT_TRUE(std::holds_alternative<ParseError>(
      parseSql("DELETE FROM users WHERE id = 5")));

  const Statement upd = parseSqlOrThrow(
      "UPDATE users SET name = ?, age = 30 WHERE id = ?");
  EXPECT_EQ(upd.kind, StatementKind::kUpdate);
  EXPECT_EQ(upd.table, "users");
  ASSERT_EQ(upd.set.size(), 2u);
  EXPECT_EQ(upd.set[0].column, "name");
  EXPECT_EQ(upd.set[0].value.paramIndex, 0u);
  EXPECT_EQ(upd.set[1].value.literal, "30");
  ASSERT_EQ(upd.where.size(), 1u);
  EXPECT_EQ(upd.where[0].value.paramIndex, 1u);
  EXPECT_EQ(upd.paramCount, 2u);
}

TEST(Parser, StringLiteralsAndNegativeNumbers) {
  const Statement s = parseSqlOrThrow(
      "UPDATE t SET note = 'hello world' WHERE delta = -42");
  EXPECT_EQ(s.set[0].value.literal, "hello world");
  EXPECT_EQ(s.where[0].value.literal, "-42");
}

TEST(Parser, ErrorsReported) {
  for (const char* bad :
       {"", "DROP TABLE users", "SELECT FROM", "SELECT * users",
        "UPDATE t WHERE x = 1", "UPDATE t SET a = 1,",
        "SELECT * FROM t WHERE x >" , "SELECT * FROM t WHERE",
        "SELECT * FROM t WHERE name = 'abc",
        "UPDATE t SET a = 1 WHERE id = ? garbage"}) {
    const ParseResult r = parseSql(bad);
    EXPECT_TRUE(std::holds_alternative<ParseError>(r)) << bad;
  }
  EXPECT_THROW((void)parseSqlOrThrow("garbage"), std::invalid_argument);
  EXPECT_EQ(std::get<ParseError>(parseSql("SELECT * FROM t WHERE a = 'x"))
                .message,
            "unterminated literal");
  // One trailing ';' is fine; anything after it is not.
  EXPECT_TRUE(std::holds_alternative<Statement>(
      parseSql("UPDATE t SET a = 1 WHERE id = 1;")));
  EXPECT_TRUE(std::holds_alternative<ParseError>(
      parseSql("SELECT * FROM t; SELECT * FROM t")));
}

TEST(Parser, SelectColumnsAndLimit) {
  // Only SELECT * is in the grammar, and no statement takes a LIMIT.
  for (const char* bad :
       {"SELECT name FROM tables WHERE id = ?",
        "SELECT name, owner FROM tables WHERE schema_id = 42",
        "SELECT * FROM tables LIMIT 5",
        "SELECT * FROM tables WHERE schema_id = 42 LIMIT 10",
        "UPDATE t SET a = 1 WHERE id = ? LIMIT 5"}) {
    EXPECT_TRUE(std::holds_alternative<ParseError>(parseSql(bad))) << bad;
  }
}

TEST(Parser, SelectJoin) {
  for (const char* bad :
       {"SELECT * FROM tables JOIN schemas ON tables.schema_id = schemas.id",
        "SELECT * FROM tables JOIN schemas ON tables.schema_id = schemas.id "
        "WHERE id = ?"}) {
    EXPECT_TRUE(std::holds_alternative<ParseError>(parseSql(bad))) << bad;
  }
}

TEST(Parser, JoinConditionOrderNormalized) {
  // A join is rejected whichever side of its ON condition names which table.
  for (const char* bad :
       {"SELECT * FROM tables JOIN schemas ON schemas.id = tables.schema_id",
        "SELECT * FROM tables JOIN schemas ON tables.schema_id = schemas.id"}) {
    EXPECT_TRUE(std::holds_alternative<ParseError>(parseSql(bad))) << bad;
  }
}

TEST(Parser, RejectsWhatNoPathIssues) {
  for (const char* removed :
       {// table-qualified columns, in WHERE and in SET
        "SELECT * FROM tables WHERE tables.id = ?",
        "UPDATE users SET name = 'x' WHERE teams.id = 1",
        "UPDATE users SET users.name = 'x' WHERE id = 1",
        // INSERT and DELETE
        "INSERT INTO users VALUES (?, 'amy', 42)",
        "DELETE FROM users WHERE id = 5",
        "DELETE FROM users"}) {
    EXPECT_TRUE(std::holds_alternative<ParseError>(parseSql(removed)))
        << removed;
  }
  // What getTable and updateTable issue still parses.
  for (const char* issued :
       {"SELECT * FROM tables WHERE id = ?",
        "SELECT * FROM privileges WHERE securable_id = ?",
        "UPDATE tables SET version = ? WHERE id = ?"}) {
    EXPECT_TRUE(std::holds_alternative<Statement>(parseSql(issued)))
        << issued;
  }
}

// ---- Planner ----

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest()
      : schema_("tables",
                {Column{"id", ColumnType::kInt},
                 Column{"schema_id", ColumnType::kInt},
                 Column{"name", ColumnType::kString}},
                0, {1}),
        planner_([this](std::string_view name) {
          return name == "tables" ? &schema_ : nullptr;
        }) {}

  TableSchema schema_;
  Planner planner_;
};

TEST_F(PlannerTest, PrimaryKeyWinsPointGet) {
  const auto plan = planner_.plan(
      parseSqlOrThrow("SELECT * FROM tables WHERE name = 'x' AND id = ?"));
  const auto& qp = std::get<QueryPlan>(plan);
  EXPECT_EQ(qp.primary.path, AccessPath::kPointGet);
  EXPECT_EQ(qp.primary.key.columnIndex, 0u);
  EXPECT_EQ(qp.primary.residual.size(), 1u);
}

TEST_F(PlannerTest, SecondaryIndexLookup) {
  const auto plan = planner_.plan(
      parseSqlOrThrow("SELECT * FROM tables WHERE schema_id = ?"));
  EXPECT_EQ(std::get<QueryPlan>(plan).primary.path,
            AccessPath::kIndexLookup);
}

TEST_F(PlannerTest, FallbackTableScan) {
  // No statement scans a table: a WHERE on an unindexed column alone, or
  // no WHERE at all, is a plan error, for SELECT and UPDATE alike.
  for (const char* unkeyed :
       {"SELECT * FROM tables WHERE name = 'x'", "SELECT * FROM tables",
        "UPDATE tables SET name = 'y' WHERE name = 'x'",
        "UPDATE tables SET name = 'y'"}) {
    const auto plan = planner_.plan(parseSqlOrThrow(unkeyed));
    ASSERT_TRUE(std::holds_alternative<PlanError>(plan)) << unkeyed;
    EXPECT_NE(std::get<PlanError>(plan).message.find(
                  "no primary-key or indexed-column equality"),
              std::string::npos)
        << unkeyed;
  }
}

TEST_F(PlannerTest, SetOfTheKeyOrAnIndexedColumnFails) {
  // An UPDATE rewrites row bytes only: a new key or a new indexed value
  // would have to move the row or its index entry.
  const auto key = planner_.plan(
      parseSqlOrThrow("UPDATE tables SET id = 2 WHERE id = 1"));
  ASSERT_TRUE(std::holds_alternative<PlanError>(key));
  EXPECT_EQ(std::get<PlanError>(key).message, "cannot SET primary key column id");
  const auto indexed = planner_.plan(
      parseSqlOrThrow("UPDATE tables SET name = 'x', schema_id = ? WHERE id = 1"));
  ASSERT_TRUE(std::holds_alternative<PlanError>(indexed));
  EXPECT_EQ(std::get<PlanError>(indexed).message,
            "cannot SET indexed column schema_id");
  EXPECT_TRUE(std::holds_alternative<QueryPlan>(planner_.plan(
      parseSqlOrThrow("UPDATE tables SET name = 'x' WHERE schema_id = 1"))));
}

TEST_F(PlannerTest, UnknownTableAndColumnFail) {
  EXPECT_TRUE(std::holds_alternative<PlanError>(
      planner_.plan(parseSqlOrThrow("SELECT * FROM nope WHERE id = 1"))));
  EXPECT_TRUE(std::holds_alternative<PlanError>(planner_.plan(
      parseSqlOrThrow("SELECT * FROM tables WHERE bogus = 1"))));
  EXPECT_TRUE(std::holds_alternative<PlanError>(planner_.plan(
      parseSqlOrThrow("UPDATE tables SET bogus = 1 WHERE id = 1"))));
}

// ---- End-to-end execution ----

class SqlExecution : public ::testing::Test {
 protected:
  SqlExecution()
      : sqlTier_("sql", sim::TierKind::kSqlFrontend, 1),
        kvTier_("kv", sim::TierKind::kKvStorage, 3),
        client_("client", sim::TierKind::kClient),
        channel_(network_, rpc::SerializationModel{}),
        db_(sqlTier_, kvTier_, channel_) {
    db_.createTable(TableSchema("users",
                                {Column{"id", ColumnType::kInt},
                                 Column{"team_id", ColumnType::kInt},
                                 Column{"name", ColumnType::kString}},
                                0, {1}));
    db_.createTable(TableSchema("teams",
                                {Column{"id", ColumnType::kInt},
                                 Column{"title", ColumnType::kString}},
                                0));
  }

  Database::QueryResult exec(std::string_view sql,
                             std::vector<Value> params = {}) {
    return db_.exec(client_, sql, params);
  }

  void loadUser(std::int64_t id, std::int64_t team, std::string name) {
    db_.loadRow("users", Row{{id, team, std::move(name)}});
  }

  sim::NetworkModel network_;
  sim::Tier sqlTier_;
  sim::Tier kvTier_;
  sim::Node client_;
  rpc::Channel channel_;
  Database db_;
};

TEST_F(SqlExecution, InsertAndPointSelect) {
  loadUser(1, 10, "amy");  // rows go in through the load path, not SQL
  auto sel = exec("SELECT * FROM users WHERE id = ?", {std::int64_t{1}});
  ASSERT_TRUE(sel.ok) << sel.error;
  ASSERT_EQ(sel.rows.size(), 1u);
  EXPECT_EQ(std::get<std::string>(sel.rows[0].at(2)), "amy");
  EXPECT_GT(sel.latencyMicros, 0.0);
}

TEST_F(SqlExecution, IndexLookupFindsAllMatches) {
  for (std::int64_t i = 0; i < 10; ++i) {
    loadUser(i, i % 3, std::string("u").append(std::to_string(i)));
  }
  auto sel = exec("SELECT * FROM users WHERE team_id = ?", {std::int64_t{1}});
  ASSERT_TRUE(sel.ok);
  EXPECT_EQ(sel.rows.size(), 3u);  // ids 1, 4, 7
}

TEST_F(SqlExecution, ResidualFilterApplies) {
  loadUser(1, 10, "amy");
  loadUser(2, 10, "bob");
  auto sel = exec("SELECT * FROM users WHERE team_id = 10 AND name = 'bob'");
  ASSERT_TRUE(sel.ok);
  ASSERT_EQ(sel.rows.size(), 1u);
  EXPECT_EQ(valueToInt(sel.rows[0].at(0)), 2);
}

TEST_F(SqlExecution, UpdateMaintainsSecondaryIndex) {
  // An UPDATE never rewrites an index entry: setting the indexed team_id
  // is refused, so the row and both lookups stay as they were.
  loadUser(1, 10, "amy");
  auto upd = exec("UPDATE users SET team_id = ? WHERE id = ?",
                  {std::int64_t{20}, std::int64_t{1}});
  EXPECT_FALSE(upd.ok);
  EXPECT_NE(upd.error.find("plan error: cannot SET indexed column team_id"),
            std::string::npos)
      << upd.error;
  EXPECT_EQ(upd.rowsAffected, 0u);

  const auto row = exec("SELECT * FROM users WHERE id = ?", {std::int64_t{1}});
  ASSERT_EQ(row.rows.size(), 1u);
  EXPECT_EQ(valueToInt(row.rows[0].at(1)), 10);
  auto oldTeam = exec("SELECT * FROM users WHERE team_id = 10");
  EXPECT_EQ(oldTeam.rows.size(), 1u);
  auto newTeam = exec("SELECT * FROM users WHERE team_id = 20");
  EXPECT_TRUE(newTeam.rows.empty());

  // A SET of other columns rewrites the row and leaves its entry as it is.
  upd = exec("UPDATE users SET name = 'bea' WHERE team_id = 10");
  ASSERT_TRUE(upd.ok) << upd.error;
  EXPECT_EQ(upd.rowsAffected, 1u);
  oldTeam = exec("SELECT * FROM users WHERE team_id = 10");
  ASSERT_EQ(oldTeam.rows.size(), 1u);
  EXPECT_EQ(std::get<std::string>(oldTeam.rows[0].at(2)), "bea");
}

TEST_F(SqlExecution, LoadingAResidentPrimaryKeyChangesNothing) {
  // A row is loaded once: loading its key again must not rewrite it, or the
  // first value's index entry would stay and a lookup by that value would
  // return a row whose column no longer matches.
  loadUser(1, 5, "amy");
  const auto version = db_.peekRowVersion("users", "1");
  loadUser(1, 6, "bob");
  EXPECT_EQ(db_.peekRowVersion("users", "1"), version);
  for (const std::int64_t team : {5, 6}) {
    const auto sel = exec("SELECT * FROM users WHERE team_id = ?", {team});
    ASSERT_TRUE(sel.ok) << sel.error;
    for (const Row& row : sel.rows) {
      EXPECT_EQ(valueToInt(row.at(1)), team) << "lookup by team " << team;
    }
    EXPECT_EQ(sel.rows.size(), team == 5 ? 1u : 0u) << "team " << team;
  }
  const auto row = exec("SELECT * FROM users WHERE id = ?", {std::int64_t{1}});
  ASSERT_EQ(row.rows.size(), 1u);
  EXPECT_EQ(valueToInt(row.rows[0].at(1)), 5);
  EXPECT_EQ(std::get<std::string>(row.rows[0].at(2)), "amy");
}

TEST_F(SqlExecution, QualifiedWhereIsRejectedAndNoRowChanges) {
  // Dropping the qualifier would make this UPDATE rewrite every row of
  // users.
  db_.loadRow("teams", Row{{std::int64_t{1}, std::string("infra")}});
  for (std::int64_t id = 1; id <= 5; ++id) loadUser(id, 1, "amy");
  const auto upd = exec("UPDATE users SET name = 'x' WHERE teams.id = 1");
  EXPECT_FALSE(upd.ok);
  EXPECT_NE(upd.error.find("parse error"), std::string::npos) << upd.error;
  EXPECT_EQ(upd.rowsAffected, 0u);

  const auto all = exec("SELECT * FROM users WHERE team_id = 1");
  ASSERT_TRUE(all.ok) << all.error;
  ASSERT_EQ(all.rows.size(), 5u);
  for (const Row& row : all.rows) {
    EXPECT_EQ(std::get<std::string>(row.at(2)), "amy");
  }
}

TEST_F(SqlExecution, UpdateOfThePrimaryKeyIsRejected) {
  // Rewriting the row in place under a new key would leave the old row and
  // its index entries behind: a sixth row here.
  for (std::int64_t id = 1; id <= 5; ++id) loadUser(id, 1, "amy");
  const auto upd = exec("UPDATE users SET id = 9 WHERE id = 1");
  EXPECT_FALSE(upd.ok);
  EXPECT_NE(upd.error.find("plan error"), std::string::npos) << upd.error;
  EXPECT_EQ(exec("SELECT * FROM users WHERE id = 1").rows.size(), 1u);
  EXPECT_TRUE(exec("SELECT * FROM users WHERE id = 9").rows.empty());
  EXPECT_EQ(exec("SELECT * FROM users WHERE team_id = 1").rows.size(), 5u);
}

TEST_F(SqlExecution, MissingParameterIsError) {
  auto sel = exec("SELECT * FROM users WHERE id = ?");
  EXPECT_FALSE(sel.ok);
  EXPECT_FALSE(sel.error.empty());
}

TEST_F(SqlExecution, ParseAndPlanErrorsSurfaceToClient) {
  auto bad = exec("SELEC nothing");
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("parse error"), std::string::npos);
  auto unknown = exec("SELECT * FROM missing WHERE id = 1");
  EXPECT_FALSE(unknown.ok);
  EXPECT_NE(unknown.error.find("plan error"), std::string::npos);
}

// ---- Plan cache: host-side only, so the charges must not change ----

TEST_F(SqlExecution, CachedPlanChargesTheSameFrontEndWork) {
  loadUser(1, 10, "amy");
  const auto frontEnd = [&] {
    const auto& cpu = sqlTier_.aggregateCpu();
    return std::array<double, 3>{
        cpu.micros(sim::CpuComponent::kConnectionMgmt),
        cpu.micros(sim::CpuComponent::kQueryParse),
        cpu.micros(sim::CpuComponent::kQueryPlan)};
  };
  std::array<double, 3> charged[2];
  for (auto& delta : charged) {
    const auto before = frontEnd();
    ASSERT_TRUE(exec("SELECT * FROM users WHERE id = ?", {std::int64_t{1}}).ok);
    const auto after = frontEnd();
    for (std::size_t i = 0; i < delta.size(); ++i) delta[i] = after[i] - before[i];
  }
  EXPECT_GT(charged[0][1], 0.0);
  EXPECT_EQ(charged[0], charged[1]);
}

TEST_F(SqlExecution, CreateTableReplansCachedText) {
  // `team` starts indexed, so the text plans as an index lookup and its
  // plan is cached; redefined without the index, the same text plans again
  // and is refused, since no statement scans a table.
  const auto makeMembers = [&](std::vector<std::size_t> indexed) {
    db_.createTable(TableSchema("members",
                                {Column{"id", ColumnType::kInt},
                                 Column{"team", ColumnType::kInt}},
                                0, std::move(indexed)));
    for (std::int64_t id = 0; id < 30; ++id) {
      db_.loadRow("members", Row{{id, id % 10}});
    }
  };
  const auto select = [&] {
    return exec("SELECT * FROM members WHERE team = ?", {std::int64_t{3}});
  };
  makeMembers({1});
  for (int run = 0; run < 2; ++run) {  // the second run uses the cached plan
    const double before =
        kvTier_.aggregateCpu().micros(sim::CpuComponent::kKvExecution);
    const auto sel = select();
    ASSERT_TRUE(sel.ok) << sel.error;
    EXPECT_EQ(sel.rows.size(), 3u);
    // Index lookup: 3 index entries + 3 rows, not all 30 rows.
    const double charged =
        kvTier_.aggregateCpu().micros(sim::CpuComponent::kKvExecution) - before;
    EXPECT_LT(charged, 10 * StorageCosts{}.execPerRowMicros) << "run " << run;
  }
  makeMembers({});  // same text, now without the index on `team`
  const auto refused = select();
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("plan error"), std::string::npos)
      << refused.error;
}

TEST_F(SqlExecution, ErrorsAreReportedOnEveryCall) {
  for (int run = 0; run < 3; ++run) {
    auto bad = exec("SELEC nothing");
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("parse error"), std::string::npos) << run;
    auto unknown = exec("SELECT * FROM missing WHERE id = 1");
    EXPECT_FALSE(unknown.ok);
    EXPECT_NE(unknown.error.find("plan error"), std::string::npos) << run;
  }
  // The failed plan was not cached: once the table exists the text runs.
  db_.createTable(TableSchema("missing", {Column{"id", ColumnType::kInt}}, 0));
  EXPECT_TRUE(exec("SELECT * FROM missing WHERE id = 1").ok);
}

TEST_F(SqlExecution, ChargesFrontendAndStorage) {
  loadUser(1, 10, "amy");
  const double sqlBefore = sqlTier_.aggregateCpu().totalMicros();
  const double kvBefore = kvTier_.aggregateCpu().totalMicros();
  exec("SELECT * FROM users WHERE id = 1");
  EXPECT_GT(sqlTier_.aggregateCpu().totalMicros(), sqlBefore);
  EXPECT_GT(kvTier_.aggregateCpu().totalMicros(), kvBefore);
  // Front end did parse/plan work.
  EXPECT_GT(sqlTier_.aggregateCpu().micros(sim::CpuComponent::kQueryParse),
            0.0);
  EXPECT_GT(sqlTier_.aggregateCpu().micros(sim::CpuComponent::kQueryPlan),
            0.0);
  // Storage did KV execution and lease validation (consistent reads).
  EXPECT_GT(kvTier_.aggregateCpu().micros(sim::CpuComponent::kKvExecution),
            0.0);
  EXPECT_GT(
      kvTier_.aggregateCpu().micros(sim::CpuComponent::kLeaseValidation),
      0.0);
}

}  // namespace
}  // namespace dcache::storage
