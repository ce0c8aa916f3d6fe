// SQL layer tests: parser golden cases and error handling, planner access-
// path selection, and full end-to-end execution against the database
// (inserts, point/index/scan selects, joins, updates with index
// maintenance, deletes, parameters, limits).
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
  EXPECT_TRUE(s.select.columns.empty());
  EXPECT_EQ(s.select.table, "users");
  ASSERT_EQ(s.select.where.size(), 1u);
  EXPECT_EQ(s.select.where[0].column, "id");
  EXPECT_FALSE(s.select.where[0].literal.has_value());
  EXPECT_EQ(s.paramCount, 1u);
}

TEST(Parser, SelectColumnsAndLimit) {
  const Statement s = parseSqlOrThrow(
      "select name, owner from tables where schema_id = 42 limit 10");
  EXPECT_EQ(s.select.columns,
            (std::vector<std::string>{"name", "owner"}));
  ASSERT_TRUE(s.select.limit.has_value());
  EXPECT_EQ(*s.select.limit, 10u);
  ASSERT_EQ(s.select.where.size(), 1u);
  EXPECT_EQ(s.select.where[0].literal, "42");
}

TEST(Parser, SelectJoin) {
  const Statement s = parseSqlOrThrow(
      "SELECT name FROM tables JOIN schemas ON tables.schema_id = schemas.id "
      "WHERE tables.id = ?");
  ASSERT_TRUE(s.select.join.has_value());
  EXPECT_EQ(s.select.join->table, "schemas");
  EXPECT_EQ(s.select.join->leftColumn, "schema_id");
  EXPECT_EQ(s.select.join->rightColumn, "id");
}

TEST(Parser, JoinConditionOrderNormalized) {
  const Statement s = parseSqlOrThrow(
      "SELECT name FROM tables JOIN schemas ON schemas.id = tables.schema_id");
  ASSERT_TRUE(s.select.join.has_value());
  EXPECT_EQ(s.select.join->leftColumn, "schema_id");
  EXPECT_EQ(s.select.join->rightColumn, "id");
}

TEST(Parser, MultiConditionWhere) {
  const Statement s = parseSqlOrThrow(
      "SELECT * FROM privileges WHERE securable_id = ? AND principal = 'bob'");
  ASSERT_EQ(s.select.where.size(), 2u);
  EXPECT_EQ(s.select.where[1].literal, "bob");
  EXPECT_EQ(s.paramCount, 1u);
}

TEST(Parser, InsertUpdateDelete) {
  const Statement ins =
      parseSqlOrThrow("INSERT INTO users VALUES (?, 'amy', 42)");
  EXPECT_EQ(ins.kind, StatementKind::kInsert);
  ASSERT_EQ(ins.insert.values.size(), 3u);
  EXPECT_FALSE(ins.insert.values[0].literal.has_value());
  EXPECT_EQ(ins.insert.values[1].literal, "amy");

  const Statement upd = parseSqlOrThrow(
      "UPDATE users SET name = ?, age = 30 WHERE id = ?");
  EXPECT_EQ(upd.kind, StatementKind::kUpdate);
  ASSERT_EQ(upd.update.assignments.size(), 2u);
  EXPECT_EQ(upd.update.assignments[0].first, "name");
  EXPECT_EQ(upd.paramCount, 2u);

  const Statement del = parseSqlOrThrow("DELETE FROM users WHERE id = 5");
  EXPECT_EQ(del.kind, StatementKind::kDelete);
  ASSERT_EQ(del.del.where.size(), 1u);
}

TEST(Parser, StringLiteralsAndNegativeNumbers) {
  const Statement s = parseSqlOrThrow(
      "INSERT INTO t VALUES ('hello world', -42)");
  EXPECT_EQ(s.insert.values[0].literal, "hello world");
  EXPECT_EQ(s.insert.values[1].literal, "-42");
}

TEST(Parser, ErrorsReported) {
  for (const char* bad :
       {"", "DROP TABLE users", "SELECT FROM", "SELECT * users",
        "INSERT INTO t (1,2)", "UPDATE t WHERE x = 1",
        "SELECT * FROM t WHERE x >" , "SELECT * FROM t LIMIT ?",
        "SELECT * FROM t WHERE name = 'abc",
        "INSERT INTO t VALUES ('x', 1) garbage",
        "UPDATE t SET a = 1 WHERE id = ? LIMIT 5",
        "DELETE FROM t WHERE id = 1 trailing junk"}) {
    const ParseResult r = parseSql(bad);
    EXPECT_TRUE(std::holds_alternative<ParseError>(r)) << bad;
  }
  EXPECT_THROW((void)parseSqlOrThrow("garbage"), std::invalid_argument);
  EXPECT_EQ(std::get<ParseError>(parseSql("SELECT * FROM t WHERE a = 'x"))
                .message,
            "unterminated literal");
  // One trailing ';' is fine; anything after it is not.
  EXPECT_TRUE(std::holds_alternative<Statement>(
      parseSql("DELETE FROM t WHERE id = 1;")));
  EXPECT_TRUE(std::holds_alternative<ParseError>(
      parseSql("SELECT * FROM t; SELECT * FROM t")));
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
  ASSERT_TRUE(qp.primary.key.has_value());
  EXPECT_EQ(qp.primary.key->columnIndex, 0u);
  EXPECT_EQ(qp.primary.residual.size(), 1u);
}

TEST_F(PlannerTest, SecondaryIndexLookup) {
  const auto plan = planner_.plan(
      parseSqlOrThrow("SELECT * FROM tables WHERE schema_id = ?"));
  EXPECT_EQ(std::get<QueryPlan>(plan).primary.path,
            AccessPath::kIndexLookup);
}

TEST_F(PlannerTest, FallbackTableScan) {
  const auto plan = planner_.plan(
      parseSqlOrThrow("SELECT * FROM tables WHERE name = 'x'"));
  EXPECT_EQ(std::get<QueryPlan>(plan).primary.path, AccessPath::kTableScan);
}

TEST_F(PlannerTest, UnknownTableAndColumnFail) {
  EXPECT_TRUE(std::holds_alternative<PlanError>(
      planner_.plan(parseSqlOrThrow("SELECT * FROM nope WHERE id = 1"))));
  EXPECT_TRUE(std::holds_alternative<PlanError>(
      planner_.plan(parseSqlOrThrow("SELECT bogus FROM tables"))));
  EXPECT_TRUE(std::holds_alternative<PlanError>(planner_.plan(
      parseSqlOrThrow("INSERT INTO tables VALUES (1)"))));  // arity
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

  sim::NetworkModel network_;
  sim::Tier sqlTier_;
  sim::Tier kvTier_;
  sim::Node client_;
  rpc::Channel channel_;
  Database db_;
};

TEST_F(SqlExecution, InsertAndPointSelect) {
  auto ins = exec("INSERT INTO users VALUES (?, ?, ?)",
                  {std::int64_t{1}, std::int64_t{10}, std::string("amy")});
  ASSERT_TRUE(ins.ok) << ins.error;
  EXPECT_EQ(ins.rowsAffected, 1u);

  auto sel = exec("SELECT * FROM users WHERE id = ?", {std::int64_t{1}});
  ASSERT_TRUE(sel.ok) << sel.error;
  ASSERT_EQ(sel.rows.size(), 1u);
  EXPECT_EQ(std::get<std::string>(sel.rows[0].at(2)), "amy");
  EXPECT_GT(sel.latencyMicros, 0.0);
}

TEST_F(SqlExecution, IndexLookupFindsAllMatches) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(exec("INSERT INTO users VALUES (?, ?, ?)",
                     {std::int64_t{i}, std::int64_t{i % 3},
                      std::string("u" + std::to_string(i))})
                    .ok);
  }
  auto sel = exec("SELECT * FROM users WHERE team_id = ?", {std::int64_t{1}});
  ASSERT_TRUE(sel.ok);
  EXPECT_EQ(sel.rows.size(), 3u);  // ids 1, 4, 7
}

TEST_F(SqlExecution, ResidualFilterApplies) {
  exec("INSERT INTO users VALUES (1, 10, 'amy')");
  exec("INSERT INTO users VALUES (2, 10, 'bob')");
  auto sel = exec("SELECT * FROM users WHERE team_id = 10 AND name = 'bob'");
  ASSERT_TRUE(sel.ok);
  ASSERT_EQ(sel.rows.size(), 1u);
  EXPECT_EQ(valueToInt(sel.rows[0].at(0)), 2);
}

TEST_F(SqlExecution, JoinPointGet) {
  exec("INSERT INTO teams VALUES (10, 'infra')");
  exec("INSERT INTO users VALUES (1, 10, 'amy')");
  auto sel = exec(
      "SELECT name, title FROM users JOIN teams ON users.team_id = teams.id "
      "WHERE id = 1");
  ASSERT_TRUE(sel.ok) << sel.error;
  ASSERT_EQ(sel.rows.size(), 1u);
  EXPECT_EQ(std::get<std::string>(sel.rows[0].at(0)), "amy");
  EXPECT_EQ(std::get<std::string>(sel.rows[0].at(1)), "infra");
}

TEST_F(SqlExecution, JoinInnerSemanticsDropUnmatched) {
  exec("INSERT INTO users VALUES (1, 99, 'orphan')");  // no team 99
  auto sel = exec(
      "SELECT name, title FROM users JOIN teams ON users.team_id = teams.id "
      "WHERE id = 1");
  ASSERT_TRUE(sel.ok);
  EXPECT_TRUE(sel.rows.empty());
}

TEST_F(SqlExecution, UpdateMaintainsSecondaryIndex) {
  exec("INSERT INTO users VALUES (1, 10, 'amy')");
  auto upd = exec("UPDATE users SET team_id = ? WHERE id = ?",
                  {std::int64_t{20}, std::int64_t{1}});
  ASSERT_TRUE(upd.ok);
  EXPECT_EQ(upd.rowsAffected, 1u);

  auto oldTeam = exec("SELECT * FROM users WHERE team_id = 10");
  EXPECT_TRUE(oldTeam.rows.empty());
  auto newTeam = exec("SELECT * FROM users WHERE team_id = 20");
  EXPECT_EQ(newTeam.rows.size(), 1u);
}

TEST_F(SqlExecution, DeleteRemovesRowAndIndex) {
  exec("INSERT INTO users VALUES (1, 10, 'amy')");
  auto del = exec("DELETE FROM users WHERE id = 1");
  ASSERT_TRUE(del.ok);
  EXPECT_EQ(del.rowsAffected, 1u);
  EXPECT_TRUE(exec("SELECT * FROM users WHERE id = 1").rows.empty());
  EXPECT_TRUE(exec("SELECT * FROM users WHERE team_id = 10").rows.empty());
}

TEST_F(SqlExecution, LimitBoundsScan) {
  for (int i = 0; i < 20; ++i) {
    exec("INSERT INTO users VALUES (?, 1, 'x')", {std::int64_t{i}});
  }
  auto sel = exec("SELECT * FROM users LIMIT 5");
  ASSERT_TRUE(sel.ok);
  EXPECT_EQ(sel.rows.size(), 5u);
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
  exec("INSERT INTO users VALUES (1, 10, 'amy')");
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
  // `team` starts unindexed: the first run scans the whole table.
  const auto makeMembers = [&](std::vector<std::size_t> indexed) {
    db_.createTable(TableSchema("members",
                                {Column{"id", ColumnType::kInt},
                                 Column{"team", ColumnType::kInt}},
                                0, std::move(indexed)));
    for (std::int64_t id = 0; id < 30; ++id) {
      db_.loadRow("members", Row{{id, id % 10}});
    }
  };
  const auto kvRowsCharged = [&] {
    const double before =
        kvTier_.aggregateCpu().micros(sim::CpuComponent::kKvExecution);
    const auto sel =
        exec("SELECT * FROM members WHERE team = ?", {std::int64_t{3}});
    EXPECT_TRUE(sel.ok) << sel.error;
    EXPECT_EQ(sel.rows.size(), 3u);
    return kvTier_.aggregateCpu().micros(sim::CpuComponent::kKvExecution) -
           before;
  };
  makeMembers({});
  const double scanned = kvRowsCharged();
  makeMembers({1});  // same text, now with an index on `team`
  const double looked = kvRowsCharged();
  // Index lookup: 3 index entries + 3 rows, against all 30 rows.
  EXPECT_LT(looked * 2, scanned);
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
  exec("INSERT INTO users VALUES (1, 10, 'amy')");
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
