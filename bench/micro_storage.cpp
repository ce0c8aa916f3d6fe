// dcache-lint: allow-file(bench-hygiene, Google-Benchmark microbench — stdout carries wall-clock timings and can never be byte-deterministic, so it is excluded from the determinism diff and golden gates)
// Micro-benchmarks for the storage engine: SQL parse/plan, end-to-end
// statement execution, the catalog bulk load and the first index lookups
// after it, getTable on the warm catalog, raw KV engine operations and the
// row codec. The parse/plan numbers here are the *host* cost of our mini
// engine; the simulated TiDB front-end charges the calibrated constants
// documented in core/calibration.hpp instead.
#include <benchmark/benchmark.h>

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "richobject/assembler.hpp"
#include "richobject/catalog_store.hpp"
#include "rpc/channel.hpp"
#include "sim/tier.hpp"
#include "storage/database.hpp"
#include "storage/kv_engine.hpp"
#include "storage/sql_parser.hpp"
#include "workload/uc_trace.hpp"
#include "workload/workload.hpp"

namespace {

using namespace dcache;
using storage::Column;
using storage::ColumnType;
using storage::Row;
using storage::TableSchema;
using storage::Value;

void BM_SqlParsePointSelect(benchmark::State& state) {
  for (auto _ : state) {
    auto parsed =
        storage::parseSql("SELECT * FROM tables WHERE id = ? AND owner = ?");
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_SqlParsePointSelect);

struct DbFixture {
  DbFixture()
      : sqlTier("sql", sim::TierKind::kSqlFrontend, 1),
        kvTier("kv", sim::TierKind::kKvStorage, 3),
        client("client", sim::TierKind::kClient),
        channel(network, rpc::SerializationModel{}),
        db(sqlTier, kvTier, channel) {
    db.createTable(TableSchema("users",
                               {Column{"id", ColumnType::kInt},
                                Column{"team", ColumnType::kInt},
                                Column{"name", ColumnType::kString}},
                               0, {1}));
    for (std::int64_t i = 0; i < 10000; ++i) {
      db.loadRow("users", Row{{i, i % 100, "user_" + std::to_string(i)}});
    }
  }
  sim::NetworkModel network;
  sim::Tier sqlTier;
  sim::Tier kvTier;
  sim::Node client;
  rpc::Channel channel;
  storage::Database db;
};

void BM_ExecPointSelect(benchmark::State& state) {
  DbFixture fixture;
  std::int64_t id = 0;
  for (auto _ : state) {
    const Value params[] = {Value{id}};
    auto result =
        fixture.db.exec(fixture.client, "SELECT * FROM users WHERE id = ?",
                        params);
    benchmark::DoNotOptimize(result.rows.data());
    id = (id + 37) % 10000;
  }
}
BENCHMARK(BM_ExecPointSelect);

void BM_ExecIndexSelect(benchmark::State& state) {
  DbFixture fixture;
  std::int64_t team = 0;
  for (auto _ : state) {
    const Value params[] = {Value{team}};
    auto result = fixture.db.exec(
        fixture.client, "SELECT * FROM users WHERE team = ?", params);
    benchmark::DoNotOptimize(result.rows.data());
    team = (team + 1) % 100;
  }
}
BENCHMARK(BM_ExecIndexSelect);

void BM_ExecUpdate(benchmark::State& state) {
  DbFixture fixture;
  std::int64_t id = 0;
  for (auto _ : state) {
    const Value params[] = {Value{std::string("renamed")}, Value{id}};
    auto result = fixture.db.exec(
        fixture.client, "UPDATE users SET name = ? WHERE id = ?", params);
    benchmark::DoNotOptimize(result.rowsAffected);
    id = (id + 101) % 10000;
  }
}
BENCHMARK(BM_ExecUpdate);

/// A database of three KV nodes with uc-object's catalog schemas; after
/// `store.populate()` it holds 20K tables and their satellites: 190,085
/// rows in the engines and 189,885 entries in seven secondary indexes.
struct CatalogFixture {
  explicit CatalogFixture(const workload::UcTraceWorkload& trace)
      : sqlTier("sql", sim::TierKind::kSqlFrontend, 1),
        kvTier("kv", sim::TierKind::kKvStorage, 3),
        client("client", sim::TierKind::kClient),
        channel(network, rpc::SerializationModel{}),
        db(sqlTier, kvTier, channel),
        store(db, trace) {
    store.createSchemas();
  }
  sim::NetworkModel network;
  sim::Tier sqlTier;
  sim::Tier kvTier;
  sim::Node client;
  rpc::Channel channel;
  storage::Database db;
  richobject::CatalogStore store;
};

// uc-object's catalog load: 20K tables and their satellites bulk-loaded
// into a fresh database of three KV nodes, about half of a uc-object
// cell's set-up. Rows go into the engines and index entries into the
// unsorted tails of their indexes. Building and destroying the database
// run with timing paused.
void BM_CatalogPopulate(benchmark::State& state) {
  workload::UcTraceConfig config;
  config.numTables = 20000;
  const workload::UcTraceWorkload trace(config);
  for (auto _ : state) {
    state.PauseTiming();
    auto fixture = std::make_unique<CatalogFixture>(trace);
    state.ResumeTiming();
    fixture->store.populate();
    state.PauseTiming();
    fixture.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_CatalogPopulate)->Unit(benchmark::kMillisecond);

// The four index lookups getTable makes (privileges, constraints, lineage,
// properties), each the first lookup of its index after the bulk load, so
// each sorts its index's bulk-loaded tail. The load runs with timing
// paused.
void BM_FirstIndexLookupsAfterCatalogLoad(benchmark::State& state) {
  workload::UcTraceConfig config;
  config.numTables = 20000;
  const workload::UcTraceWorkload trace(config);
  const auto tableId = static_cast<std::uint64_t>(state.range(0));
  const Value securable{richobject::CatalogStore::tableSecurable(tableId)};
  const Value id{static_cast<std::int64_t>(tableId)};
  const std::pair<const char*, const Value*> lookups[] = {
      {"SELECT * FROM privileges WHERE securable_id = ?", &securable},
      {"SELECT * FROM constraints WHERE table_id = ?", &id},
      {"SELECT * FROM lineage WHERE table_id = ?", &id},
      {"SELECT * FROM properties WHERE table_id = ?", &id}};
  for (auto _ : state) {
    state.PauseTiming();
    auto fixture = std::make_unique<CatalogFixture>(trace);
    fixture->store.populate();
    state.ResumeTiming();
    for (const auto& [sql, param] : lookups) {
      auto result =
          fixture->db.exec(fixture->client, sql, std::span(param, 1));
      benchmark::DoNotOptimize(result.rows.data());
    }
    state.PauseTiming();
    fixture.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_FirstIndexLookupsAfterCatalogLoad)
    ->Arg(4242)
    ->Unit(benchmark::kMillisecond);

// getTable, uc-object's rich-object read: up to 8 statements, three point
// gets then up to five index lookups, for each table id the reads of a
// UcTraceWorkload stream name. The catalog of 20K tables is loaded and then
// warmed by one pass over the ids, so every index's bulk-loaded tail is
// merged and every block the ids touch is cached before the timed loop.
void BM_GetTable(benchmark::State& state) {
  workload::UcTraceConfig config;
  config.numTables = 20000;
  const workload::UcTraceWorkload trace(config);
  CatalogFixture fixture(trace);
  fixture.store.populate();
  richobject::Assembler assembler(fixture.store);
  workload::UcTraceWorkload stream(config);
  std::vector<std::uint64_t> ids;
  ids.reserve(4096);
  while (ids.size() < 4096) {
    const workload::Op op = stream.next();
    if (op.isRead()) ids.push_back(op.keyIndex);
  }
  for (const std::uint64_t id : ids) assembler.getTable(fixture.client, id);
  std::size_t next = 0;
  for (auto _ : state) {
    auto result = assembler.getTable(fixture.client, ids[next]);
    benchmark::DoNotOptimize(result.statementsIssued);
    next = (next + 1) % ids.size();
  }
}
BENCHMARK(BM_GetTable);

/// Workload key names 0 .. n - 1, built before a timed loop reads them.
std::vector<std::string> keyNames(std::uint64_t n) {
  std::vector<std::string> names;
  names.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) names.push_back(workload::keyName(i));
  return names;
}

void BM_KvReadValue(benchmark::State& state) {
  DbFixture fixture;
  const std::vector<std::string> keys = keyNames(10000);
  for (const std::string& key : keys) fixture.db.loadValue(key, 4096);
  std::size_t k = 0;
  for (auto _ : state) {
    auto result = fixture.db.readValue(fixture.client, keys[k]);
    benchmark::DoNotOptimize(result.found);
    k = (k + 37) % keys.size();
  }
}
BENCHMARK(BM_KvReadValue);

void BM_KvEngineRawGet(benchmark::State& state) {
  storage::KvEngine engine;
  const std::vector<std::string> keys = keyNames(100000);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    engine.put(keys[i], storage::StoredValue::sized(100), i + 1);
  }
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.get(keys[k]));
    k = (k + 7919) % keys.size();
  }
}
BENCHMARK(BM_KvEngineRawGet);

void BM_RowCodecRoundtrip(benchmark::State& state) {
  const TableSchema schema("t",
                           {Column{"id", ColumnType::kInt},
                            Column{"x", ColumnType::kDouble},
                            Column{"s", ColumnType::kString}},
                           0);
  const Row row{{std::int64_t{42}, 3.25, std::string(128, 's')}};
  for (auto _ : state) {
    const std::string bytes = storage::encodeRow(schema, row);
    Row back;
    benchmark::DoNotOptimize(storage::decodeRow(schema, bytes, back));
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_RowCodecRoundtrip);

}  // namespace
