// Plan executor: runs a QueryPlan against the database's engine-level API.
// Every row touched flows through Database::engineGet/Put/Delete, so all
// CPU, block-cache, disk and replication costs are charged where the work
// happens — the executor adds no accounting of its own.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "storage/database.hpp"
#include "storage/planner.hpp"
#include "storage/row.hpp"

namespace dcache::storage {

class Executor {
 public:
  /// `keyBuf` holds each key the executor builds, one at a time.
  Executor(Database& db, std::string& keyBuf) : db_(&db), keyBuf_(&keyBuf) {}

  struct Outcome {
    bool ok = false;
    std::string error;
    std::vector<Row> rows;           // SELECT results (projected)
    std::uint64_t rowsAffected = 0;  // writes
  };

  Outcome run(const QueryPlan& plan, std::span<const Value> params,
              ExecTrace& trace);

 private:
  struct FetchedRow {
    std::string pk;
    Row row;
  };

  /// Resolve a bound RHS into a typed Value for the given column.
  [[nodiscard]] static std::optional<Value> resolve(const BoundRhs& rhs,
                                                    std::span<const Value> params,
                                                    ColumnType type);

  /// Fetch rows of the primary table per the access plan (residual filters
  /// applied, limit honoured when there is no join).
  bool fetchPrimary(const TableAccessPlan& access, std::span<const Value> params,
                    std::optional<std::uint64_t> limit, ExecTrace& trace,
                    std::vector<FetchedRow>& out, std::string& error);

  /// Fetch right-table rows matching `key` for a join, through the same
  /// access paths as fetchPrimary.
  void fetchJoinMatches(const JoinPlan& join, const Value& key,
                        ExecTrace& trace, std::vector<FetchedRow>& out);

  bool writeRow(const TableSchema& schema, const Row& row, ExecTrace& trace);
  void deleteRowIndexes(const TableSchema& schema, const Row& row,
                        std::string_view pk, ExecTrace& trace);

  Outcome runSelect(const QueryPlan& plan, std::span<const Value> params,
                    ExecTrace& trace);
  Outcome runInsert(const QueryPlan& plan, std::span<const Value> params,
                    ExecTrace& trace);
  Outcome runUpdate(const QueryPlan& plan, std::span<const Value> params,
                    ExecTrace& trace);
  Outcome runDelete(const QueryPlan& plan, std::span<const Value> params,
                    ExecTrace& trace);

  Database* db_;
  std::string* keyBuf_;
};

}  // namespace dcache::storage
