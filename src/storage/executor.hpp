// Plan executor: runs a QueryPlan against the database's engine-level API.
// Every row touched flows through Database::engineGet/Put/Delete, so all
// CPU, block-cache, disk and replication costs are charged where the work
// happens — the executor adds no accounting of its own.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "storage/database.hpp"
#include "storage/planner.hpp"
#include "storage/row.hpp"

namespace dcache::storage {

class Executor {
 public:
  /// `keyBuf` holds each key the executor builds, one at a time, and
  /// `matchBuf` the primary keys an index lookup matched. Both are reused
  /// across statements.
  Executor(Database& db, std::string& keyBuf,
           std::vector<std::string_view>& matchBuf)
      : db_(&db), keyBuf_(&keyBuf), matchBuf_(&matchBuf) {}

  struct Outcome {
    bool ok = false;
    std::string error;
    std::vector<Row> rows;           // SELECT results (projected)
    std::uint64_t rowsAffected = 0;  // writes
  };

  Outcome run(const QueryPlan& plan, std::span<const Value> params,
              ExecTrace& trace);

 private:
  /// Resolve a bound RHS into a typed Value for the given column.
  [[nodiscard]] static std::optional<Value> resolve(const BoundRhs& rhs,
                                                    std::span<const Value> params,
                                                    ColumnType type);

  /// Append the rows of the primary table the access plan selects to `out`
  /// (residual filters applied, until `out` holds `limit` rows), and each
  /// row's primary key to `pks` when it is not null.
  bool fetchPrimary(const TableAccessPlan& access, std::span<const Value> params,
                    std::optional<std::uint64_t> limit, ExecTrace& trace,
                    std::vector<Row>& out, std::vector<std::string>* pks,
                    std::string& error);

  /// Fetch right-table rows matching `key` for a join, through the same
  /// access paths as fetchPrimary.
  void fetchJoinMatches(const JoinPlan& join, const Value& key,
                        ExecTrace& trace, std::vector<Row>& out);

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
  std::vector<std::string_view>* matchBuf_;
};

}  // namespace dcache::storage
