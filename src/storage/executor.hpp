// Plan executor: runs a QueryPlan against the database's engine-level API.
// Every row touched flows through Database::engineGet/Put/Delete, so all
// CPU, block-cache, disk and replication costs are charged where the work
// happens — the executor adds no accounting of its own.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rpc/wire.hpp"
#include "storage/database.hpp"
#include "storage/planner.hpp"
#include "storage/row.hpp"

namespace dcache::storage {

class Executor {
 public:
  /// `keyBuf` holds each key the executor builds, one at a time,
  /// `matchBuf` the primary keys an index lookup matched and `rowBuf` each
  /// row an UPDATE rewrites, encoded. All are reused across statements.
  Executor(Database& db, std::string& keyBuf,
           std::vector<std::string_view>& matchBuf, rpc::WireEncoder& rowBuf)
      : db_(&db), keyBuf_(&keyBuf), matchBuf_(&matchBuf), rowBuf_(&rowBuf) {}

  struct Outcome {
    bool ok = false;
    std::string error;
    std::vector<Row> rows;           // SELECT results, whole rows
    std::uint64_t rowsAffected = 0;  // UPDATE
  };

  Outcome run(const QueryPlan& plan, std::span<const Value> params,
              ExecTrace& trace);

 private:
  /// Resolve an operand into a typed Value for the given column.
  [[nodiscard]] static std::optional<Value> resolve(const Operand& rhs,
                                                    std::span<const Value> params,
                                                    ColumnType type);

  /// Append the rows the access plan selects to `out`, residual filters
  /// applied.
  bool fetchRows(const TableAccessPlan& access, std::span<const Value> params,
                 ExecTrace& trace, std::vector<Row>& out, std::string& error);

  bool writeRow(const TableSchema& schema, const Row& row, ExecTrace& trace);

  Outcome runUpdate(const QueryPlan& plan, std::span<const Value> params,
                    ExecTrace& trace);

  Database* db_;
  std::string* keyBuf_;
  std::vector<std::string_view>* matchBuf_;
  rpc::WireEncoder* rowBuf_;
};

}  // namespace dcache::storage
