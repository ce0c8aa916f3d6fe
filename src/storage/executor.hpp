// Plan executor: runs a QueryPlan against the database's engine-level API.
// A SELECT reads by primary key or through one index lookup; an UPDATE
// reads its rows the same way and rewrites their bytes, never an index
// entry (the planner refuses a SET of an indexed column). Every row touched
// flows through Database::engineGet/enginePut and every index entry through
// indexLookup or chargeIndexRePut, so all CPU, block-cache, disk and
// replication costs are charged where the work happens — the executor adds
// no accounting of its own.
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
  /// `matchBuf` the primary keys an index lookup matched, `rowBuf` each
  /// row an UPDATE rewrites, encoded, and `updateBuf` the rows an UPDATE
  /// rewrites, decoded. All are reused across statements.
  Executor(Database& db, std::string& keyBuf,
           std::vector<std::string_view>& matchBuf, rpc::WireEncoder& rowBuf,
           std::vector<Row>& updateBuf)
      : db_(&db),
        keyBuf_(&keyBuf),
        matchBuf_(&matchBuf),
        rowBuf_(&rowBuf),
        updateBuf_(&updateBuf) {}

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

  /// Decode the rows the access plan selects into `out[used ..]`, residual
  /// filters applied, advancing `used`. Rows `out` already holds past
  /// `used` are decoded into, keeping their capacity; `out` grows only past
  /// its size.
  bool fetchRows(const TableAccessPlan& access, std::span<const Value> params,
                 ExecTrace& trace, std::vector<Row>& out, std::size_t& used,
                 std::string& error);

  /// Put `row` and charge the re-put of each of its index entries, which
  /// the statement leaves unchanged.
  bool writeRow(const TableSchema& schema, const Row& row, ExecTrace& trace);

  Outcome runUpdate(const QueryPlan& plan, std::span<const Value> params,
                    ExecTrace& trace);

  Database* db_;
  std::string* keyBuf_;
  std::vector<std::string_view>* matchBuf_;
  rpc::WireEncoder* rowBuf_;
  std::vector<Row>* updateBuf_;
};

}  // namespace dcache::storage
