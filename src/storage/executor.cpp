#include "storage/executor.hpp"

namespace dcache::storage {
namespace {

[[nodiscard]] Value literalToValue(const std::string& literal,
                                   ColumnType type) {
  switch (type) {
    case ColumnType::kInt:
      return static_cast<std::int64_t>(
          std::strtoll(literal.c_str(), nullptr, 10));
    case ColumnType::kDouble:
      return std::strtod(literal.c_str(), nullptr);
    case ColumnType::kString:
      return literal;
  }
  return literal;
}

[[nodiscard]] Value coerce(const Value& v, ColumnType type) {
  switch (type) {
    case ColumnType::kInt:
      return valueToInt(v);
    case ColumnType::kDouble:
      if (const auto* d = std::get_if<double>(&v)) return *d;
      return static_cast<double>(valueToInt(v));
    case ColumnType::kString:
      return valueToString(v);
  }
  return v;
}

}  // namespace

std::optional<Value> Executor::resolve(const Operand& rhs,
                                       std::span<const Value> params,
                                       ColumnType type) {
  if (rhs.literal) return literalToValue(*rhs.literal, type);
  if (rhs.paramIndex >= params.size()) return std::nullopt;
  return coerce(params[rhs.paramIndex], type);
}

Executor::Outcome Executor::run(const QueryPlan& plan,
                                std::span<const Value> params,
                                ExecTrace& trace) {
  if (plan.kind == StatementKind::kUpdate) return runUpdate(plan, params, trace);
  // SELECT *: rows decode straight into the result.
  Outcome outcome;
  std::size_t used = 0;
  outcome.ok = fetchRows(plan.primary, params, trace, outcome.rows, used,
                         outcome.rowBytes, outcome.error);
  outcome.rows.resize(used);  // drops a row a residual filter rejected
  return outcome;
}

bool Executor::fetchRows(const TableAccessPlan& access,
                         std::span<const Value> params, ExecTrace& trace,
                         std::vector<Row>& out, std::size_t& used,
                         RowBytes& bytes, std::string& error) {
  const TableSchema& schema = *access.schema;

  // Residual filter evaluated against a decoded row.
  auto passesResidual = [&](const Row& row) {
    for (const BoundCondition& cond : access.residual) {
      const ColumnType type = schema.columns()[cond.columnIndex].type;
      const auto want = resolve(cond.rhs, params, type);
      if (!want || !valueEquals(row.values[cond.columnIndex], *want)) {
        return false;
      }
    }
    return true;
  };
  // Decode `stored` into the next row of `out`; it counts if it decodes,
  // holds `key` in the key column when one is given, and passes the
  // residual filters.
  auto take = [&](const ValueView& stored, const Value* key) {
    if (used == out.size()) out.emplace_back();
    Row& row = out[used];
    if (!decodeRow(schema, stored.payload, row)) return false;
    if ((key == nullptr ||
         valueEquals(row.values[access.key.columnIndex], *key)) &&
        passesResidual(row)) {
      ++used;
      bytes.encoded += stored.payload.size();
      bytes.logical += stored.size;
    }
    return true;
  };

  switch (access.path) {
    case AccessPath::kPointGet: {
      const ColumnType pkType =
          schema.columns()[schema.primaryKeyColumn()].type;
      const auto pkValue = resolve(access.key.rhs, params, pkType);
      if (!pkValue) {
        error = "missing parameter for key condition";
        return false;
      }
      const std::string pk = valueToString(*pkValue);
      const std::optional<ValueView> stored =
          db_->engineGet(Database::rowKey(*keyBuf_, schema.name(), pk), trace);
      if (!stored) return true;  // no row: empty result, not an error
      if (!take(*stored, nullptr)) {
        error = "corrupt row for pk " + pk;
        return false;
      }
      return true;
    }
    case AccessPath::kIndexLookup: {
      const Column& column = schema.columns()[access.key.columnIndex];
      const auto keyValue = resolve(access.key.rhs, params, column.type);
      if (!keyValue) {
        error = "missing parameter for index condition";
        return false;
      }
      // Collect matching primary keys from the index, then fetch rows. The
      // keys view the index's entry bytes, which no read moves.
      std::vector<std::string_view>& matched = *matchBuf_;
      matched.clear();
      const std::string_view prefix = Database::indexPrefix(
          *keyBuf_, schema.name(), column.name, valueToString(*keyValue));
      db_->indexLookup(prefix,
                       Database::indexBaseSize(schema.name(), column.name),
                       trace, [&](std::string_view pk) {
                         matched.push_back(pk);
                         return true;
                       });
      out.reserve(used + matched.size());
      // Index keys do not escape '/', so under value "a" the lookup also
      // meets the entry of value "a/b" and key "c", which reads as key
      // "b/c": that row is fetched and charged, then left out unless it
      // holds the value.
      for (const std::string_view pk : matched) {
        const std::optional<ValueView> stored = db_->engineGet(
            Database::rowKey(*keyBuf_, schema.name(), pk), trace);
        if (stored) take(*stored, &*keyValue);  // else an entry without its row
      }
      return true;
    }
  }
  error = "unknown access path";
  return false;
}

bool Executor::writeRow(const TableSchema& schema, const Row& row,
                        ExecTrace& trace) {
  const std::string pk =
      valueToString(row.values[schema.primaryKeyColumn()]);
  if (!db_->enginePut(Database::rowKey(*keyBuf_, schema.name(), pk),
                      Database::rowValue(schema, row, *rowBuf_),
                      trace)) {
    return false;
  }
  for (const std::size_t col : schema.indexedColumns()) {
    db_->chargeIndexRePut(
        Database::indexKey(*keyBuf_, schema.name(), schema.columns()[col].name,
                           valueToString(row.values[col]), pk),
        trace);
  }
  return true;
}

Executor::Outcome Executor::runUpdate(const QueryPlan& plan,
                                      std::span<const Value> params,
                                      ExecTrace& trace) {
  Outcome outcome;
  const TableSchema& schema = *plan.primary.schema;
  std::vector<Row>& targets = *updateBuf_;
  std::size_t used = 0;
  RowBytes read;
  if (!fetchRows(plan.primary, params, trace, targets, used, read,
                 outcome.error)) {
    return outcome;
  }
  for (Row& target : std::span(targets).first(used)) {
    // The planner rejects a SET of the key or of an indexed column, so the
    // row keeps its key and its index entries.
    for (const auto& [col, rhs] : plan.assignments) {
      const auto value = resolve(rhs, params, schema.columns()[col].type);
      if (!value) {
        outcome.error = "missing parameter in SET";
        return outcome;
      }
      target.values[col] = *value;
    }
    if (writeRow(schema, target, trace)) {
      ++outcome.rowsAffected;
    }
  }
  outcome.ok = true;
  return outcome;
}

}  // namespace dcache::storage
