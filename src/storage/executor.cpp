#include "storage/executor.hpp"

#include <algorithm>

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
  outcome.ok = fetchRows(plan.primary, params, trace, outcome.rows,
                         outcome.error);
  return outcome;
}

bool Executor::fetchRows(const TableAccessPlan& access,
                         std::span<const Value> params, ExecTrace& trace,
                         std::vector<Row>& out, std::string& error) {
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

  switch (access.path) {
    case AccessPath::kPointGet: {
      const ColumnType pkType =
          schema.columns()[schema.primaryKeyColumn()].type;
      const auto pkValue = resolve(access.key->rhs, params, pkType);
      if (!pkValue) {
        error = "missing parameter for key condition";
        return false;
      }
      const std::string pk = valueToString(*pkValue);
      const std::optional<ValueView> stored =
          db_->engineGet(Database::rowKey(*keyBuf_, schema.name(), pk), trace);
      if (!stored) return true;  // no row: empty result, not an error
      auto row = decodeRow(schema, stored->payload);
      if (!row) {
        error = "corrupt row for pk " + pk;
        return false;
      }
      if (passesResidual(*row)) out.push_back(std::move(*row));
      return true;
    }
    case AccessPath::kIndexLookup: {
      const Column& column = schema.columns()[access.key->columnIndex];
      const auto keyValue = resolve(access.key->rhs, params, column.type);
      if (!keyValue) {
        error = "missing parameter for index condition";
        return false;
      }
      // Collect matching primary keys from the index, then fetch rows. The
      // keys view the engines' key bytes, which never move.
      std::vector<std::string_view>& matched = *matchBuf_;
      matched.clear();
      const std::string value = valueToString(*keyValue);
      const std::string_view prefix =
          Database::indexPrefix(*keyBuf_, schema.name(), column.name, value);
      // Through the index's own order: every key of t/<table>/i/<column>/.
      const std::size_t base = prefix.size() - value.size() - 1;
      db_->engineScanPrefix(prefix, base, trace,
                            [&](std::string_view key, const ValueView&) {
                              matched.push_back(key.substr(prefix.size()));
                              return true;
                            });
      out.reserve(out.size() + matched.size());
      for (const std::string_view pk : matched) {
        const std::optional<ValueView> stored = db_->engineGet(
            Database::rowKey(*keyBuf_, schema.name(), pk), trace);
        if (!stored) continue;  // an index entry without its row
        auto row = decodeRow(schema, stored->payload);
        if (row && passesResidual(*row)) out.push_back(std::move(*row));
      }
      return true;
    }
    case AccessPath::kTableScan: {
      const std::string_view prefix =
          Database::rowPrefix(*keyBuf_, schema.name());
      bool corrupt = false;
      db_->engineScanPrefix(
          prefix, prefix.size(), trace,
          [&](std::string_view, const ValueView& stored) {
            auto row = decodeRow(schema, stored.payload);
            if (!row) {
              corrupt = true;
              return false;
            }
            if (passesResidual(*row)) out.push_back(std::move(*row));
            return true;
          });
      if (corrupt) {
        error = "corrupt row during scan of " + schema.name();
        return false;
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
    db_->enginePut(
        Database::indexKey(*keyBuf_, schema.name(), schema.columns()[col].name,
                           valueToString(row.values[col]), pk),
        StoredValue::sized(0), trace);
  }
  return true;
}

Executor::Outcome Executor::runUpdate(const QueryPlan& plan,
                                      std::span<const Value> params,
                                      ExecTrace& trace) {
  Outcome outcome;
  const TableSchema& schema = *plan.primary.schema;
  std::vector<Row> targets;
  if (!fetchRows(plan.primary, params, trace, targets, outcome.error)) {
    return outcome;
  }
  for (Row& target : targets) {
    // The planner rejects a SET of the key, so the key stays the row's.
    const std::string pk =
        valueToString(target.values[schema.primaryKeyColumn()]);
    // Remove index entries for columns about to change, then rewrite.
    for (const auto& [col, rhs] : plan.assignments) {
      const auto value = resolve(rhs, params, schema.columns()[col].type);
      if (!value) {
        outcome.error = "missing parameter in SET";
        return outcome;
      }
      if (schema.hasIndexOn(col) && !valueEquals(target.values[col], *value)) {
        db_->engineDelete(
            Database::indexKey(*keyBuf_, schema.name(),
                               schema.columns()[col].name,
                               valueToString(target.values[col]), pk),
            trace);
      }
      target.values[col] = *value;
    }
    if (writeRow(schema, target, trace)) ++outcome.rowsAffected;
  }
  outcome.ok = true;
  return outcome;
}

}  // namespace dcache::storage
