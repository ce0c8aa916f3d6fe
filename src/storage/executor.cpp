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

std::optional<Value> Executor::resolve(const BoundRhs& rhs,
                                       std::span<const Value> params,
                                       ColumnType type) {
  if (rhs.literal) return literalToValue(*rhs.literal, type);
  if (rhs.paramIndex >= params.size()) return std::nullopt;
  return coerce(params[rhs.paramIndex], type);
}

Executor::Outcome Executor::run(const QueryPlan& plan,
                                std::span<const Value> params,
                                ExecTrace& trace) {
  switch (plan.kind) {
    case StatementKind::kSelect: return runSelect(plan, params, trace);
    case StatementKind::kInsert: return runInsert(plan, params, trace);
    case StatementKind::kUpdate: return runUpdate(plan, params, trace);
    case StatementKind::kDelete: return runDelete(plan, params, trace);
  }
  return Outcome{false, "unknown plan kind", {}, 0};
}

bool Executor::fetchPrimary(const TableAccessPlan& access,
                            std::span<const Value> params,
                            std::optional<std::uint64_t> limit,
                            ExecTrace& trace, std::vector<Row>& out,
                            std::vector<std::string>* pks,
                            std::string& error) {
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
  auto atLimit = [&] { return limit && out.size() >= *limit; };
  auto add = [&](std::string_view pk, Row&& row) {
    out.push_back(std::move(row));
    if (pks) pks->emplace_back(pk);
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
      if (passesResidual(*row)) add(pk, std::move(*row));
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
        if (atLimit()) break;
        const std::optional<ValueView> stored = db_->engineGet(
            Database::rowKey(*keyBuf_, schema.name(), pk), trace);
        if (!stored) continue;  // index entry raced a delete
        auto row = decodeRow(schema, stored->payload);
        if (row && passesResidual(*row)) add(pk, std::move(*row));
      }
      return true;
    }
    case AccessPath::kTableScan: {
      const std::string_view prefix =
          Database::rowPrefix(*keyBuf_, schema.name());
      bool corrupt = false;
      db_->engineScanPrefix(
          prefix, prefix.size(), trace,
          [&](std::string_view key, const ValueView& stored) {
            if (atLimit()) return false;
            auto row = decodeRow(schema, stored.payload);
            if (!row) {
              corrupt = true;
              return false;
            }
            if (passesResidual(*row)) {
              add(key.substr(prefix.size()), std::move(*row));
            }
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

void Executor::fetchJoinMatches(const JoinPlan& join, const Value& key,
                                ExecTrace& trace, std::vector<Row>& out) {
  // The join key binds like a WHERE parameter on the right table's column.
  const BoundCondition cond{join.rightColumn, BoundRhs{std::nullopt, 0}};
  TableAccessPlan access{join.schema, join.path, std::nullopt, {}};
  if (join.path == AccessPath::kTableScan) {
    access.residual.push_back(cond);
  } else {
    access.key = cond;
  }
  std::string error;  // a corrupt right row just ends the matches
  fetchPrimary(access, std::span(&key, 1), std::nullopt, trace, out, nullptr,
               error);
}

Executor::Outcome Executor::runSelect(const QueryPlan& plan,
                                      std::span<const Value> params,
                                      ExecTrace& trace) {
  Outcome outcome;
  auto project = [&](const Row& left, const Row* right) {
    Row out;
    out.values.reserve(plan.projection.size());
    for (const ProjectionItem& item : plan.projection) {
      if (item.fromJoin) {
        out.values.push_back(right ? right->values[item.column]
                                   : Value{std::string{}});
      } else {
        out.values.push_back(left.values[item.column]);
      }
    }
    return out;
  };

  if (!plan.join) {
    // Rows decode straight into the result; SELECT * keeps them whole.
    if (!fetchPrimary(plan.primary, params, plan.limit, trace, outcome.rows,
                      nullptr, outcome.error)) {
      return outcome;
    }
    if (!plan.projection.empty()) {
      for (Row& row : outcome.rows) row = project(row, nullptr);
    }
    outcome.ok = true;
    return outcome;
  }

  // With a join the limit applies to joined output, so fetch unbounded.
  std::vector<Row> primary;
  if (!fetchPrimary(plan.primary, params, std::nullopt, trace, primary,
                    nullptr, outcome.error)) {
    return outcome;
  }
  for (const Row& left : primary) {
    if (plan.limit && outcome.rows.size() >= *plan.limit) break;
    std::vector<Row> matches;
    fetchJoinMatches(*plan.join, left.values[plan.join->leftColumn], trace,
                     matches);
    for (const Row& right : matches) {
      if (plan.limit && outcome.rows.size() >= *plan.limit) break;
      outcome.rows.push_back(plan.projection.empty() ? left
                                                     : project(left, &right));
    }
  }
  outcome.ok = true;
  return outcome;
}

bool Executor::writeRow(const TableSchema& schema, const Row& row,
                        ExecTrace& trace) {
  const std::string pk =
      valueToString(row.values[schema.primaryKeyColumn()]);
  StoredValue stored = StoredValue::of(encodeRow(schema, row));
  stored.size += declaredPayloadBytes(schema, row);
  if (!db_->enginePut(Database::rowKey(*keyBuf_, schema.name(), pk),
                      std::move(stored), trace)) {
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

void Executor::deleteRowIndexes(const TableSchema& schema, const Row& row,
                                std::string_view pk, ExecTrace& trace) {
  for (const std::size_t col : schema.indexedColumns()) {
    db_->engineDelete(
        Database::indexKey(*keyBuf_, schema.name(), schema.columns()[col].name,
                           valueToString(row.values[col]), pk),
        trace);
  }
}

Executor::Outcome Executor::runInsert(const QueryPlan& plan,
                                      std::span<const Value> params,
                                      ExecTrace& trace) {
  Outcome outcome;
  const TableSchema& schema = *plan.primary.schema;
  Row row;
  row.values.reserve(schema.columnCount());
  for (std::size_t c = 0; c < plan.insertValues.size(); ++c) {
    const auto& spec = plan.insertValues[c];
    const auto value =
        resolve(BoundRhs{spec.literal, spec.paramIndex}, params,
                schema.columns()[c].type);
    if (!value) {
      outcome.error = "missing parameter in INSERT";
      return outcome;
    }
    row.values.push_back(*value);
  }
  if (!writeRow(schema, row, trace)) {
    outcome.error = "write conflict";
    return outcome;
  }
  outcome.ok = true;
  outcome.rowsAffected = 1;
  return outcome;
}

Executor::Outcome Executor::runUpdate(const QueryPlan& plan,
                                      std::span<const Value> params,
                                      ExecTrace& trace) {
  Outcome outcome;
  const TableSchema& schema = *plan.primary.schema;
  std::vector<Row> targets;
  std::vector<std::string> pks;
  if (!fetchPrimary(plan.primary, params, std::nullopt, trace, targets, &pks,
                    outcome.error)) {
    return outcome;
  }
  for (std::size_t t = 0; t < targets.size(); ++t) {
    Row& target = targets[t];
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
                               valueToString(target.values[col]), pks[t]),
            trace);
      }
      target.values[col] = *value;
    }
    if (writeRow(schema, target, trace)) ++outcome.rowsAffected;
  }
  outcome.ok = true;
  return outcome;
}

Executor::Outcome Executor::runDelete(const QueryPlan& plan,
                                      std::span<const Value> params,
                                      ExecTrace& trace) {
  Outcome outcome;
  const TableSchema& schema = *plan.primary.schema;
  std::vector<Row> targets;
  std::vector<std::string> pks;
  if (!fetchPrimary(plan.primary, params, std::nullopt, trace, targets, &pks,
                    outcome.error)) {
    return outcome;
  }
  for (std::size_t t = 0; t < targets.size(); ++t) {
    deleteRowIndexes(schema, targets[t], pks[t], trace);
    if (db_->engineDelete(Database::rowKey(*keyBuf_, schema.name(), pks[t]),
                          trace)) {
      ++outcome.rowsAffected;
    }
  }
  outcome.ok = true;
  return outcome;
}

}  // namespace dcache::storage
