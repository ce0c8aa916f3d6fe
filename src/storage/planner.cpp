#include "storage/planner.hpp"

#include <algorithm>

namespace dcache::storage {
namespace {

[[nodiscard]] BoundRhs bindRhs(const Condition& cond) {
  return BoundRhs{cond.literal, cond.paramIndex};
}

}  // namespace

PlanResult Planner::plan(const Statement& statement) const {
  switch (statement.kind) {
    case StatementKind::kSelect: return planSelect(statement);
    case StatementKind::kInsert: return planInsert(statement);
    case StatementKind::kUpdate: return planUpdate(statement);
    case StatementKind::kDelete: return planDelete(statement);
  }
  return PlanError{"unknown statement kind"};
}

std::optional<TableAccessPlan> Planner::planAccess(
    const TableSchema& schema, const std::vector<Condition>& where,
    std::string_view tableName) const {
  TableAccessPlan access;
  access.schema = &schema;

  std::vector<BoundCondition> bound;
  for (const Condition& cond : where) {
    if (!cond.table.empty() && cond.table != tableName) continue;
    const auto col = schema.columnIndex(cond.column);
    if (!col) return std::nullopt;  // unknown column
    bound.push_back(BoundCondition{*col, bindRhs(cond)});
  }

  // Primary key equality beats everything, then any secondary-index
  // equality; the other conditions stay residual.
  auto it = std::find_if(bound.begin(), bound.end(), [&](const auto& c) {
    return c.columnIndex == schema.primaryKeyColumn();
  });
  access.path = AccessPath::kPointGet;
  if (it == bound.end()) {
    it = std::find_if(bound.begin(), bound.end(), [&](const auto& c) {
      return schema.hasIndexOn(c.columnIndex);
    });
    access.path = it == bound.end() ? AccessPath::kTableScan
                                    : AccessPath::kIndexLookup;
  }
  if (it != bound.end()) {
    access.key = *it;
    bound.erase(it);
  }
  access.residual = std::move(bound);
  return access;
}

std::optional<PlanError> Planner::planPrimary(
    const std::string& table, const std::vector<Condition>& where,
    QueryPlan& plan) const {
  const TableSchema* schema = catalog_(table);
  if (!schema) return PlanError{"unknown table: " + table};
  auto access = planAccess(*schema, where, table);
  if (!access) return PlanError{"unknown column in WHERE of " + table};
  plan.primary = std::move(*access);
  return std::nullopt;
}

PlanResult Planner::planSelect(const Statement& statement) const {
  const SelectStatement& sel = statement.select;
  QueryPlan plan;
  plan.kind = StatementKind::kSelect;
  plan.limit = sel.limit;
  if (auto err = planPrimary(sel.table, sel.where, plan)) return *err;
  const TableSchema* schema = plan.primary.schema;

  const TableSchema* joinSchema = nullptr;
  if (sel.join) {
    joinSchema = catalog_(sel.join->table);
    if (!joinSchema) return PlanError{"unknown table: " + sel.join->table};
    JoinPlan join;
    join.schema = joinSchema;
    const auto left = schema->columnIndex(sel.join->leftColumn);
    const auto right = joinSchema->columnIndex(sel.join->rightColumn);
    if (!left || !right) return PlanError{"unknown join column"};
    join.leftColumn = *left;
    join.rightColumn = *right;
    if (*right == joinSchema->primaryKeyColumn()) {
      join.path = AccessPath::kPointGet;
    } else if (joinSchema->hasIndexOn(*right)) {
      join.path = AccessPath::kIndexLookup;
    } else {
      join.path = AccessPath::kTableScan;
    }
    plan.join = join;
  }

  // Projection: resolve each named column against primary first, then join.
  for (const std::string& name : sel.columns) {
    if (const auto col = schema->columnIndex(name)) {
      plan.projection.push_back(ProjectionItem{false, *col});
    } else if (joinSchema) {
      const auto jcol = joinSchema->columnIndex(name);
      if (!jcol) return PlanError{"unknown column: " + name};
      plan.projection.push_back(ProjectionItem{true, *jcol});
    } else {
      return PlanError{"unknown column: " + name};
    }
  }
  return plan;
}

PlanResult Planner::planInsert(const Statement& statement) const {
  const InsertStatement& ins = statement.insert;
  const TableSchema* schema = catalog_(ins.table);
  if (!schema) return PlanError{"unknown table: " + ins.table};
  if (ins.values.size() != schema->columnCount()) {
    return PlanError{"value count does not match column count"};
  }
  QueryPlan plan;
  plan.kind = StatementKind::kInsert;
  plan.primary.schema = schema;
  plan.insertValues = ins.values;
  return plan;
}

PlanResult Planner::planUpdate(const Statement& statement) const {
  const UpdateStatement& upd = statement.update;
  QueryPlan plan;
  plan.kind = StatementKind::kUpdate;
  if (auto err = planPrimary(upd.table, upd.where, plan)) return *err;
  for (const auto& [name, rhs] : upd.assignments) {
    const auto col = plan.primary.schema->columnIndex(name);
    if (!col) return PlanError{"unknown column: " + name};
    plan.assignments.emplace_back(*col, BoundRhs{rhs.literal, rhs.paramIndex});
  }
  return plan;
}

PlanResult Planner::planDelete(const Statement& statement) const {
  QueryPlan plan;
  plan.kind = StatementKind::kDelete;
  if (auto err = planPrimary(statement.del.table, statement.del.where, plan)) {
    return *err;
  }
  return plan;
}

}  // namespace dcache::storage
