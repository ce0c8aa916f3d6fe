#include "storage/planner.hpp"

#include <algorithm>

namespace dcache::storage {
namespace {

/// Bind `where` to `schema` and choose the access path; the conditions the
/// path does not consume become residual filters. nullopt for an unknown
/// column.
[[nodiscard]] std::optional<TableAccessPlan> planAccess(
    const TableSchema& schema, const std::vector<Condition>& where) {
  TableAccessPlan access;
  access.schema = &schema;

  std::vector<BoundCondition> bound;
  for (const Condition& cond : where) {
    const auto col = schema.columnIndex(cond.column);
    if (!col) return std::nullopt;  // unknown column
    bound.push_back(BoundCondition{*col, cond.value});
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

}  // namespace

PlanResult Planner::plan(const Statement& statement) const {
  const TableSchema* schema = catalog_(statement.table);
  if (!schema) return PlanError{"unknown table: " + statement.table};
  auto access = planAccess(*schema, statement.where);
  if (!access) {
    return PlanError{"unknown column in WHERE of " + statement.table};
  }
  QueryPlan plan;
  plan.kind = statement.kind;
  plan.primary = std::move(*access);
  for (const Condition& assignment : statement.set) {
    const auto col = schema->columnIndex(assignment.column);
    if (!col) return PlanError{"unknown column: " + assignment.column};
    // A new key would need the row moved, not rewritten in place.
    if (*col == schema->primaryKeyColumn()) {
      return PlanError{"cannot SET primary key column " + assignment.column};
    }
    plan.assignments.push_back(BoundCondition{*col, assignment.value});
  }
  return plan;
}

}  // namespace dcache::storage
