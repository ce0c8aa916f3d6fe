#include "storage/planner.hpp"

#include <algorithm>

namespace dcache::storage {
namespace {

/// Bind `where` to `schema` and choose the access path; the conditions the
/// path does not consume become residual filters.
[[nodiscard]] PlanResult planAccess(const TableSchema& schema,
                                    const std::vector<Condition>& where) {
  std::vector<BoundCondition> bound;
  for (const Condition& cond : where) {
    const auto col = schema.columnIndex(cond.column);
    if (!col) return PlanError{"unknown column in WHERE of " + schema.name()};
    bound.push_back(BoundCondition{*col, cond.value});
  }

  // Primary key equality beats any secondary-index equality; the other
  // conditions stay residual.
  QueryPlan plan;
  plan.primary.schema = &schema;
  auto it = std::find_if(bound.begin(), bound.end(), [&](const auto& c) {
    return c.columnIndex == schema.primaryKeyColumn();
  });
  if (it == bound.end()) {
    it = std::find_if(bound.begin(), bound.end(), [&](const auto& c) {
      return schema.hasIndexOn(c.columnIndex);
    });
    plan.primary.path = AccessPath::kIndexLookup;
  }
  if (it == bound.end()) {
    return PlanError{"no primary-key or indexed-column equality in WHERE of " +
                     schema.name()};
  }
  plan.primary.key = *it;
  bound.erase(it);
  plan.primary.residual = std::move(bound);
  return plan;
}

}  // namespace

PlanResult Planner::plan(const Statement& statement) const {
  const TableSchema* schema = catalog_(statement.table);
  if (!schema) return PlanError{"unknown table: " + statement.table};
  PlanResult planned = planAccess(*schema, statement.where);
  auto* plan = std::get_if<QueryPlan>(&planned);
  if (plan == nullptr) return planned;
  plan->kind = statement.kind;
  for (const Condition& assignment : statement.set) {
    const auto col = schema->columnIndex(assignment.column);
    if (!col) return PlanError{"unknown column: " + assignment.column};
    // A new key would need the row moved, and a new indexed value its
    // entry moved, not the row rewritten in place.
    if (*col == schema->primaryKeyColumn()) {
      return PlanError{"cannot SET primary key column " + assignment.column};
    }
    if (schema->hasIndexOn(*col)) {
      return PlanError{"cannot SET indexed column " + assignment.column};
    }
    plan->assignments.push_back(BoundCondition{*col, assignment.value});
  }
  return planned;
}

}  // namespace dcache::storage
