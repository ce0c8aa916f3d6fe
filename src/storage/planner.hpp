// Query planner: statement IR + schema catalog -> executable plan.
// Access-path selection is deliberately simple and deterministic — primary
// key equality wins, then a secondary-index equality, then a full scan —
// because what the cost study needs is a *faithful* work profile per query
// shape, not a cost-based optimizer.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "storage/schema.hpp"
#include "storage/sql_ir.hpp"

namespace dcache::storage {

/// Right-hand side of a condition/assignment after planning: either an
/// inline literal or a reference to a positional parameter.
struct BoundRhs {
  std::optional<std::string> literal;
  std::size_t paramIndex = 0;
};

struct BoundCondition {
  std::size_t columnIndex = 0;
  BoundRhs rhs;
};

enum class AccessPath : std::uint8_t { kPointGet, kIndexLookup, kTableScan };

struct TableAccessPlan {
  const TableSchema* schema = nullptr;
  AccessPath path = AccessPath::kTableScan;
  std::optional<BoundCondition> key;    // drives point get / index lookup
  std::vector<BoundCondition> residual;  // re-checked on each row
};

struct JoinPlan {
  const TableSchema* schema = nullptr;  // right table
  std::size_t leftColumn = 0;           // value taken from each primary row
  std::size_t rightColumn = 0;          // matched on the right table
  AccessPath path = AccessPath::kTableScan;  // chosen from rightColumn
};

struct ProjectionItem {
  bool fromJoin = false;
  std::size_t column = 0;
};

struct QueryPlan {
  StatementKind kind = StatementKind::kSelect;
  TableAccessPlan primary;
  std::optional<JoinPlan> join;
  std::vector<ProjectionItem> projection;  // empty = all primary columns
  std::optional<std::uint64_t> limit;

  // INSERT payload.
  std::vector<InsertStatement::ValueSpec> insertValues;
  // UPDATE assignments: (column index, rhs).
  std::vector<std::pair<std::size_t, BoundRhs>> assignments;
};

struct PlanError {
  std::string message;
};

using PlanResult = std::variant<QueryPlan, PlanError>;

class Planner {
 public:
  using CatalogLookup =
      std::function<const TableSchema*(std::string_view)>;

  explicit Planner(CatalogLookup catalog) : catalog_(std::move(catalog)) {}

  [[nodiscard]] PlanResult plan(const Statement& statement) const;

 private:
  [[nodiscard]] PlanResult planSelect(const Statement& statement) const;
  [[nodiscard]] PlanResult planInsert(const Statement& statement) const;
  [[nodiscard]] PlanResult planUpdate(const Statement& statement) const;
  [[nodiscard]] PlanResult planDelete(const Statement& statement) const;

  /// Choose the access path for `table` given WHERE conditions that apply
  /// to it; the rest become residual filters.
  [[nodiscard]] std::optional<TableAccessPlan> planAccess(
      const TableSchema& schema, const std::vector<Condition>& where,
      std::string_view tableName) const;
  /// Look up `table` and plan its access into `plan.primary`.
  [[nodiscard]] std::optional<PlanError> planPrimary(
      const std::string& table, const std::vector<Condition>& where,
      QueryPlan& plan) const;

  CatalogLookup catalog_;
};

}  // namespace dcache::storage
