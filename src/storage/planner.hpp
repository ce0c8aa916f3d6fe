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

/// `column = value` with the column resolved against the table's schema.
struct BoundCondition {
  std::size_t columnIndex = 0;
  Operand rhs;
};

enum class AccessPath : std::uint8_t { kPointGet, kIndexLookup, kTableScan };

struct TableAccessPlan {
  const TableSchema* schema = nullptr;
  AccessPath path = AccessPath::kTableScan;
  std::optional<BoundCondition> key;    // drives point get / index lookup
  std::vector<BoundCondition> residual;  // re-checked on each row
};

struct QueryPlan {
  StatementKind kind = StatementKind::kSelect;
  TableAccessPlan primary;  // the rows the statement reads or rewrites
  std::vector<BoundCondition> assignments;  // UPDATE's SET list
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

  /// A PlanError for an unknown table or column, and for an UPDATE that
  /// sets the primary-key column.
  [[nodiscard]] PlanResult plan(const Statement& statement) const;

 private:
  CatalogLookup catalog_;
};

}  // namespace dcache::storage
