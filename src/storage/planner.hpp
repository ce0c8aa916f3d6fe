// Query planner: statement IR + schema catalog -> executable plan.
// Access-path selection is deliberately simple and deterministic — primary
// key equality wins, then a secondary-index equality — because what the
// cost study needs is a *faithful* work profile per query shape, not a
// cost-based optimizer. Storage is reached by key only: a statement with
// neither equality in its WHERE is refused, and so is an UPDATE that sets
// an indexed column, so a statement never scans a table or rewrites an
// index entry.
#pragma once

#include <functional>
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

enum class AccessPath : std::uint8_t { kPointGet, kIndexLookup };

struct TableAccessPlan {
  const TableSchema* schema = nullptr;
  AccessPath path = AccessPath::kPointGet;
  BoundCondition key;                    // drives the point get or lookup
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

  /// A PlanError for an unknown table or column, for a WHERE with no
  /// primary-key or indexed-column equality (no WHERE included), and for an
  /// UPDATE that sets the primary-key column or an indexed column.
  [[nodiscard]] PlanResult plan(const Statement& statement) const;

 private:
  CatalogLookup catalog_;
};

}  // namespace dcache::storage
