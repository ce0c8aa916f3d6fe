// Statement IR produced by the SQL parser and consumed by the planner. It
// has one shape for the two statements a simulated path issues: getTable's
// `SELECT * FROM t WHERE c = ?` and updateTable's
// `UPDATE t SET c = ? WHERE c = ?`. Values are literals or positional `?`
// parameters bound at execution.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace dcache::storage {

/// The right-hand side of `column = value`: a literal or a `?` parameter.
struct Operand {
  std::optional<std::string> literal;  // set when the value is a literal
  std::size_t paramIndex = 0;          // valid when literal is empty
};

/// `column = value`: a term of a WHERE conjunction or a SET assignment.
struct Condition {
  std::string column;
  Operand value;
};

enum class StatementKind : std::uint8_t { kSelect, kUpdate };

/// SELECT * FROM table [WHERE ...], or UPDATE table SET ... [WHERE ...].
struct Statement {
  StatementKind kind = StatementKind::kSelect;
  std::string table;
  std::vector<Condition> where;
  std::vector<Condition> set;  // UPDATE's assignments; empty for SELECT
  std::size_t paramCount = 0;  // number of `?` placeholders
};

}  // namespace dcache::storage
