// Recursive-descent parser for the two statements a simulated path issues.
// Grammar (case-insensitive keywords, `?` positional parameters,
// single-quoted string literals):
//
//   select := SELECT * FROM ident [WHERE cond (AND cond)*]
//   update := UPDATE ident SET cond (, cond)* [WHERE cond (AND cond)*]
//   cond   := ident = value
//   value  := ? | int | 'string'
//
// Everything else is a ParseError: joins, column lists, table-qualified
// columns, LIMIT, INSERT and DELETE included. A statement may end in one
// ';' and nothing may follow it. An unterminated string literal is an
// error. The WHERE is optional to the grammar only: the planner refuses a
// statement without a primary-key or indexed-column equality.
#pragma once

#include <string>
#include <string_view>
#include <variant>

#include "storage/sql_ir.hpp"

namespace dcache::storage {

struct ParseError {
  std::string message;
  std::size_t position = 0;
};

using ParseResult = std::variant<Statement, ParseError>;

[[nodiscard]] ParseResult parseSql(std::string_view sql);

/// Convenience for tests: parse-or-throw.
[[nodiscard]] Statement parseSqlOrThrow(std::string_view sql);

}  // namespace dcache::storage
