// Recursive-descent parser for the SQL subset. Grammar (case-insensitive
// keywords, `?` positional parameters, single-quoted string literals):
//
//   select := SELECT cols FROM ident [JOIN ident ON qcol = qcol]
//             [WHERE cond (AND cond)*] [LIMIT int]
//   insert := INSERT INTO ident VALUES ( value (, value)* )
//   update := UPDATE ident SET ident = value (, ident = value)*
//             [WHERE cond (AND cond)*]
//   delete := DELETE FROM ident [WHERE cond (AND cond)*]
//   cond   := qcol = value        qcol := ident | ident.ident
//   value  := ? | int | 'string'
//   cols   := * | ident (, ident)*
//
// A statement may end in one ';' and nothing may follow it. An unterminated
// string literal is an error.
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
