#include "storage/sql_parser.hpp"

#include <cctype>
#include <stdexcept>

namespace dcache::storage {
namespace {

enum class TokenKind : std::uint8_t {
  kIdent,
  kNumber,
  kString,
  kSymbol,  // ( ) , = . *
  kParam,   // ?
  kEnd,
  kBad,     // unterminated string literal: no rule accepts it
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  std::size_t position = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view sql) : sql_(sql) {}

  Token next() {
    skipWhile([](unsigned char ch) { return std::isspace(ch) != 0; });
    if (pos_ >= sql_.size()) return {TokenKind::kEnd, "", pos_};
    const std::size_t start = pos_;
    const auto c = static_cast<unsigned char>(sql_[pos_++]);
    const auto text = [&] {
      return std::string(sql_.substr(start, pos_ - start));
    };
    if (c == '?') return {TokenKind::kParam, "?", start};
    if (c == '\'') {
      skipWhile([](unsigned char ch) { return ch != '\''; });
      if (pos_ == sql_.size()) return {TokenKind::kBad, text(), start};
      ++pos_;  // closing quote
      const std::string_view body = sql_.substr(start + 1, pos_ - start - 2);
      return {TokenKind::kString, std::string(body), start};
    }
    const bool negative = c == '-' && pos_ < sql_.size() &&
                          std::isdigit(static_cast<unsigned char>(sql_[pos_]));
    if (std::isdigit(c) || negative) {
      skipWhile([](unsigned char ch) { return std::isdigit(ch) || ch == '.'; });
      return {TokenKind::kNumber, text(), start};
    }
    if (std::isalpha(c) || c == '_') {
      skipWhile([](unsigned char ch) { return std::isalnum(ch) || ch == '_'; });
      return {TokenKind::kIdent, text(), start};
    }
    return {TokenKind::kSymbol, text(), start};
  }

 private:
  template <typename Pred>
  void skipWhile(Pred pred) {
    while (pos_ < sql_.size() &&
           pred(static_cast<unsigned char>(sql_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view sql_;
  std::size_t pos_ = 0;
};

[[nodiscard]] bool keywordEquals(const Token& token, std::string_view keyword) {
  if (token.kind != TokenKind::kIdent ||
      token.text.size() != keyword.size()) {
    return false;
  }
  for (std::size_t i = 0; i < keyword.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(token.text[i])) != keyword[i]) {
      return false;
    }
  }
  return true;
}

class Parser {
 public:
  explicit Parser(std::string_view sql) : lexer_(sql) { advance(); }

  ParseResult parse() {
    if (keywordEquals(current_, "SELECT")) return parseSelect();
    if (keywordEquals(current_, "INSERT")) return parseInsert();
    if (keywordEquals(current_, "UPDATE")) return parseUpdate();
    if (keywordEquals(current_, "DELETE")) return parseDelete();
    return fail("expected SELECT, INSERT, UPDATE or DELETE");
  }

 private:
  void advance() { current_ = lexer_.next(); }

  [[nodiscard]] ParseError fail(std::string message) const {
    if (current_.kind == TokenKind::kBad) message = "unterminated literal";
    return ParseError{std::move(message), current_.position};
  }

  /// Every statement ends the same way: an optional ';', then the end.
  ParseResult finish(Statement statement) {
    acceptSymbol(';');
    if (current_.kind != TokenKind::kEnd) {
      return fail("unexpected trailing tokens");
    }
    statement.paramCount = paramCount_;
    return statement;
  }

  bool accept(std::string_view keyword) {
    if (keywordEquals(current_, keyword)) {
      advance();
      return true;
    }
    return false;
  }

  bool acceptSymbol(char c) {
    if (current_.kind == TokenKind::kSymbol && current_.text.size() == 1 &&
        current_.text[0] == c) {
      advance();
      return true;
    }
    return false;
  }

  bool takeIdent(std::string& out) {
    if (current_.kind != TokenKind::kIdent) return false;
    out = current_.text;
    advance();
    return true;
  }

  /// qcol: ident | ident.ident — fills table (optional) and column.
  bool takeQualifiedColumn(std::string& table, std::string& column) {
    std::string first;
    if (!takeIdent(first)) return false;
    if (acceptSymbol('.')) {
      table = std::move(first);
      return takeIdent(column);
    }
    table.clear();
    column = std::move(first);
    return true;
  }

  /// value := ? | number | 'string'. Returns false on anything else.
  bool takeValue(std::optional<std::string>& literal, std::size_t& paramIndex) {
    if (current_.kind == TokenKind::kParam) {
      literal.reset();
      paramIndex = paramCount_++;
      advance();
      return true;
    }
    if (current_.kind == TokenKind::kNumber ||
        current_.kind == TokenKind::kString) {
      literal = current_.text;
      advance();
      return true;
    }
    return false;
  }

  /// [WHERE cond (AND cond)*]; false only for a malformed clause.
  bool parseWhere(std::vector<Condition>& where) {
    if (!accept("WHERE")) return true;
    do {
      Condition cond;
      if (!takeQualifiedColumn(cond.table, cond.column)) return false;
      if (!acceptSymbol('=')) return false;
      if (!takeValue(cond.literal, cond.paramIndex)) return false;
      where.push_back(std::move(cond));
    } while (accept("AND"));
    return true;
  }

  ParseResult parseSelect() {
    advance();  // SELECT
    Statement statement;
    statement.kind = StatementKind::kSelect;
    SelectStatement& sel = statement.select;

    if (acceptSymbol('*')) {
      sel.columns.clear();  // empty = all
    } else {
      std::string col;
      if (!takeIdent(col)) return fail("expected column list");
      sel.columns.push_back(std::move(col));
      while (acceptSymbol(',')) {
        if (!takeIdent(col)) return fail("expected column after ','");
        sel.columns.push_back(std::move(col));
      }
    }
    if (!accept("FROM")) return fail("expected FROM");
    if (!takeIdent(sel.table)) return fail("expected table name");

    if (accept("JOIN")) {
      JoinClause join;
      if (!takeIdent(join.table)) return fail("expected join table");
      if (!accept("ON")) return fail("expected ON");
      std::string leftTable;
      std::string leftColumn;
      std::string rightTable;
      std::string rightColumn;
      if (!takeQualifiedColumn(leftTable, leftColumn)) {
        return fail("expected join column");
      }
      if (!acceptSymbol('=')) return fail("expected '=' in join condition");
      if (!takeQualifiedColumn(rightTable, rightColumn)) {
        return fail("expected join column");
      }
      // Normalize so leftColumn refers to the FROM table.
      if (leftTable == join.table || rightTable == sel.table) {
        std::swap(leftColumn, rightColumn);
      }
      join.leftColumn = std::move(leftColumn);
      join.rightColumn = std::move(rightColumn);
      sel.join = std::move(join);
    }

    if (!parseWhere(sel.where)) return fail("malformed WHERE clause");
    if (accept("LIMIT")) {
      if (current_.kind != TokenKind::kNumber) return fail("expected limit");
      sel.limit = std::strtoull(current_.text.c_str(), nullptr, 10);
      advance();
    }
    return finish(std::move(statement));
  }

  ParseResult parseInsert() {
    advance();  // INSERT
    if (!accept("INTO")) return fail("expected INTO");
    Statement statement;
    statement.kind = StatementKind::kInsert;
    InsertStatement& ins = statement.insert;
    if (!takeIdent(ins.table)) return fail("expected table name");
    if (!accept("VALUES")) return fail("expected VALUES");
    if (!acceptSymbol('(')) return fail("expected '('");
    do {
      InsertStatement::ValueSpec spec;
      if (!takeValue(spec.literal, spec.paramIndex)) {
        return fail("expected value");
      }
      ins.values.push_back(std::move(spec));
    } while (acceptSymbol(','));
    if (!acceptSymbol(')')) return fail("expected ')'");
    return finish(std::move(statement));
  }

  ParseResult parseUpdate() {
    advance();  // UPDATE
    Statement statement;
    statement.kind = StatementKind::kUpdate;
    UpdateStatement& upd = statement.update;
    if (!takeIdent(upd.table)) return fail("expected table name");
    if (!accept("SET")) return fail("expected SET");
    do {
      std::string column;
      if (!takeIdent(column)) return fail("expected column in SET");
      if (!acceptSymbol('=')) return fail("expected '='");
      Condition rhs;
      if (!takeValue(rhs.literal, rhs.paramIndex)) {
        return fail("expected value in SET");
      }
      upd.assignments.emplace_back(std::move(column), std::move(rhs));
    } while (acceptSymbol(','));
    if (!parseWhere(upd.where)) return fail("malformed WHERE clause");
    return finish(std::move(statement));
  }

  ParseResult parseDelete() {
    advance();  // DELETE
    if (!accept("FROM")) return fail("expected FROM");
    Statement statement;
    statement.kind = StatementKind::kDelete;
    DeleteStatement& del = statement.del;
    if (!takeIdent(del.table)) return fail("expected table name");
    if (!parseWhere(del.where)) return fail("malformed WHERE clause");
    return finish(std::move(statement));
  }

  Lexer lexer_;
  Token current_;
  std::size_t paramCount_ = 0;
};

}  // namespace

ParseResult parseSql(std::string_view sql) { return Parser(sql).parse(); }

Statement parseSqlOrThrow(std::string_view sql) {
  ParseResult result = parseSql(sql);
  if (const auto* err = std::get_if<ParseError>(&result)) {
    throw std::invalid_argument("SQL parse error at position " +
                                std::to_string(err->position) + ": " +
                                err->message);
  }
  return std::get<Statement>(std::move(result));
}

}  // namespace dcache::storage
