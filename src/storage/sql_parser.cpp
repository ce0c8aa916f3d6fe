#include "storage/sql_parser.hpp"

#include <cctype>
#include <stdexcept>

namespace dcache::storage {
namespace {

enum class TokenKind : std::uint8_t {
  kIdent,
  kNumber,
  kString,
  kSymbol,  // any other one character: * , = ; ...
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
    Statement statement;
    if (accept("SELECT")) {
      if (!acceptSymbol('*')) return fail("expected *");
      if (!accept("FROM")) return fail("expected FROM");
    } else if (accept("UPDATE")) {
      statement.kind = StatementKind::kUpdate;
    } else {
      return fail("expected SELECT or UPDATE");
    }
    if (!takeIdent(statement.table)) return fail("expected table name");
    if (statement.kind == StatementKind::kUpdate) {
      if (!accept("SET")) return fail("expected SET");
      if (!parseConditions(statement.set, false)) return fail("malformed SET");
    }
    if (accept("WHERE") && !parseConditions(statement.where, true)) {
      return fail("malformed WHERE clause");
    }
    acceptSymbol(';');
    if (current_.kind != TokenKind::kEnd) {
      return fail("unexpected trailing tokens");
    }
    statement.paramCount = paramCount_;
    return statement;
  }

 private:
  void advance() { current_ = lexer_.next(); }

  [[nodiscard]] ParseError fail(std::string message) const {
    if (current_.kind == TokenKind::kBad) message = "unterminated literal";
    return ParseError{std::move(message), current_.position};
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

  /// value := ? | number | 'string'. Returns false on anything else.
  bool takeValue(Operand& value) {
    if (current_.kind == TokenKind::kParam) {
      value.literal.reset();
      value.paramIndex = paramCount_++;
      advance();
      return true;
    }
    if (current_.kind == TokenKind::kNumber ||
        current_.kind == TokenKind::kString) {
      value.literal = current_.text;
      advance();
      return true;
    }
    return false;
  }

  /// cond (AND cond)* for a WHERE clause, cond (, cond)* for a SET list.
  bool parseConditions(std::vector<Condition>& out, bool andSeparated) {
    do {
      Condition cond;
      if (!takeIdent(cond.column) || !acceptSymbol('=') ||
          !takeValue(cond.value)) {
        return false;
      }
      out.push_back(std::move(cond));
    } while (andSeparated ? accept("AND") : acceptSymbol(','));
    return true;
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
