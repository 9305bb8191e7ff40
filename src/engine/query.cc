#include "engine/query.h"

#include <cctype>
#include <sstream>
#include <string_view>

#include "common/string_util.h"

namespace f2db {
namespace {

/// Untrusted-input guards: the parser fronts the network serving layer, so
/// a hostile statement must fail with a Status before it can cost memory.
/// kMaxStatementBytes bounds lexing work; kMaxHorizon bounds the forecast
/// buffers a single query may request downstream.
constexpr std::size_t kMaxStatementBytes = 64 * 1024;
constexpr std::size_t kMaxHorizon = 100000;

Status StatementTooLarge(std::size_t size) {
  return Status::InvalidArgument(
      "statement of " + std::to_string(size) + " bytes exceeds the " +
      std::to_string(kMaxStatementBytes) + "-byte limit");
}

enum class TokenKind { kIdent, kString, kNumber, kSymbol, kEnd };

/// One lexeme. `text` views the statement text being parsed, so tokens
/// live no longer than that text: the parser copies into the AST only what
/// the AST keeps.
struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string_view text;
};

/// Splits the query text into tokens; quoted strings keep their content.
class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    // A typical statement has a token per four bytes or fewer; one
    // allocation up front instead of a doubling series.
    out.reserve(input_.size() / 4 + 8);
    std::size_t pos = 0;
    while (pos < input_.size()) {
      const char c = input_[pos];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos;
        continue;
      }
      if (c == '\'') {
        const std::size_t close = input_.find('\'', pos + 1);
        if (close == std::string_view::npos) {
          return Status::InvalidArgument("unterminated string literal");
        }
        out.push_back(
            {TokenKind::kString, input_.substr(pos + 1, close - pos - 1)});
        pos = close + 1;
        continue;
      }
      const std::size_t start = pos;
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        while (pos < input_.size() &&
               (std::isalnum(static_cast<unsigned char>(input_[pos])) ||
                input_[pos] == '_')) {
          ++pos;
        }
        out.push_back({TokenKind::kIdent, input_.substr(start, pos - start)});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        while (pos < input_.size() &&
               (std::isdigit(static_cast<unsigned char>(input_[pos])) ||
                input_[pos] == '.')) {
          ++pos;
        }
        // Exponent suffix ([eE][+-]?digits). Consumed only when a digit
        // confirmably follows, so "1e" stays an error and "SELECT 1 e"
        // still lexes the identifier separately.
        if (pos < input_.size() &&
            (input_[pos] == 'e' || input_[pos] == 'E')) {
          std::size_t lookahead = pos + 1;
          if (lookahead < input_.size() &&
              (input_[lookahead] == '+' || input_[lookahead] == '-')) {
            ++lookahead;
          }
          if (lookahead < input_.size() &&
              std::isdigit(static_cast<unsigned char>(input_[lookahead]))) {
            pos = lookahead;
            while (pos < input_.size() &&
                   std::isdigit(static_cast<unsigned char>(input_[pos]))) {
              ++pos;
            }
          }
        }
        out.push_back({TokenKind::kNumber, input_.substr(start, pos - start)});
        continue;
      }
      if (c == '(' || c == ')' || c == '=' || c == '+' || c == ',' ||
          c == '*' || c == ';' || c == '-' || c == '?') {
        out.push_back({TokenKind::kSymbol, input_.substr(pos, 1)});
        ++pos;
        continue;
      }
      // Render control bytes (embedded NUL, raw binary) as a code point so
      // the error message itself stays printable text.
      if (std::isprint(static_cast<unsigned char>(c))) {
        return Status::InvalidArgument(std::string("unexpected character '") +
                                       c + "' in query");
      }
      const auto byte = static_cast<unsigned char>(c);
      return Status::InvalidArgument(
          "unexpected non-printable byte 0x" +
          std::string(1, "0123456789abcdef"[byte >> 4]) +
          std::string(1, "0123456789abcdef"[byte & 0xf]) + " in query");
    }
    out.push_back({TokenKind::kEnd, {}});
    return out;
  }

 private:
  std::string_view input_;
};

/// "3", "1 day", "12 hours" -> the leading integer. Shared between the AS
/// OF literal and EXECUTE bind arguments so both enforce the same caps.
Result<std::size_t> ParseHorizonText(std::string_view text) {
  std::size_t digits = 0;
  while (digits < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[digits]))) {
    ++digits;
  }
  if (digits == 0) {
    return Status::InvalidArgument("AS OF literal must start with a number");
  }
  F2DB_ASSIGN_OR_RETURN(std::int64_t value, ParseInt(text.substr(0, digits)));
  if (value <= 0) {
    return Status::InvalidArgument("forecast horizon must be positive");
  }
  if (static_cast<std::size_t>(value) > kMaxHorizon) {
    return Status::InvalidArgument(
        "forecast horizon " + std::to_string(value) + " exceeds the " +
        std::to_string(kMaxHorizon) + "-period limit");
  }
  return static_cast<std::size_t>(value);
}

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens, bool allow_binds = false)
      : tokens_(std::move(tokens)), allow_binds_(allow_binds) {}

  /// Bind slots recorded while parsing (template mode only), in
  /// statement order.
  std::vector<BindSlot> TakeSlots() { return std::move(slots_); }

  Result<Statement> ParseAny() {
    Statement statement;
    if (PeekKeyword("EXPLAIN")) {
      Advance();
      statement.kind = Statement::Kind::kExplain;
      F2DB_ASSIGN_OR_RETURN(statement.forecast, Parse());
      return statement;
    }
    if (PeekKeyword("INSERT")) {
      statement.kind = Statement::Kind::kInsert;
      F2DB_ASSIGN_OR_RETURN(statement.insert, ParseInsert());
      return statement;
    }
    statement.kind = Statement::Kind::kForecast;
    F2DB_ASSIGN_OR_RETURN(statement.forecast, Parse());
    return statement;
  }

  Result<InsertStatement> ParseInsert() {
    InsertStatement insert;
    F2DB_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
    F2DB_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    F2DB_RETURN_IF_ERROR(ExpectIdent().status());  // the table name
    F2DB_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    F2DB_RETURN_IF_ERROR(ExpectSymbol("("));
    // Quoted dimension values, then the time index, then the measure.
    while (Peek().kind == TokenKind::kString) {
      insert.base_values.emplace_back(Peek().text);
      Advance();
      F2DB_RETURN_IF_ERROR(ExpectSymbol(","));
    }
    if (insert.base_values.empty()) {
      return Status::InvalidArgument(
          "INSERT needs at least one quoted dimension value");
    }
    F2DB_ASSIGN_OR_RETURN(std::string time_text, ExpectNumber());
    F2DB_ASSIGN_OR_RETURN(insert.time, ParseInt(time_text));
    F2DB_RETURN_IF_ERROR(ExpectSymbol(","));
    F2DB_ASSIGN_OR_RETURN(std::string value_text, ExpectNumber());
    F2DB_ASSIGN_OR_RETURN(insert.value, ParseDouble(value_text));
    F2DB_RETURN_IF_ERROR(ExpectSymbol(")"));
    if (PeekSymbol(";")) Advance();
    if (Peek().kind != TokenKind::kEnd) {
      return Status::InvalidArgument("unexpected trailing tokens after INSERT");
    }
    return insert;
  }

  Result<ForecastQuery> Parse() {
    ForecastQuery query;
    F2DB_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    F2DB_RETURN_IF_ERROR(ExpectKeyword("time"));
    F2DB_RETURN_IF_ERROR(ExpectSymbol(","));

    if (PeekKeyword("SUM")) {
      Advance();
      query.aggregate = true;
      F2DB_RETURN_IF_ERROR(ExpectSymbol("("));
      F2DB_ASSIGN_OR_RETURN(query.measure, ExpectIdent());
      F2DB_RETURN_IF_ERROR(ExpectSymbol(")"));
    } else {
      F2DB_ASSIGN_OR_RETURN(query.measure, ExpectIdent());
    }

    F2DB_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    // Single fact table; its name is informational.
    F2DB_RETURN_IF_ERROR(ExpectIdent().status());

    if (PeekKeyword("WHERE")) {
      Advance();
      for (;;) {
        DimensionFilter filter;
        F2DB_ASSIGN_OR_RETURN(filter.level, ExpectIdent());
        F2DB_RETURN_IF_ERROR(ExpectSymbol("="));
        if (allow_binds_ && PeekSymbol("?")) {
          Advance();
          slots_.push_back(
              {BindSlot::Kind::kFilterValue, query.filters.size()});
          // The value arrives at EXECUTE time; leave the placeholder empty.
        } else {
          F2DB_ASSIGN_OR_RETURN(filter.value, ExpectString());
        }
        query.filters.push_back(std::move(filter));
        if (!PeekKeyword("AND")) break;
        Advance();
      }
    }

    if (PeekKeyword("GROUP")) {
      Advance();
      F2DB_RETURN_IF_ERROR(ExpectKeyword("BY"));
      F2DB_RETURN_IF_ERROR(ExpectKeyword("time"));
    }

    F2DB_RETURN_IF_ERROR(ExpectKeyword("AS"));
    F2DB_RETURN_IF_ERROR(ExpectKeyword("OF"));
    F2DB_RETURN_IF_ERROR(ExpectKeyword("now"));
    F2DB_RETURN_IF_ERROR(ExpectSymbol("("));
    F2DB_RETURN_IF_ERROR(ExpectSymbol(")"));
    F2DB_RETURN_IF_ERROR(ExpectSymbol("+"));
    if (allow_binds_ && PeekSymbol("?")) {
      Advance();
      slots_.push_back({BindSlot::Kind::kHorizon, 0});
      query.horizon = 1;  // placeholder until EXECUTE binds the real value
    } else {
      F2DB_ASSIGN_OR_RETURN(const std::string_view horizon_text,
                            ExpectString());
      F2DB_ASSIGN_OR_RETURN(query.horizon, ParseHorizonText(horizon_text));
    }

    if (PeekKeyword("WITH")) {
      Advance();
      F2DB_RETURN_IF_ERROR(ExpectKeyword("INTERVALS"));
      query.with_intervals = true;
      if (Peek().kind == TokenKind::kNumber) {
        F2DB_ASSIGN_OR_RETURN(query.confidence, ParseDouble(Peek().text));
        Advance();
        if (query.confidence <= 0.0 || query.confidence >= 1.0) {
          return Status::InvalidArgument(
              "WITH INTERVALS confidence must be in (0, 1)");
        }
      }
    }

    if (PeekSymbol(";")) Advance();
    if (Peek().kind != TokenKind::kEnd) {
      return Status::InvalidArgument("unexpected trailing tokens after AS OF");
    }
    return query;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  void Advance() { ++pos_; }

  bool PeekKeyword(std::string_view keyword) const {
    return Peek().kind == TokenKind::kIdent &&
           EqualsIgnoreCase(Peek().text, keyword);
  }

  bool PeekSymbol(std::string_view symbol) const {
    return Peek().kind == TokenKind::kSymbol && Peek().text == symbol;
  }

  /// "expected <what>, got '<current token>'".
  Status Unexpected(std::string_view what) const {
    std::string message = "expected ";
    message.append(what).append(", got '").append(Peek().text) += '\'';
    return Status::InvalidArgument(std::move(message));
  }

  Status ExpectKeyword(std::string_view keyword) {
    if (!PeekKeyword(keyword)) {
      return Unexpected("'" + std::string(keyword) + "'");
    }
    Advance();
    return Status::OK();
  }

  Status ExpectSymbol(std::string_view symbol) {
    if (!PeekSymbol(symbol)) return Unexpected("'" + std::string(symbol) + "'");
    Advance();
    return Status::OK();
  }

  /// The returned view lives as long as the statement text.
  Result<std::string_view> ExpectIdent() {
    if (Peek().kind != TokenKind::kIdent) return Unexpected("identifier");
    const std::string_view out = Peek().text;
    Advance();
    return out;
  }

  /// The returned view lives as long as the statement text.
  Result<std::string_view> ExpectString() {
    if (Peek().kind != TokenKind::kString) return Unexpected("quoted literal");
    const std::string_view out = Peek().text;
    Advance();
    return out;
  }

  Result<std::string> ExpectNumber() {
    // Accepts an optional leading minus for measure values.
    std::string out;
    if (PeekSymbol("-")) {
      out = "-";
      Advance();
    }
    if (Peek().kind != TokenKind::kNumber) return Unexpected("number");
    out += Peek().text;
    Advance();
    return out;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  /// Template mode: `?` accepted in filter-value and horizon positions.
  bool allow_binds_ = false;
  std::vector<BindSlot> slots_;
};

}  // namespace

std::string ForecastQuery::ToString() const {
  std::ostringstream out;
  out << "SELECT time, ";
  if (aggregate) {
    out << "SUM(" << measure << ")";
  } else {
    out << measure;
  }
  out << " FROM facts";
  for (std::size_t i = 0; i < filters.size(); ++i) {
    out << (i == 0 ? " WHERE " : " AND ") << filters[i].level << " = '"
        << filters[i].value << "'";
  }
  if (aggregate) out << " GROUP BY time";
  out << " AS OF now() + '" << horizon << "'";
  if (with_intervals) out << " WITH INTERVALS " << confidence;
  return out.str();
}

Result<ForecastQuery> ParseForecastQuery(const std::string& sql) {
  if (sql.size() > kMaxStatementBytes) return StatementTooLarge(sql.size());
  Lexer lexer(sql);
  F2DB_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.Parse();
}

Result<Statement> ParseStatement(const std::string& sql) {
  if (sql.size() > kMaxStatementBytes) return StatementTooLarge(sql.size());
  Lexer lexer(sql);
  F2DB_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.ParseAny();
}

Result<StatementTemplate> ParseStatementTemplate(const std::string& sql) {
  if (sql.size() > kMaxStatementBytes) return StatementTooLarge(sql.size());
  Lexer lexer(sql);
  F2DB_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens), /*allow_binds=*/true);
  StatementTemplate tmpl;
  F2DB_ASSIGN_OR_RETURN(tmpl.statement, parser.ParseAny());
  tmpl.slots = parser.TakeSlots();
  return tmpl;
}

Result<Statement> BindStatement(const StatementTemplate& tmpl,
                                const std::vector<std::string>& binds) {
  Statement bound;
  F2DB_RETURN_IF_ERROR(BindStatementInto(tmpl, binds, &bound));
  return bound;
}

Status BindStatementInto(const StatementTemplate& tmpl,
                         const std::vector<std::string>& binds,
                         Statement* out) {
  if (binds.size() != tmpl.slots.size()) {
    return Status::InvalidArgument(
        "statement has " + std::to_string(tmpl.slots.size()) +
        " bind slot(s) but " + std::to_string(binds.size()) +
        " argument(s) were supplied");
  }
  // Copy-assignment reuses out's string/vector capacity element-wise, so a
  // warmed scratch Statement takes this path without allocating.
  *out = tmpl.statement;
  for (std::size_t i = 0; i < tmpl.slots.size(); ++i) {
    const BindSlot& slot = tmpl.slots[i];
    switch (slot.kind) {
      case BindSlot::Kind::kHorizon: {
        F2DB_ASSIGN_OR_RETURN(out->forecast.horizon,
                              ParseHorizonText(binds[i]));
        break;
      }
      case BindSlot::Kind::kFilterValue: {
        if (slot.filter_index >= out->forecast.filters.size()) {
          return Status::Internal("bind slot names filter " +
                                  std::to_string(slot.filter_index) +
                                  " past the filter list");
        }
        out->forecast.filters[slot.filter_index].value = binds[i];
        break;
      }
    }
  }
  return Status::OK();
}

std::string NormalizeStatementText(const std::string& sql) {
  // Reserved words of the dialect, upper-cased for the cache key. Quoted
  // literals never reach this list, so member values keep their case.
  static constexpr std::string_view kKeywords[] = {
      "SELECT",    "SUM",     "FROM",   "WHERE", "AND",    "GROUP",
      "BY",        "TIME",    "AS",     "OF",    "NOW",    "WITH",
      "INTERVALS", "EXPLAIN", "INSERT", "INTO",  "VALUES"};
  std::string out;
  out.reserve(sql.size());
  const auto separate = [&out] {
    if (!out.empty()) out.push_back(' ');
  };
  // Token-faithful single pass: the boundaries below mirror the Lexer so
  // two statements share a key only when they lex into the same tokens
  // (modulo keyword case). No parse happens — that is the point.
  std::size_t pos = 0;
  while (pos < sql.size()) {
    const char c = sql[pos];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos;
      continue;
    }
    if (c == '\'') {
      // Quoted literal: verbatim, including the quotes. An unterminated
      // literal copies to end-of-text; the parser rejects it later.
      separate();
      out.push_back('\'');
      ++pos;
      while (pos < sql.size() && sql[pos] != '\'') out.push_back(sql[pos++]);
      if (pos < sql.size()) {
        out.push_back('\'');
        ++pos;
      }
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      separate();
      while (pos < sql.size() &&
             (std::isdigit(static_cast<unsigned char>(sql[pos])) ||
              sql[pos] == '.')) {
        out.push_back(sql[pos++]);
      }
      // Exponent suffix, with the lexer's digit-confirmed lookahead.
      if (pos < sql.size() && (sql[pos] == 'e' || sql[pos] == 'E')) {
        std::size_t lookahead = pos + 1;
        if (lookahead < sql.size() &&
            (sql[lookahead] == '+' || sql[lookahead] == '-')) {
          ++lookahead;
        }
        if (lookahead < sql.size() &&
            std::isdigit(static_cast<unsigned char>(sql[lookahead]))) {
          while (pos < lookahead) out.push_back(sql[pos++]);
          while (pos < sql.size() &&
                 std::isdigit(static_cast<unsigned char>(sql[pos]))) {
            out.push_back(sql[pos++]);
          }
        }
      }
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      const std::size_t start = pos;
      while (pos < sql.size() &&
             (std::isalnum(static_cast<unsigned char>(sql[pos])) ||
              sql[pos] == '_')) {
        ++pos;
      }
      std::string_view word = std::string_view(sql).substr(start, pos - start);
      for (std::string_view keyword : kKeywords) {
        if (EqualsIgnoreCase(word, keyword)) {
          word = keyword;
          break;
        }
      }
      separate();
      out += word;
      continue;
    }
    separate();
    out.push_back(c);
    ++pos;
  }
  // One trailing ';' is grammar noise, not meaning.
  if (out.size() >= 2 && out.ends_with(" ;")) out.erase(out.size() - 2);
  return out;
}

}  // namespace f2db
