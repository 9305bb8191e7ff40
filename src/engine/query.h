// Forecast query AST and SQL-ish parser.
//
// F2DB extends SQL with an AS OF clause for forecast queries (Section I,
// Figure 1):
//
//   SELECT time, sales        FROM facts
//   WHERE product = 'P4' AND city = 'C4'
//   AS OF now() + '1'
//
//   SELECT time, SUM(sales)   FROM facts
//   WHERE product = 'P4' AND region = 'R2'
//   GROUP BY time
//   AS OF now() + '3'
//
// WHERE predicates name a hierarchy LEVEL (city, region, product, ...) and
// a member value, at most one predicate per dimension; dimensions without a
// predicate default to ALL (full aggregation). The AS OF literal is the
// forecast horizon in periods.

#ifndef F2DB_ENGINE_QUERY_H_
#define F2DB_ENGINE_QUERY_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace f2db {

/// One WHERE predicate: <level> = '<value>'.
struct DimensionFilter {
  std::string level;
  std::string value;
  bool operator==(const DimensionFilter&) const = default;
};

/// A parsed forecast query.
struct ForecastQuery {
  /// Projected measure column ("sales"); informational.
  std::string measure;
  /// True when the measure was wrapped in SUM(...) (aggregate query).
  bool aggregate = false;
  std::vector<DimensionFilter> filters;
  /// Forecast horizon in periods (the AS OF now() + 'h' literal).
  std::size_t horizon = 1;
  /// WITH INTERVALS [<confidence>] clause: request prediction intervals.
  bool with_intervals = false;
  double confidence = 0.95;

  /// No serving deadline (the default for embedded callers).
  static constexpr std::chrono::steady_clock::time_point kNoDeadline =
      std::chrono::steady_clock::time_point::max();

  /// Absolute serving deadline on the steady clock. The engine checks it
  /// at entry (and a sharded engine again before scatter-gather fan-out):
  /// an expired query answers kDeadlineExceeded instead of burning
  /// forecast work the caller has already given up on. Not part of the
  /// parsed SQL — the serving layer stamps it from the wire deadline.
  std::chrono::steady_clock::time_point deadline = kNoDeadline;

  /// Brownout mode: skip lazy re-estimation and serve the stale-model
  /// rung (annotated) when a model is invalid. The serving layer sets this
  /// under sustained admission pressure so degraded-but-correct answers go
  /// out before load shedding starts.
  bool brownout = false;

  std::string ToString() const;
};

/// Parses the SQL-ish forecast query dialect above. Keywords are
/// case-insensitive; identifiers and quoted values are case-sensitive.
/// Hardened for untrusted (network) input: statements over 64 KiB,
/// horizons over 100000 periods, and non-printable bytes are rejected
/// with kInvalidArgument — the parser never throws or crashes.
Result<ForecastQuery> ParseForecastQuery(const std::string& sql);

/// An insert of one new fact:
///   INSERT INTO facts VALUES ('C1', 'P1', 60, 12.5)
/// with one quoted level-0 value per dimension (in schema order), the
/// integer time index, and the measure value.
struct InsertStatement {
  std::vector<std::string> base_values;
  std::int64_t time = 0;
  double value = 0.0;
};

/// EXPLAIN <forecast query>: resolve the plan without computing forecasts.
struct ExplainStatement {
  ForecastQuery query;
};

/// Any statement of the dialect.
struct Statement {
  enum class Kind { kForecast, kInsert, kExplain };
  Kind kind = Kind::kForecast;
  ForecastQuery forecast;  ///< kForecast / kExplain.
  InsertStatement insert;  ///< kInsert.
};

/// Parses a full statement (SELECT / INSERT / EXPLAIN SELECT).
Result<Statement> ParseStatement(const std::string& sql);

// ---------------------------------------------------------------------------
// Prepared-statement templates (DESIGN.md §14)
// ---------------------------------------------------------------------------

/// One `?` placeholder in a prepared statement, recorded in statement
/// order: slot i binds the i-th EXECUTE argument. `?` is accepted in two
/// grammar positions of a forecast query —
///
///   WHERE city = ?          (a base/hierarchy member value)
///   AS OF now() + ?         (the forecast horizon, unquoted)
struct BindSlot {
  enum class Kind { kFilterValue, kHorizon };
  Kind kind = Kind::kHorizon;
  /// kFilterValue only: index into ForecastQuery::filters.
  std::size_t filter_index = 0;
  bool operator==(const BindSlot&) const = default;
};

/// A parsed statement plus its bind slots. With no `?` placeholders the
/// template is the fully-resolved statement and `slots` is empty.
struct StatementTemplate {
  Statement statement;
  std::vector<BindSlot> slots;
};

/// Parses a statement that may contain `?` bind slots (forecast/EXPLAIN
/// queries only; INSERT does not take placeholders). A statement without
/// placeholders parses identically to ParseStatement.
Result<StatementTemplate> ParseStatementTemplate(const std::string& sql);

/// Substitutes bind arguments into a template, producing an executable
/// statement. Arguments are untrusted wire bytes: the count must match
/// the slot count exactly, and a horizon argument is validated with the
/// same rules as the AS OF literal (positive, capped).
Result<Statement> BindStatement(const StatementTemplate& tmpl,
                                const std::vector<std::string>& binds);

/// BindStatement into a caller-owned Statement, reusing its string and
/// vector capacity — the EXECUTE hot path rebinds into one per-connection
/// scratch Statement without allocating. On error `*out` is unspecified.
Status BindStatementInto(const StatementTemplate& tmpl,
                         const std::vector<std::string>& binds,
                         Statement* out);

/// Canonicalizes statement text for plan-cache keying without parsing it:
/// whitespace runs collapse to single separators, grammar keywords are
/// upper-cased, quoted literals are preserved verbatim, and one trailing
/// ';' is dropped. Distinct horizon literals stay distinct keys. Note the
/// dialect consequence: an identifier that case-insensitively equals a
/// grammar keyword is keyed case-insensitively too (keywords are reserved
/// words). Text that does not lex cleanly is returned whitespace-collapsed
/// only — it will fail to parse downstream anyway.
std::string NormalizeStatementText(const std::string& sql);

}  // namespace f2db

#endif  // F2DB_ENGINE_QUERY_H_
