#include "engine/query.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace f2db {
namespace {

TEST(QueryParser, Figure1Query1) {
  auto q = ParseForecastQuery(
      "SELECT time, sales FROM facts WHERE product = 'P4' AND city = 'C4' "
      "AS OF now() + '1 day'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().measure, "sales");
  EXPECT_FALSE(q.value().aggregate);
  ASSERT_EQ(q.value().filters.size(), 2u);
  EXPECT_EQ(q.value().filters[0], (DimensionFilter{"product", "P4"}));
  EXPECT_EQ(q.value().filters[1], (DimensionFilter{"city", "C4"}));
  EXPECT_EQ(q.value().horizon, 1u);
}

TEST(QueryParser, Figure1Query2WithGroupBy) {
  auto q = ParseForecastQuery(
      "SELECT time, SUM(sales) FROM facts WHERE product = 'P4' AND region = "
      "'R2' GROUP BY time AS OF now() + '1 day'");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q.value().aggregate);
  EXPECT_EQ(q.value().measure, "sales");
  EXPECT_EQ(q.value().filters.size(), 2u);
}

TEST(QueryParser, NoWhereClause) {
  auto q = ParseForecastQuery(
      "SELECT time, SUM(m) FROM facts AS OF now() + '5'");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q.value().filters.empty());
  EXPECT_EQ(q.value().horizon, 5u);
}

TEST(QueryParser, KeywordsCaseInsensitive) {
  auto q = ParseForecastQuery(
      "select TIME, sum(sales) from FACTS where city = 'C1' group by time "
      "as of NOW() + '2'");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().horizon, 2u);
}

TEST(QueryParser, ValuesCaseSensitive) {
  auto q = ParseForecastQuery(
      "SELECT time, x FROM facts WHERE city = 'c1' AS OF now() + '1'");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().filters[0].value, "c1");
}

TEST(QueryParser, TrailingSemicolonAllowed) {
  EXPECT_TRUE(
      ParseForecastQuery("SELECT time, x FROM f AS OF now() + '3';").ok());
}

TEST(QueryParser, HorizonWithUnitText) {
  auto q = ParseForecastQuery(
      "SELECT time, x FROM f AS OF now() + '12 hours'");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().horizon, 12u);
}

TEST(QueryParser, RejectsZeroOrNegativeHorizon) {
  EXPECT_FALSE(
      ParseForecastQuery("SELECT time, x FROM f AS OF now() + '0'").ok());
  EXPECT_FALSE(
      ParseForecastQuery("SELECT time, x FROM f AS OF now() + 'abc'").ok());
}

TEST(QueryParser, RejectsMissingAsOf) {
  EXPECT_FALSE(ParseForecastQuery("SELECT time, x FROM f").ok());
}

TEST(QueryParser, RejectsMissingTimeColumn) {
  EXPECT_FALSE(
      ParseForecastQuery("SELECT x FROM f AS OF now() + '1'").ok());
}

TEST(QueryParser, RejectsUnterminatedString) {
  EXPECT_FALSE(ParseForecastQuery(
                   "SELECT time, x FROM f WHERE a = 'b AS OF now() + '1'")
                   .ok());
}

TEST(QueryParser, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseForecastQuery(
                   "SELECT time, x FROM f AS OF now() + '1' extra")
                   .ok());
}

TEST(QueryParser, RejectsBadCharacters) {
  EXPECT_FALSE(ParseForecastQuery(
                   "SELECT time, x FROM f WHERE a # 'b' AS OF now() + '1'")
                   .ok());
}

TEST(QueryParser, RejectsMalformedPredicate) {
  EXPECT_FALSE(ParseForecastQuery(
                   "SELECT time, x FROM f WHERE a = b AS OF now() + '1'")
                   .ok());
}

// Tokens view the statement text; the parsed query must own its strings.
TEST(QueryParser, ResultOutlivesStatementText) {
  Result<Statement> parsed = Status::Internal("not parsed");
  {
    std::string sql =
        "SELECT time, SUM(visitors_measure) FROM facts WHERE "
        "state_level_name = 'a member name longer than the SSO buffer' "
        "AND purpose = 'P1' GROUP BY time AS OF now() + '3'";
    parsed = ParseStatement(sql);
    sql.assign(sql.size(), '#');  // scribble over the text before it dies
  }
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ForecastQuery& q = parsed.value().forecast;
  EXPECT_EQ(q.measure, "visitors_measure");
  ASSERT_EQ(q.filters.size(), 2u);
  EXPECT_EQ(q.filters[0],
            (DimensionFilter{"state_level_name",
                             "a member name longer than the SSO buffer"}));
  EXPECT_EQ(q.filters[1], (DimensionFilter{"purpose", "P1"}));
  EXPECT_EQ(q.horizon, 3u);

  Result<Statement> insert = Status::Internal("not parsed");
  {
    std::string sql =
        "INSERT INTO facts VALUES ('a base member longer than SSO', 'P2', "
        "7, -1.5)";
    insert = ParseStatement(sql);
    sql.assign(sql.size(), '#');
  }
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  EXPECT_EQ(insert.value().insert.base_values,
            (std::vector<std::string>{"a base member longer than SSO", "P2"}));
  EXPECT_EQ(insert.value().insert.time, 7);
  EXPECT_EQ(insert.value().insert.value, -1.5);
}

// Error messages quote the offending token verbatim.
TEST(QueryParser, ErrorsQuoteTheOffendingToken) {
  const auto message = [](const std::string& sql) {
    const auto parsed = ParseStatement(sql);
    EXPECT_FALSE(parsed.ok()) << sql;
    return parsed.ok() ? std::string() : parsed.status().message();
  };
  EXPECT_EQ(message("SELECT time, x FORM facts AS OF now() + '1'"),
            "expected 'FROM', got 'FORM'");
  EXPECT_EQ(message("SELECT time, x FROM facts WHERE city = C1 AS OF "
                    "now() + '1'"),
            "expected quoted literal, got 'C1'");
  EXPECT_EQ(message("SELECT time, 'x' FROM facts AS OF now() + '1'"),
            "expected identifier, got 'x'");
  EXPECT_EQ(message("SELECT time, x FROM facts AS OF now() - '1'"),
            "expected '+', got '-'");
  EXPECT_EQ(message("SELECT time, x FROM facts AS OF now() + '1"),
            "unterminated string literal");
  EXPECT_EQ(message("SELECT time, x FROM facts AS OF"),
            "expected 'now', got ''");
  EXPECT_EQ(message("INSERT INTO facts VALUES ('C1', x, 1)"),
            "expected number, got 'x'");
}

TEST(QueryToString, RoundTripsThroughParser) {
  ForecastQuery q;
  q.measure = "sales";
  q.aggregate = true;
  q.filters = {{"region", "R2"}, {"product", "P4"}};
  q.horizon = 7;
  auto reparsed = ParseForecastQuery(q.ToString());
  ASSERT_TRUE(reparsed.ok()) << q.ToString();
  EXPECT_EQ(reparsed.value().measure, q.measure);
  EXPECT_EQ(reparsed.value().aggregate, q.aggregate);
  EXPECT_EQ(reparsed.value().filters, q.filters);
  EXPECT_EQ(reparsed.value().horizon, q.horizon);
}

TEST(QueryParser, QuotedValueWithSpaces) {
  auto q = ParseForecastQuery(
      "SELECT time, x FROM f WHERE state = 'New South Wales' AS OF now() + "
      "'4'");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().filters[0].value, "New South Wales");
}

// Regression: the lexer dropped exponent suffixes from numeric literals, so
// "%.17g"-rendered measures like 1.5e-05 failed to parse (found by the
// differential harness; see
// PropertyDifferentialTest.RegressionTinyValuesSurviveSqlRoundTrip).
TEST(StatementLexer, AcceptsExponentNumericLiterals) {
  const char* cases[] = {
      "INSERT INTO facts VALUES ('C1', 10, 1e6)",
      "INSERT INTO facts VALUES ('C1', 10, 2.5E-3)",
      "INSERT INTO facts VALUES ('C1', 10, 1e+2)",
      "INSERT INTO facts VALUES ('C1', 10, -4.0822845412000796e-06)",
  };
  for (const char* sql : cases) {
    auto s = ParseStatement(sql);
    ASSERT_TRUE(s.ok()) << sql << ": " << s.status().ToString();
  }
  EXPECT_DOUBLE_EQ(
      ParseStatement(cases[0]).value().insert.value, 1e6);
  EXPECT_DOUBLE_EQ(
      ParseStatement(cases[1]).value().insert.value, 2.5e-3);
  EXPECT_DOUBLE_EQ(
      ParseStatement(cases[2]).value().insert.value, 1e2);
  EXPECT_DOUBLE_EQ(
      ParseStatement(cases[3]).value().insert.value, -4.0822845412000796e-06);
}

TEST(StatementLexer, RejectsDanglingExponent) {
  // "1e" and "1e+" are not numbers; the 'e' must not be swallowed.
  EXPECT_FALSE(ParseStatement("INSERT INTO facts VALUES ('C1', 10, 1e)").ok());
  EXPECT_FALSE(
      ParseStatement("INSERT INTO facts VALUES ('C1', 10, 1e+)").ok());
}

}  // namespace
}  // namespace f2db
