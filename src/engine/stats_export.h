// Metric declarations and their Prometheus text exposition.
//
// Every engine and server counter is declared once, as one row of an
// X-macro list: F2DB_ENGINE_METRICS (engine/engine.h) and
// F2DB_SERVER_METRICS (server/server.h). Everything else is generated from
// or iterates that list: the EngineStats/ServerStats fields, the owner's
// relaxed slots, the copy in stats(), the sharded merge and the one
// renderer below. A list is called with three row macros:
//
//   METRIC(field, ctype, source, type, name, help[, merge])
//       an unlabeled family with one series;
//   FAMILY(type, name, help, label_key)
//       a labeled family, whose series are the SAMPLE rows that follow;
//   SAMPLE(field, ctype, source, label_value[, merge])
//       one series of the preceding FAMILY.
//
//   field, ctype  the stats struct's field and its type (std::size_t or
//                 double);
//   source        OWNED: a relaxed slot the owner records into with one
//                 `stats_.<field>.Add()` (MetricSlot<ctype>); or
//                 READ(expr): evaluated by stats() from the component that
//                 owns the value;
//   type          counter or gauge (a counter's name ends in _total);
//   name, help    the Prometheus family name and HELP text;
//   merge         engine rows only: how ShardedEngine::stats() combines its
//                 shards (MergeRule).
//
// Output follows the text format, version 0.0.4: one `# HELP` / `# TYPE`
// pair per family, then its samples. The escape helpers implement the
// format's two escaping rules:
//   - HELP text escapes backslash and newline;
//   - label values additionally escape the double quote.

#ifndef F2DB_ENGINE_STATS_EXPORT_H_
#define F2DB_ENGINE_STATS_EXPORT_H_

#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/concurrent.h"

namespace f2db {

struct EngineStats;  // engine.h

/// How a sharded engine's total of one series combines its shards and the
/// facade's own value.
enum class MergeRule {
  kSum,      ///< over the shards (plus the facade's fan-out rejections)
  kMax,      ///< the worst shard: health, the slowest parallel recovery
  kStalest,  ///< -1 until every shard reports >= 0, then the largest
  kFacade,   ///< the facade's value alone (only it sees statement text)
};

/// The value a series holds before anything is recorded: -1 ("never") for
/// a stalest-merged age, 0 otherwise.
constexpr double MetricDefault(MergeRule rule) {
  return rule == MergeRule::kStalest ? -1.0 : 0.0;
}

/// The relaxed slot behind an OWNED series of type T.
template <typename T>
using MetricSlot = std::conditional_t<std::is_same_v<T, double>,
                                      RelaxedAccumulator, RelaxedCounter>;

/// Source dispatch: pasting a row's source onto a prefix selects the
/// OWNED or the READ(expr) form. A READ form expands to its expression
/// (or nothing) and swallows the (slots, field) arguments that follow.
#define F2DB_METRIC_SWALLOW(...)
#define F2DB_METRIC_SLOT_OWNED(ctype, field) ::f2db::MetricSlot<ctype> field;
#define F2DB_METRIC_SLOT_READ(expr) F2DB_METRIC_SWALLOW
#define F2DB_METRIC_VALUE_OWNED(slots, field) (slots).field.Load()
#define F2DB_METRIC_VALUE_READ(expr) (expr) F2DB_METRIC_SWALLOW

/// Row macros shared by both lists (pass F2DB_METRIC_SWALLOW for FAMILY
/// where only series matter). SLOT declares an OWNED row's slot; COPY
/// assigns `out.<field>` inside an owner's stats(), where `stats_` names
/// its slots; VALUE lists `s.<field>` as a double.
#define F2DB_METRIC_SLOT_ROW(field, ctype, source, ...) \
  F2DB_METRIC_SLOT_##source(ctype, field)
#define F2DB_METRIC_COPY_ROW(field, ctype, source, ...) \
  out.field = static_cast<ctype>(F2DB_METRIC_VALUE_##source(stats_, field));
#define F2DB_METRIC_VALUE_ROW(field, ...) static_cast<double>(s.field),

/// One list row as the renderer sees it.
struct MetricRow {
  enum Kind { kMetric, kFamily, kSample };
  Kind kind;
  const char* name;   ///< the family name (kMetric, kFamily)
  const char* type;   ///< "counter" or "gauge" (kMetric, kFamily)
  const char* help;   ///< kMetric, kFamily
  const char* label;  ///< kFamily: the label key; kSample: its value
};

#define F2DB_METRIC_DESC_METRIC(field, ctype, source, type, name, help, ...) \
  {::f2db::MetricRow::kMetric, name, #type, help, nullptr},
#define F2DB_METRIC_DESC_FAMILY(type, name, help, label) \
  {::f2db::MetricRow::kFamily, name, #type, help, label},
#define F2DB_METRIC_DESC_SAMPLE(field, ctype, source, label_value, ...) \
  {::f2db::MetricRow::kSample, nullptr, nullptr, nullptr, label_value},

/// One column of series values (one per series, in list order) and the
/// shard label its samples carry.
using ShardMetricValues = std::pair<std::string, std::vector<double>>;

/// The one renderer. Each family gets its header, then one sample per
/// series and shard (labeled shard="<label>", after the series' own label),
/// then one per series of `total` without a shard label. With
/// `sum_labeled` a labeled family closes with an unlabeled sample summing
/// its series in `total`.
std::string RenderMetrics(std::span<const MetricRow> rows,
                          std::span<const ShardMetricValues> shards,
                          std::span<const double> total, bool sum_labeled);

/// Escapes `\` and newline for a `# HELP` line.
std::string PrometheusEscapeHelp(std::string_view text);

/// Escapes `\`, `"`, and newline for a quoted label value.
std::string PrometheusEscapeLabelValue(std::string_view text);

/// Appends one full counter family: HELP, TYPE, and a sample line.
void AppendPrometheusCounter(std::string* out, std::string_view name,
                             std::string_view help, double value);

/// Appends a gauge family (same layout, TYPE gauge).
void AppendPrometheusGauge(std::string* out, std::string_view name,
                           std::string_view help, double value);

/// The engine exposition of a SHARDED engine: every family carries one
/// shard-labeled sample per shard (f2db_inserts_total{shard="3"}) plus the
/// unlabeled total; the degradation-rung family combines both labels
/// ({rung="stale",shard="k"}). `shards` pairs each shard's label value
/// (its partition index as text) with its counter snapshot.
std::string ShardedEngineStatsPrometheusText(
    const std::vector<std::pair<std::string, EngineStats>>& shards,
    const EngineStats& total);

}  // namespace f2db

#endif  // F2DB_ENGINE_STATS_EXPORT_H_
