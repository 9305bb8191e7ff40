#include "engine/stats_export.h"

#include <cmath>
#include <cstdio>

#include "engine/engine.h"

namespace f2db {
namespace {

/// Renders a double the way Prometheus expects: integers without a
/// fractional part, everything else with enough digits to round-trip.
std::string RenderValue(double value) {
  if (std::floor(value) == value && std::abs(value) < 1e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.0f", value);
    return buffer;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// The format's escaping: backslash and newline, plus the double quote
/// inside a label value.
std::string Escape(std::string_view text, bool quote) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (quote && c == '"') {
      out += "\\\"";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void AppendFamilyHeader(std::string* out, std::string_view name,
                        std::string_view help, std::string_view type) {
  out->append("# HELP ").append(name).append(" ");
  out->append(PrometheusEscapeHelp(help)).append("\n");
  out->append("# TYPE ").append(name).append(" ").append(type).append("\n");
}

/// One sample line; `labels` is the text between the braces, if any.
void AppendSample(std::string* out, std::string_view name,
                  std::string_view labels, double value) {
  out->append(name);
  if (!labels.empty()) out->append("{").append(labels).append("}");
  out->append(" ").append(RenderValue(value)).append("\n");
}

constexpr MetricRow kEngineRows[] = {F2DB_ENGINE_METRICS(
    F2DB_METRIC_DESC_METRIC, F2DB_METRIC_DESC_FAMILY, F2DB_METRIC_DESC_SAMPLE)};

std::vector<double> EngineSeriesValues(const EngineStats& s) {
  return {F2DB_ENGINE_METRICS(F2DB_METRIC_VALUE_ROW, F2DB_METRIC_SWALLOW,
                              F2DB_METRIC_VALUE_ROW)};
}

}  // namespace

std::string RenderMetrics(std::span<const MetricRow> rows,
                          std::span<const ShardMetricValues> shards,
                          std::span<const double> total, bool sum_labeled) {
  std::string out;
  std::size_t series = 0;  // the family's first series in a column
  for (std::size_t i = 0; i < rows.size();) {
    const MetricRow& family = rows[i];
    const bool labeled = family.kind == MetricRow::kFamily;
    std::size_t end = i + 1;
    while (end < rows.size() && rows[end].kind == MetricRow::kSample) ++end;
    const std::size_t count = labeled ? end - i - 1 : 1;
    AppendFamilyHeader(&out, family.name, family.help, family.type);
    const auto column = [&](std::span<const double> values,
                            const std::string* shard) {
      for (std::size_t k = 0; k < count; ++k) {
        std::string labels;
        if (labeled) {
          labels.append(family.label).append("=\"");
          labels.append(PrometheusEscapeLabelValue(rows[i + 1 + k].label));
          labels.append(shard != nullptr ? "\"," : "\"");
        }
        if (shard != nullptr) {
          labels.append("shard=\"").append(PrometheusEscapeLabelValue(*shard));
          labels.append("\"");
        }
        AppendSample(&out, family.name, labels, values[series + k]);
      }
    };
    for (const auto& [label, values] : shards) column(values, &label);
    column(total, nullptr);
    if (sum_labeled && labeled) {
      double sum = 0.0;
      for (std::size_t k = 0; k < count; ++k) sum += total[series + k];
      AppendSample(&out, family.name, "", sum);
    }
    series += count;
    i = end;
  }
  return out;
}

std::string PrometheusEscapeHelp(std::string_view text) {
  return Escape(text, /*quote=*/false);
}

std::string PrometheusEscapeLabelValue(std::string_view text) {
  return Escape(text, /*quote=*/true);
}

void AppendPrometheusCounter(std::string* out, std::string_view name,
                             std::string_view help, double value) {
  AppendFamilyHeader(out, name, help, "counter");
  AppendSample(out, name, "", value);
}

void AppendPrometheusGauge(std::string* out, std::string_view name,
                           std::string_view help, double value) {
  AppendFamilyHeader(out, name, help, "gauge");
  AppendSample(out, name, "", value);
}

std::string EngineStats::ToPrometheusText() const {
  return RenderMetrics(kEngineRows, {}, EngineSeriesValues(*this), false);
}

std::string ShardedEngineStatsPrometheusText(
    const std::vector<std::pair<std::string, EngineStats>>& shards,
    const EngineStats& total) {
  std::vector<ShardMetricValues> columns;
  for (const auto& [label, stats] : shards) {
    columns.emplace_back(label, EngineSeriesValues(stats));
  }
  return RenderMetrics(kEngineRows, columns, EngineSeriesValues(total), false);
}

}  // namespace f2db
