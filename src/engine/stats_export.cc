#include "engine/stats_export.h"

#include <array>
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

void AppendFamilyHeader(std::string* out, std::string_view name,
                        std::string_view help, std::string_view type) {
  out->append("# HELP ").append(name).append(" ");
  out->append(PrometheusEscapeHelp(help)).append("\n");
  out->append("# TYPE ").append(name).append(" ").append(type).append("\n");
}

/// One scalar engine family: name, help, TYPE, and the field accessor.
/// Shared by the unsharded and the sharded renderer so the two expositions
/// can never drift apart.
struct EngineFamily {
  const char* name;
  const char* help;
  const char* type;
  double (*value)(const EngineStats&);
};

/// Families rendered BEFORE the degradation-rung breakdown (matching the
/// historical exposition order).
constexpr EngineFamily kHeadFamilies[] = {
    {"f2db_queries_total", "Forecast queries served.", "counter",
     [](const EngineStats& s) { return static_cast<double>(s.queries); }},
    {"f2db_inserts_total", "Facts accepted into the insert buffer.", "counter",
     [](const EngineStats& s) { return static_cast<double>(s.inserts); }},
    {"f2db_time_advances_total",
     "Batched advances of the cube's time frontier.", "counter",
     [](const EngineStats& s) { return static_cast<double>(s.time_advances); }},
    {"f2db_reestimates_total", "Lazy model re-estimations published.",
     "counter",
     [](const EngineStats& s) { return static_cast<double>(s.reestimates); }},
    {"f2db_refit_failures_total",
     "Lazy re-estimation attempts that returned non-OK.", "counter",
     [](const EngineStats& s) {
       return static_cast<double>(s.refit_failures);
     }},
    {"f2db_quarantines_total",
     "Nodes quarantined after consecutive refit failures.", "counter",
     [](const EngineStats& s) { return static_cast<double>(s.quarantines); }},
};

/// Families rendered AFTER the degradation-rung breakdown.
constexpr EngineFamily kTailFamilies[] = {
    {"f2db_deadline_expired_queries_total",
     "Queries rejected because their deadline had already expired.",
     "counter",
     [](const EngineStats& s) {
       return static_cast<double>(s.deadline_expired_queries);
     }},
    {"f2db_brownout_refits_skipped_total",
     "Lazy re-estimations skipped by brownout-mode queries.", "counter",
     [](const EngineStats& s) {
       return static_cast<double>(s.brownout_refits_skipped);
     }},
    {"f2db_plan_cache_hits_total",
     "Statement parses served from the plan cache.", "counter",
     [](const EngineStats& s) {
       return static_cast<double>(s.plan_cache_hits);
     }},
    {"f2db_plan_cache_misses_total",
     "Statement parses that missed the plan cache.", "counter",
     [](const EngineStats& s) {
       return static_cast<double>(s.plan_cache_misses);
     }},
    {"f2db_plan_cache_evictions_total",
     "Plan-cache entries dropped by the LRU capacity bound.", "counter",
     [](const EngineStats& s) {
       return static_cast<double>(s.plan_cache_evictions);
     }},
    {"f2db_plan_cache_invalidations_total",
     "Whole plan-cache drops on configuration install.", "counter",
     [](const EngineStats& s) {
       return static_cast<double>(s.plan_cache_invalidations);
     }},
    {"f2db_plan_cache_size", "Plans currently cached.", "gauge",
     [](const EngineStats& s) {
       return static_cast<double>(s.plan_cache_size);
     }},
    {"f2db_query_seconds_total",
     "Wall-clock seconds spent in the query layer.", "counter",
     [](const EngineStats& s) { return s.total_query_seconds; }},
    {"f2db_maintenance_seconds_total",
     "Wall-clock seconds spent in maintenance.", "counter",
     [](const EngineStats& s) { return s.total_maintenance_seconds; }},
    {"f2db_wal_records_appended_total",
     "WAL records appended by this process.", "counter",
     [](const EngineStats& s) {
       return static_cast<double>(s.wal_records_appended);
     }},
    {"f2db_wal_bytes_total", "WAL bytes appended by this process.", "counter",
     [](const EngineStats& s) { return static_cast<double>(s.wal_bytes); }},
    {"f2db_wal_records_replayed_total",
     "WAL records replayed by recovery at open.", "counter",
     [](const EngineStats& s) {
       return static_cast<double>(s.wal_records_replayed);
     }},
    {"f2db_torn_tail_detected",
     "1 when recovery truncated a torn final WAL record.", "gauge",
     [](const EngineStats& s) {
       return static_cast<double>(s.torn_tail_detected);
     }},
    {"f2db_recovery_duration_ms",
     "Milliseconds recovery took when the engine opened.", "gauge",
     [](const EngineStats& s) { return s.recovery_duration_ms; }},
    {"f2db_last_compaction_age_seconds",
     "Seconds since the last completed compaction (the durable cut); -1 "
     "when none completed yet.",
     "gauge",
     [](const EngineStats& s) { return s.last_compaction_age_seconds; }},
    {"f2db_segments_sealed_total",
     "Sealed segments written by this process.", "counter",
     [](const EngineStats& s) {
       return static_cast<double>(s.segments_sealed);
     }},
    {"f2db_segment_records_sealed_total",
     "Observations sealed into segments by this process.", "counter",
     [](const EngineStats& s) {
       return static_cast<double>(s.segment_records_sealed);
     }},
    {"f2db_segments_live",
     "Sealed segments the current manifest references.", "gauge",
     [](const EngineStats& s) {
       return static_cast<double>(s.segments_live);
     }},
    {"f2db_segment_live_bytes",
     "On-disk bytes of the live sealed-segment chain.", "gauge",
     [](const EngineStats& s) {
       return static_cast<double>(s.segment_live_bytes);
     }},
    {"f2db_compactions_completed_total",
     "Compactions that committed their manifest.", "counter",
     [](const EngineStats& s) {
       return static_cast<double>(s.compactions_completed);
     }},
    {"f2db_compaction_failures_total", "Compaction attempts that failed.",
     "counter",
     [](const EngineStats& s) {
       return static_cast<double>(s.compaction_failures);
     }},
    {"f2db_retention_segments_deleted_total",
     "Sealed segments deleted by retention.", "counter",
     [](const EngineStats& s) {
       return static_cast<double>(s.retention_segments_deleted);
     }},
    {"f2db_retention_records_dropped_total",
     "Observations dropped by retention.", "counter",
     [](const EngineStats& s) {
       return static_cast<double>(s.retention_records_dropped);
     }},
    {"f2db_segment_records_recovered_total",
     "Observations restored from sealed segments at open.", "counter",
     [](const EngineStats& s) {
       return static_cast<double>(s.segment_records_recovered);
     }},
    {"f2db_disk_health",
     "Disk-health state: 0 ok, 1 degraded, 2 read-only (worst shard in "
     "sharded expositions).",
     "gauge",
     [](const EngineStats& s) { return static_cast<double>(s.disk_health); }},
    {"f2db_io_retries_total",
     "In-line retries of failed durability I/O.", "counter",
     [](const EngineStats& s) { return static_cast<double>(s.io_retries); }},
    {"f2db_read_only_entries_total",
     "Read-only brownout episodes entered.", "counter",
     [](const EngineStats& s) {
       return static_cast<double>(s.read_only_entries);
     }},
    {"f2db_read_only_exits_total",
     "Read-only brownout episodes exited via the health probe.", "counter",
     [](const EngineStats& s) {
       return static_cast<double>(s.read_only_exits);
     }},
    {"f2db_emergency_retentions_total",
     "Emergency retention passes spent on ENOSPC before read-only.",
     "counter",
     [](const EngineStats& s) {
       return static_cast<double>(s.emergency_retentions);
     }},
    {"f2db_scrub_cycles_total",
     "Completed integrity-scrub passes.", "counter",
     [](const EngineStats& s) { return static_cast<double>(s.scrub_cycles); }},
    {"f2db_scrub_bytes_total",
     "Bytes re-read and CRC-verified by the scrubber.", "counter",
     [](const EngineStats& s) { return static_cast<double>(s.scrub_bytes); }},
    {"f2db_scrub_corruptions_total",
     "Corrupt durable artifacts detected by the scrubber.", "counter",
     [](const EngineStats& s) {
       return static_cast<double>(s.scrub_corruptions);
     }},
    {"f2db_scrub_reseals_total",
     "Reseal compactions triggered by scrub-detected corruption.", "counter",
     [](const EngineStats& s) {
       return static_cast<double>(s.scrub_reseals);
     }},
};

/// The degradation-rung breakdown of one stats snapshot.
struct RungSample {
  const char* rung;
  std::size_t count;
};

std::array<RungSample, 3> Rungs(const EngineStats& stats) {
  return {{{"stale", stats.degraded_rows_stale},
           {"derived", stats.degraded_rows_derived},
           {"naive", stats.degraded_rows_naive}}};
}

constexpr const char* kDegradedName = "f2db_degraded_rows_total";
constexpr const char* kDegradedHelp =
    "Forecast rows served per degradation rung.";

/// The errno-family breakdown of durability-I/O failures (label "err").
std::array<RungSample, 3> ErrSamples(const EngineStats& stats) {
  return {{{"eio", stats.io_failures_eio},
           {"enospc", stats.io_failures_enospc},
           {"other", stats.io_failures_other}}};
}

constexpr const char* kIoFailuresName = "f2db_io_failures_total";
constexpr const char* kIoFailuresHelp =
    "Classified durability-I/O failures per errno family.";

}  // namespace

std::string PrometheusEscapeHelp(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string PrometheusEscapeLabelValue(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void AppendPrometheusCounter(std::string* out, std::string_view name,
                             std::string_view help, double value) {
  AppendFamilyHeader(out, name, help, "counter");
  out->append(name).append(" ").append(RenderValue(value)).append("\n");
}

void AppendPrometheusGauge(std::string* out, std::string_view name,
                           std::string_view help, double value) {
  AppendFamilyHeader(out, name, help, "gauge");
  out->append(name).append(" ").append(RenderValue(value)).append("\n");
}

std::string EngineStats::ToPrometheusText() const {
  std::string out;
  out.reserve(2048);
  for (const EngineFamily& family : kHeadFamilies) {
    AppendFamilyHeader(&out, family.name, family.help, family.type);
    out.append(family.name)
        .append(" ")
        .append(RenderValue(family.value(*this)))
        .append("\n");
  }

  AppendFamilyHeader(&out, kDegradedName, kDegradedHelp, "counter");
  for (const RungSample& entry : Rungs(*this)) {
    out.append(kDegradedName)
        .append("{rung=\"")
        .append(PrometheusEscapeLabelValue(entry.rung))
        .append("\"} ")
        .append(RenderValue(static_cast<double>(entry.count)))
        .append("\n");
  }

  for (const EngineFamily& family : kTailFamilies) {
    AppendFamilyHeader(&out, family.name, family.help, family.type);
    out.append(family.name)
        .append(" ")
        .append(RenderValue(family.value(*this)))
        .append("\n");
  }

  AppendFamilyHeader(&out, kIoFailuresName, kIoFailuresHelp, "counter");
  for (const RungSample& entry : ErrSamples(*this)) {
    out.append(kIoFailuresName)
        .append("{err=\"")
        .append(PrometheusEscapeLabelValue(entry.rung))
        .append("\"} ")
        .append(RenderValue(static_cast<double>(entry.count)))
        .append("\n");
  }
  return out;
}

std::string ShardedEngineStatsPrometheusText(
    const std::vector<std::pair<std::string, EngineStats>>& shards,
    const EngineStats& total) {
  std::string out;
  out.reserve(2048 + 1024 * shards.size());
  const auto render_family = [&](const EngineFamily& family) {
    AppendFamilyHeader(&out, family.name, family.help, family.type);
    for (const auto& [label, stats] : shards) {
      out.append(family.name)
          .append("{shard=\"")
          .append(PrometheusEscapeLabelValue(label))
          .append("\"} ")
          .append(RenderValue(family.value(stats)))
          .append("\n");
    }
    out.append(family.name)
        .append(" ")
        .append(RenderValue(family.value(total)))
        .append("\n");
  };
  for (const EngineFamily& family : kHeadFamilies) render_family(family);

  AppendFamilyHeader(&out, kDegradedName, kDegradedHelp, "counter");
  for (const auto& [label, stats] : shards) {
    for (const RungSample& entry : Rungs(stats)) {
      out.append(kDegradedName)
          .append("{rung=\"")
          .append(PrometheusEscapeLabelValue(entry.rung))
          .append("\",shard=\"")
          .append(PrometheusEscapeLabelValue(label))
          .append("\"} ")
          .append(RenderValue(static_cast<double>(entry.count)))
          .append("\n");
    }
  }
  for (const RungSample& entry : Rungs(total)) {
    out.append(kDegradedName)
        .append("{rung=\"")
        .append(PrometheusEscapeLabelValue(entry.rung))
        .append("\"} ")
        .append(RenderValue(static_cast<double>(entry.count)))
        .append("\n");
  }

  for (const EngineFamily& family : kTailFamilies) render_family(family);

  AppendFamilyHeader(&out, kIoFailuresName, kIoFailuresHelp, "counter");
  for (const auto& [label, stats] : shards) {
    for (const RungSample& entry : ErrSamples(stats)) {
      out.append(kIoFailuresName)
          .append("{err=\"")
          .append(PrometheusEscapeLabelValue(entry.rung))
          .append("\",shard=\"")
          .append(PrometheusEscapeLabelValue(label))
          .append("\"} ")
          .append(RenderValue(static_cast<double>(entry.count)))
          .append("\n");
    }
  }
  for (const RungSample& entry : ErrSamples(total)) {
    out.append(kIoFailuresName)
        .append("{err=\"")
        .append(PrometheusEscapeLabelValue(entry.rung))
        .append("\"} ")
        .append(RenderValue(static_cast<double>(entry.count)))
        .append("\n");
  }
  return out;
}

}  // namespace f2db
