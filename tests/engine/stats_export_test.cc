// Prometheus text exposition tests: family naming, HELP/TYPE pairing, the
// rung-labelled degradation family, the format's escaping rules, and the
// whole engine, sharded and server expositions pinned byte for byte.

#include "engine/stats_export.h"

#include <gtest/gtest.h>

#include <string>

#include "engine/engine.h"
#include "server/server.h"

namespace f2db {
namespace {

EngineStats MakeStats() {
  EngineStats stats;
  stats.queries = 42;
  stats.inserts = 7;
  stats.time_advances = 3;
  stats.reestimates = 2;
  stats.refit_failures = 1;
  stats.quarantines = 1;
  stats.degraded_rows_stale = 5;
  stats.degraded_rows_derived = 4;
  stats.degraded_rows_naive = 3;
  stats.total_query_seconds = 1.5;
  stats.total_maintenance_seconds = 0.25;
  return stats;
}

/// Every EngineStats field set to its own value: counters count up from
/// `base`, the seconds and milliseconds fields carry fractional parts.
EngineStats DistinctEngineStats(std::size_t base) {
  std::size_t next = base;
  const auto fraction = [&next](double part) {
    return static_cast<double>(++next) + part;
  };
  EngineStats s;
  s.queries = ++next;
  s.inserts = ++next;
  s.time_advances = ++next;
  s.reestimates = ++next;
  s.refit_failures = ++next;
  s.quarantines = ++next;
  s.degraded_rows_stale = ++next;
  s.degraded_rows_derived = ++next;
  s.degraded_rows_naive = ++next;
  s.deadline_expired_queries = ++next;
  s.brownout_refits_skipped = ++next;
  s.plan_cache_hits = ++next;
  s.plan_cache_misses = ++next;
  s.plan_cache_evictions = ++next;
  s.plan_cache_invalidations = ++next;
  s.plan_cache_size = ++next;
  s.total_query_seconds = fraction(0.5);
  s.total_maintenance_seconds = fraction(0.25);
  s.wal_records_appended = ++next;
  s.wal_bytes = ++next;
  s.wal_records_replayed = ++next;
  s.torn_tail_detected = ++next;
  s.recovery_duration_ms = fraction(0.125);
  s.last_compaction_age_seconds = fraction(0.1);
  s.segments_sealed = ++next;
  s.segment_records_sealed = ++next;
  s.segments_live = ++next;
  s.segment_live_bytes = ++next;
  s.compactions_completed = ++next;
  s.compaction_failures = ++next;
  s.retention_segments_deleted = ++next;
  s.retention_records_dropped = ++next;
  s.segment_records_recovered = ++next;
  s.disk_health = ++next;
  s.io_retries = ++next;
  s.io_failures_eio = ++next;
  s.io_failures_enospc = ++next;
  s.io_failures_other = ++next;
  s.read_only_entries = ++next;
  s.read_only_exits = ++next;
  s.emergency_retentions = ++next;
  s.scrub_cycles = ++next;
  s.scrub_bytes = ++next;
  s.scrub_corruptions = ++next;
  s.scrub_reseals = ++next;
  return s;
}

/// Every ServerStats field set to its own value, except requests_shed,
/// which stats() fills as the sum of its two causes.
ServerStats DistinctServerStats() {
  std::size_t next = 100;
  ServerStats s;
  s.connections_accepted = ++next;
  s.connections_closed = ++next;
  s.connections_refused = ++next;
  s.connections_evicted = ++next;
  s.read_pauses = ++next;
  s.requests_received = ++next;
  s.responses_sent = ++next;
  s.requests_shed_admission = ++next;
  s.requests_shed_shutdown = ++next;
  s.requests_shed = s.requests_shed_admission + s.requests_shed_shutdown;
  s.requests_throttled = ++next;
  s.deadline_expired_admission = ++next;
  s.deadline_expired_queue = ++next;
  s.protocol_errors = ++next;
  s.brownout_episodes = ++next;
  s.brownout_queries = ++next;
  s.brownout_active = ++next;
  s.in_flight_requests = ++next;
  return s;
}

TEST(StatsExportTest, EveryCounterFamilyPresentWithHelpAndType) {
  const std::string text = MakeStats().ToPrometheusText();
  for (const char* name :
       {"f2db_queries_total", "f2db_inserts_total", "f2db_time_advances_total",
        "f2db_reestimates_total", "f2db_refit_failures_total",
        "f2db_quarantines_total", "f2db_degraded_rows_total",
        "f2db_query_seconds_total", "f2db_maintenance_seconds_total"}) {
    SCOPED_TRACE(name);
    EXPECT_NE(text.find(std::string("# HELP ") + name + " "),
              std::string::npos);
    EXPECT_NE(text.find(std::string("# TYPE ") + name + " counter"),
              std::string::npos);
  }
}

TEST(StatsExportTest, SampleValuesRendered) {
  const std::string text = MakeStats().ToPrometheusText();
  EXPECT_NE(text.find("f2db_queries_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("f2db_inserts_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("f2db_query_seconds_total 1.5\n"), std::string::npos);
  EXPECT_NE(text.find("f2db_maintenance_seconds_total 0.25\n"),
            std::string::npos);
}

TEST(StatsExportTest, DegradationRungsShareOneLabelledFamily) {
  const std::string text = MakeStats().ToPrometheusText();
  EXPECT_NE(text.find("f2db_degraded_rows_total{rung=\"stale\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("f2db_degraded_rows_total{rung=\"derived\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("f2db_degraded_rows_total{rung=\"naive\"} 3\n"),
            std::string::npos);
  // One TYPE line for the family, not one per rung.
  std::size_t type_lines = 0;
  std::size_t pos = 0;
  const std::string needle = "# TYPE f2db_degraded_rows_total";
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    ++type_lines;
    pos += needle.size();
  }
  EXPECT_EQ(type_lines, 1u);
}

TEST(StatsExportTest, FreshStatsRenderZeroes) {
  const std::string text = EngineStats{}.ToPrometheusText();
  EXPECT_NE(text.find("f2db_queries_total 0\n"), std::string::npos);
  EXPECT_NE(text.find("f2db_degraded_rows_total{rung=\"stale\"} 0\n"),
            std::string::npos);
}

TEST(StatsExportTest, StorageFamiliesGoldenText) {
  // The storage-lifecycle families, pinned as one contiguous golden block:
  // renaming a family, reordering the exposition, or changing a HELP
  // string is a scrape-breaking change and must show up here.
  EngineStats stats = MakeStats();
  stats.segments_sealed = 4;
  stats.segment_records_sealed = 4096;
  stats.segments_live = 3;
  stats.segment_live_bytes = 9000;
  stats.compactions_completed = 4;
  stats.compaction_failures = 1;
  stats.retention_segments_deleted = 1;
  stats.retention_records_dropped = 1024;
  stats.segment_records_recovered = 2048;
  const std::string text = stats.ToPrometheusText();
  const char* golden =
      "# HELP f2db_segments_sealed_total Sealed segments written by this "
      "process.\n"
      "# TYPE f2db_segments_sealed_total counter\n"
      "f2db_segments_sealed_total 4\n"
      "# HELP f2db_segment_records_sealed_total Observations sealed into "
      "segments by this process.\n"
      "# TYPE f2db_segment_records_sealed_total counter\n"
      "f2db_segment_records_sealed_total 4096\n"
      "# HELP f2db_segments_live Sealed segments the current manifest "
      "references.\n"
      "# TYPE f2db_segments_live gauge\n"
      "f2db_segments_live 3\n"
      "# HELP f2db_segment_live_bytes On-disk bytes of the live "
      "sealed-segment chain.\n"
      "# TYPE f2db_segment_live_bytes gauge\n"
      "f2db_segment_live_bytes 9000\n"
      "# HELP f2db_compactions_completed_total Compactions that committed "
      "their manifest.\n"
      "# TYPE f2db_compactions_completed_total counter\n"
      "f2db_compactions_completed_total 4\n"
      "# HELP f2db_compaction_failures_total Compaction attempts that "
      "failed.\n"
      "# TYPE f2db_compaction_failures_total counter\n"
      "f2db_compaction_failures_total 1\n"
      "# HELP f2db_retention_segments_deleted_total Sealed segments deleted "
      "by retention.\n"
      "# TYPE f2db_retention_segments_deleted_total counter\n"
      "f2db_retention_segments_deleted_total 1\n"
      "# HELP f2db_retention_records_dropped_total Observations dropped by "
      "retention.\n"
      "# TYPE f2db_retention_records_dropped_total counter\n"
      "f2db_retention_records_dropped_total 1024\n"
      "# HELP f2db_segment_records_recovered_total Observations restored "
      "from sealed segments at open.\n"
      "# TYPE f2db_segment_records_recovered_total counter\n"
      "f2db_segment_records_recovered_total 2048\n";
  EXPECT_NE(text.find(golden), std::string::npos) << text;
}

TEST(StatsExportTest, ShardedStorageFamiliesCarryShardLabels) {
  EngineStats shard0;
  shard0.segments_sealed = 2;
  shard0.retention_records_dropped = 100;
  EngineStats shard1;
  shard1.segments_sealed = 3;
  shard1.retention_records_dropped = 50;
  EngineStats total;
  total.segments_sealed = 5;
  total.retention_records_dropped = 150;
  const std::string text = ShardedEngineStatsPrometheusText(
      {{"0", shard0}, {"1", shard1}}, total);
  // Per-shard samples labelled, followed by the unlabelled fleet total.
  EXPECT_NE(text.find("f2db_segments_sealed_total{shard=\"0\"} 2\n"
                      "f2db_segments_sealed_total{shard=\"1\"} 3\n"
                      "f2db_segments_sealed_total 5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("f2db_retention_records_dropped_total{shard=\"0\"} 100\n"
                "f2db_retention_records_dropped_total{shard=\"1\"} 50\n"
                "f2db_retention_records_dropped_total 150\n"),
      std::string::npos)
      << text;
}

TEST(StatsExportTest, HelpEscapingBackslashAndNewline) {
  EXPECT_EQ(PrometheusEscapeHelp("plain help"), "plain help");
  EXPECT_EQ(PrometheusEscapeHelp("a\\b"), "a\\\\b");
  EXPECT_EQ(PrometheusEscapeHelp("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(PrometheusEscapeHelp("quote \" kept"), "quote \" kept");
}

TEST(StatsExportTest, LabelValueEscapingAddsQuote) {
  EXPECT_EQ(PrometheusEscapeLabelValue("stale"), "stale");
  EXPECT_EQ(PrometheusEscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(PrometheusEscapeLabelValue("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(PrometheusEscapeLabelValue("two\nlines"), "two\\nlines");
}

TEST(StatsExportTest, AppendHelpersEscapeHelpText) {
  std::string out;
  AppendPrometheusCounter(&out, "x_total", "help with\nnewline", 3);
  EXPECT_NE(out.find("# HELP x_total help with\\nnewline\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE x_total counter\n"), std::string::npos);
  EXPECT_NE(out.find("x_total 3\n"), std::string::npos);

  std::string gauge;
  AppendPrometheusGauge(&gauge, "depth", "queue depth", 8);
  EXPECT_NE(gauge.find("# TYPE depth gauge\n"), std::string::npos);
  EXPECT_NE(gauge.find("depth 8\n"), std::string::npos);
}

TEST(StatsExportTest, FullExpositionIsPinned) {
  // The three expositions whole, every field at its own value: family
  // order, every HELP byte, label layout and value formatting are part of
  // the scrape contract.
  const char* kEngineGolden =
      "# HELP f2db_queries_total Forecast queries served.\n"
      "# TYPE f2db_queries_total counter\n"
      "f2db_queries_total 1\n"
      "# HELP f2db_inserts_total Facts accepted into the insert buffer.\n"
      "# TYPE f2db_inserts_total counter\n"
      "f2db_inserts_total 2\n"
      "# HELP f2db_time_advances_total Batched advances of the cube's "
      "time frontier.\n"
      "# TYPE f2db_time_advances_total counter\n"
      "f2db_time_advances_total 3\n"
      "# HELP f2db_reestimates_total Lazy model re-estimations published.\n"
      "# TYPE f2db_reestimates_total counter\n"
      "f2db_reestimates_total 4\n"
      "# HELP f2db_refit_failures_total Lazy re-estimation attempts that "
      "returned non-OK.\n"
      "# TYPE f2db_refit_failures_total counter\n"
      "f2db_refit_failures_total 5\n"
      "# HELP f2db_quarantines_total Nodes quarantined after consecutive "
      "refit failures.\n"
      "# TYPE f2db_quarantines_total counter\n"
      "f2db_quarantines_total 6\n"
      "# HELP f2db_degraded_rows_total Forecast rows served per "
      "degradation rung.\n"
      "# TYPE f2db_degraded_rows_total counter\n"
      "f2db_degraded_rows_total{rung=\"stale\"} 7\n"
      "f2db_degraded_rows_total{rung=\"derived\"} 8\n"
      "f2db_degraded_rows_total{rung=\"naive\"} 9\n"
      "# HELP f2db_deadline_expired_queries_total Queries rejected "
      "because their deadline had already expired.\n"
      "# TYPE f2db_deadline_expired_queries_total counter\n"
      "f2db_deadline_expired_queries_total 10\n"
      "# HELP f2db_brownout_refits_skipped_total Lazy re-estimations "
      "skipped by brownout-mode queries.\n"
      "# TYPE f2db_brownout_refits_skipped_total counter\n"
      "f2db_brownout_refits_skipped_total 11\n"
      "# HELP f2db_plan_cache_hits_total Statement parses served from the "
      "plan cache.\n"
      "# TYPE f2db_plan_cache_hits_total counter\n"
      "f2db_plan_cache_hits_total 12\n"
      "# HELP f2db_plan_cache_misses_total Statement parses that missed "
      "the plan cache.\n"
      "# TYPE f2db_plan_cache_misses_total counter\n"
      "f2db_plan_cache_misses_total 13\n"
      "# HELP f2db_plan_cache_evictions_total Plan-cache entries dropped "
      "by the LRU capacity bound.\n"
      "# TYPE f2db_plan_cache_evictions_total counter\n"
      "f2db_plan_cache_evictions_total 14\n"
      "# HELP f2db_plan_cache_invalidations_total Whole plan-cache drops "
      "on configuration install.\n"
      "# TYPE f2db_plan_cache_invalidations_total counter\n"
      "f2db_plan_cache_invalidations_total 15\n"
      "# HELP f2db_plan_cache_size Plans currently cached.\n"
      "# TYPE f2db_plan_cache_size gauge\n"
      "f2db_plan_cache_size 16\n"
      "# HELP f2db_query_seconds_total Wall-clock seconds spent in the "
      "query layer.\n"
      "# TYPE f2db_query_seconds_total counter\n"
      "f2db_query_seconds_total 17.5\n"
      "# HELP f2db_maintenance_seconds_total Wall-clock seconds spent in "
      "maintenance.\n"
      "# TYPE f2db_maintenance_seconds_total counter\n"
      "f2db_maintenance_seconds_total 18.25\n"
      "# HELP f2db_wal_records_appended_total WAL records appended by "
      "this process.\n"
      "# TYPE f2db_wal_records_appended_total counter\n"
      "f2db_wal_records_appended_total 19\n"
      "# HELP f2db_wal_bytes_total WAL bytes appended by this process.\n"
      "# TYPE f2db_wal_bytes_total counter\n"
      "f2db_wal_bytes_total 20\n"
      "# HELP f2db_wal_records_replayed_total WAL records replayed by "
      "recovery at open.\n"
      "# TYPE f2db_wal_records_replayed_total counter\n"
      "f2db_wal_records_replayed_total 21\n"
      "# HELP f2db_torn_tail_detected 1 when recovery truncated a torn "
      "final WAL record.\n"
      "# TYPE f2db_torn_tail_detected gauge\n"
      "f2db_torn_tail_detected 22\n"
      "# HELP f2db_recovery_duration_ms Milliseconds recovery took when "
      "the engine opened.\n"
      "# TYPE f2db_recovery_duration_ms gauge\n"
      "f2db_recovery_duration_ms 23.125\n"
      "# HELP f2db_last_compaction_age_seconds Seconds since the last "
      "completed compaction (the durable cut); -1 when none completed "
      "yet.\n"
      "# TYPE f2db_last_compaction_age_seconds gauge\n"
      "f2db_last_compaction_age_seconds 24.100000000000001\n"
      "# HELP f2db_segments_sealed_total Sealed segments written by this "
      "process.\n"
      "# TYPE f2db_segments_sealed_total counter\n"
      "f2db_segments_sealed_total 25\n"
      "# HELP f2db_segment_records_sealed_total Observations sealed into "
      "segments by this process.\n"
      "# TYPE f2db_segment_records_sealed_total counter\n"
      "f2db_segment_records_sealed_total 26\n"
      "# HELP f2db_segments_live Sealed segments the current manifest "
      "references.\n"
      "# TYPE f2db_segments_live gauge\n"
      "f2db_segments_live 27\n"
      "# HELP f2db_segment_live_bytes On-disk bytes of the live "
      "sealed-segment chain.\n"
      "# TYPE f2db_segment_live_bytes gauge\n"
      "f2db_segment_live_bytes 28\n"
      "# HELP f2db_compactions_completed_total Compactions that committed "
      "their manifest.\n"
      "# TYPE f2db_compactions_completed_total counter\n"
      "f2db_compactions_completed_total 29\n"
      "# HELP f2db_compaction_failures_total Compaction attempts that "
      "failed.\n"
      "# TYPE f2db_compaction_failures_total counter\n"
      "f2db_compaction_failures_total 30\n"
      "# HELP f2db_retention_segments_deleted_total Sealed segments "
      "deleted by retention.\n"
      "# TYPE f2db_retention_segments_deleted_total counter\n"
      "f2db_retention_segments_deleted_total 31\n"
      "# HELP f2db_retention_records_dropped_total Observations dropped "
      "by retention.\n"
      "# TYPE f2db_retention_records_dropped_total counter\n"
      "f2db_retention_records_dropped_total 32\n"
      "# HELP f2db_segment_records_recovered_total Observations restored "
      "from sealed segments at open.\n"
      "# TYPE f2db_segment_records_recovered_total counter\n"
      "f2db_segment_records_recovered_total 33\n"
      "# HELP f2db_disk_health Disk-health state: 0 ok, 1 degraded, 2 "
      "read-only (worst shard in sharded expositions).\n"
      "# TYPE f2db_disk_health gauge\n"
      "f2db_disk_health 34\n"
      "# HELP f2db_io_retries_total In-line retries of failed durability "
      "I/O.\n"
      "# TYPE f2db_io_retries_total counter\n"
      "f2db_io_retries_total 35\n"
      "# HELP f2db_read_only_entries_total Read-only brownout episodes "
      "entered.\n"
      "# TYPE f2db_read_only_entries_total counter\n"
      "f2db_read_only_entries_total 39\n"
      "# HELP f2db_read_only_exits_total Read-only brownout episodes "
      "exited via the health probe.\n"
      "# TYPE f2db_read_only_exits_total counter\n"
      "f2db_read_only_exits_total 40\n"
      "# HELP f2db_emergency_retentions_total Emergency retention passes "
      "spent on ENOSPC before read-only.\n"
      "# TYPE f2db_emergency_retentions_total counter\n"
      "f2db_emergency_retentions_total 41\n"
      "# HELP f2db_scrub_cycles_total Completed integrity-scrub passes.\n"
      "# TYPE f2db_scrub_cycles_total counter\n"
      "f2db_scrub_cycles_total 42\n"
      "# HELP f2db_scrub_bytes_total Bytes re-read and CRC-verified by "
      "the scrubber.\n"
      "# TYPE f2db_scrub_bytes_total counter\n"
      "f2db_scrub_bytes_total 43\n"
      "# HELP f2db_scrub_corruptions_total Corrupt durable artifacts "
      "detected by the scrubber.\n"
      "# TYPE f2db_scrub_corruptions_total counter\n"
      "f2db_scrub_corruptions_total 44\n"
      "# HELP f2db_scrub_reseals_total Reseal compactions triggered by "
      "scrub-detected corruption.\n"
      "# TYPE f2db_scrub_reseals_total counter\n"
      "f2db_scrub_reseals_total 45\n"
      "# HELP f2db_io_failures_total Classified durability-I/O failures "
      "per errno family.\n"
      "# TYPE f2db_io_failures_total counter\n"
      "f2db_io_failures_total{err=\"eio\"} 36\n"
      "f2db_io_failures_total{err=\"enospc\"} 37\n"
      "f2db_io_failures_total{err=\"other\"} 38\n";
  const char* kShardedGolden =
      "# HELP f2db_queries_total Forecast queries served.\n"
      "# TYPE f2db_queries_total counter\n"
      "f2db_queries_total{shard=\"0\"} 1001\n"
      "f2db_queries_total{shard=\"1\"} 2001\n"
      "f2db_queries_total 3001\n"
      "# HELP f2db_inserts_total Facts accepted into the insert buffer.\n"
      "# TYPE f2db_inserts_total counter\n"
      "f2db_inserts_total{shard=\"0\"} 1002\n"
      "f2db_inserts_total{shard=\"1\"} 2002\n"
      "f2db_inserts_total 3002\n"
      "# HELP f2db_time_advances_total Batched advances of the cube's "
      "time frontier.\n"
      "# TYPE f2db_time_advances_total counter\n"
      "f2db_time_advances_total{shard=\"0\"} 1003\n"
      "f2db_time_advances_total{shard=\"1\"} 2003\n"
      "f2db_time_advances_total 3003\n"
      "# HELP f2db_reestimates_total Lazy model re-estimations published.\n"
      "# TYPE f2db_reestimates_total counter\n"
      "f2db_reestimates_total{shard=\"0\"} 1004\n"
      "f2db_reestimates_total{shard=\"1\"} 2004\n"
      "f2db_reestimates_total 3004\n"
      "# HELP f2db_refit_failures_total Lazy re-estimation attempts that "
      "returned non-OK.\n"
      "# TYPE f2db_refit_failures_total counter\n"
      "f2db_refit_failures_total{shard=\"0\"} 1005\n"
      "f2db_refit_failures_total{shard=\"1\"} 2005\n"
      "f2db_refit_failures_total 3005\n"
      "# HELP f2db_quarantines_total Nodes quarantined after consecutive "
      "refit failures.\n"
      "# TYPE f2db_quarantines_total counter\n"
      "f2db_quarantines_total{shard=\"0\"} 1006\n"
      "f2db_quarantines_total{shard=\"1\"} 2006\n"
      "f2db_quarantines_total 3006\n"
      "# HELP f2db_degraded_rows_total Forecast rows served per "
      "degradation rung.\n"
      "# TYPE f2db_degraded_rows_total counter\n"
      "f2db_degraded_rows_total{rung=\"stale\",shard=\"0\"} 1007\n"
      "f2db_degraded_rows_total{rung=\"derived\",shard=\"0\"} 1008\n"
      "f2db_degraded_rows_total{rung=\"naive\",shard=\"0\"} 1009\n"
      "f2db_degraded_rows_total{rung=\"stale\",shard=\"1\"} 2007\n"
      "f2db_degraded_rows_total{rung=\"derived\",shard=\"1\"} 2008\n"
      "f2db_degraded_rows_total{rung=\"naive\",shard=\"1\"} 2009\n"
      "f2db_degraded_rows_total{rung=\"stale\"} 3007\n"
      "f2db_degraded_rows_total{rung=\"derived\"} 3008\n"
      "f2db_degraded_rows_total{rung=\"naive\"} 3009\n"
      "# HELP f2db_deadline_expired_queries_total Queries rejected "
      "because their deadline had already expired.\n"
      "# TYPE f2db_deadline_expired_queries_total counter\n"
      "f2db_deadline_expired_queries_total{shard=\"0\"} 1010\n"
      "f2db_deadline_expired_queries_total{shard=\"1\"} 2010\n"
      "f2db_deadline_expired_queries_total 3010\n"
      "# HELP f2db_brownout_refits_skipped_total Lazy re-estimations "
      "skipped by brownout-mode queries.\n"
      "# TYPE f2db_brownout_refits_skipped_total counter\n"
      "f2db_brownout_refits_skipped_total{shard=\"0\"} 1011\n"
      "f2db_brownout_refits_skipped_total{shard=\"1\"} 2011\n"
      "f2db_brownout_refits_skipped_total 3011\n"
      "# HELP f2db_plan_cache_hits_total Statement parses served from the "
      "plan cache.\n"
      "# TYPE f2db_plan_cache_hits_total counter\n"
      "f2db_plan_cache_hits_total{shard=\"0\"} 1012\n"
      "f2db_plan_cache_hits_total{shard=\"1\"} 2012\n"
      "f2db_plan_cache_hits_total 3012\n"
      "# HELP f2db_plan_cache_misses_total Statement parses that missed "
      "the plan cache.\n"
      "# TYPE f2db_plan_cache_misses_total counter\n"
      "f2db_plan_cache_misses_total{shard=\"0\"} 1013\n"
      "f2db_plan_cache_misses_total{shard=\"1\"} 2013\n"
      "f2db_plan_cache_misses_total 3013\n"
      "# HELP f2db_plan_cache_evictions_total Plan-cache entries dropped "
      "by the LRU capacity bound.\n"
      "# TYPE f2db_plan_cache_evictions_total counter\n"
      "f2db_plan_cache_evictions_total{shard=\"0\"} 1014\n"
      "f2db_plan_cache_evictions_total{shard=\"1\"} 2014\n"
      "f2db_plan_cache_evictions_total 3014\n"
      "# HELP f2db_plan_cache_invalidations_total Whole plan-cache drops "
      "on configuration install.\n"
      "# TYPE f2db_plan_cache_invalidations_total counter\n"
      "f2db_plan_cache_invalidations_total{shard=\"0\"} 1015\n"
      "f2db_plan_cache_invalidations_total{shard=\"1\"} 2015\n"
      "f2db_plan_cache_invalidations_total 3015\n"
      "# HELP f2db_plan_cache_size Plans currently cached.\n"
      "# TYPE f2db_plan_cache_size gauge\n"
      "f2db_plan_cache_size{shard=\"0\"} 1016\n"
      "f2db_plan_cache_size{shard=\"1\"} 2016\n"
      "f2db_plan_cache_size 3016\n"
      "# HELP f2db_query_seconds_total Wall-clock seconds spent in the "
      "query layer.\n"
      "# TYPE f2db_query_seconds_total counter\n"
      "f2db_query_seconds_total{shard=\"0\"} 1017.5\n"
      "f2db_query_seconds_total{shard=\"1\"} 2017.5\n"
      "f2db_query_seconds_total 3017.5\n"
      "# HELP f2db_maintenance_seconds_total Wall-clock seconds spent in "
      "maintenance.\n"
      "# TYPE f2db_maintenance_seconds_total counter\n"
      "f2db_maintenance_seconds_total{shard=\"0\"} 1018.25\n"
      "f2db_maintenance_seconds_total{shard=\"1\"} 2018.25\n"
      "f2db_maintenance_seconds_total 3018.25\n"
      "# HELP f2db_wal_records_appended_total WAL records appended by "
      "this process.\n"
      "# TYPE f2db_wal_records_appended_total counter\n"
      "f2db_wal_records_appended_total{shard=\"0\"} 1019\n"
      "f2db_wal_records_appended_total{shard=\"1\"} 2019\n"
      "f2db_wal_records_appended_total 3019\n"
      "# HELP f2db_wal_bytes_total WAL bytes appended by this process.\n"
      "# TYPE f2db_wal_bytes_total counter\n"
      "f2db_wal_bytes_total{shard=\"0\"} 1020\n"
      "f2db_wal_bytes_total{shard=\"1\"} 2020\n"
      "f2db_wal_bytes_total 3020\n"
      "# HELP f2db_wal_records_replayed_total WAL records replayed by "
      "recovery at open.\n"
      "# TYPE f2db_wal_records_replayed_total counter\n"
      "f2db_wal_records_replayed_total{shard=\"0\"} 1021\n"
      "f2db_wal_records_replayed_total{shard=\"1\"} 2021\n"
      "f2db_wal_records_replayed_total 3021\n"
      "# HELP f2db_torn_tail_detected 1 when recovery truncated a torn "
      "final WAL record.\n"
      "# TYPE f2db_torn_tail_detected gauge\n"
      "f2db_torn_tail_detected{shard=\"0\"} 1022\n"
      "f2db_torn_tail_detected{shard=\"1\"} 2022\n"
      "f2db_torn_tail_detected 3022\n"
      "# HELP f2db_recovery_duration_ms Milliseconds recovery took when "
      "the engine opened.\n"
      "# TYPE f2db_recovery_duration_ms gauge\n"
      "f2db_recovery_duration_ms{shard=\"0\"} 1023.125\n"
      "f2db_recovery_duration_ms{shard=\"1\"} 2023.125\n"
      "f2db_recovery_duration_ms 3023.125\n"
      "# HELP f2db_last_compaction_age_seconds Seconds since the last "
      "completed compaction (the durable cut); -1 when none completed "
      "yet.\n"
      "# TYPE f2db_last_compaction_age_seconds gauge\n"
      "f2db_last_compaction_age_seconds{shard=\"0\"} 1024.0999999999999\n"
      "f2db_last_compaction_age_seconds{shard=\"1\"} 2024.0999999999999\n"
      "f2db_last_compaction_age_seconds 3024.0999999999999\n"
      "# HELP f2db_segments_sealed_total Sealed segments written by this "
      "process.\n"
      "# TYPE f2db_segments_sealed_total counter\n"
      "f2db_segments_sealed_total{shard=\"0\"} 1025\n"
      "f2db_segments_sealed_total{shard=\"1\"} 2025\n"
      "f2db_segments_sealed_total 3025\n"
      "# HELP f2db_segment_records_sealed_total Observations sealed into "
      "segments by this process.\n"
      "# TYPE f2db_segment_records_sealed_total counter\n"
      "f2db_segment_records_sealed_total{shard=\"0\"} 1026\n"
      "f2db_segment_records_sealed_total{shard=\"1\"} 2026\n"
      "f2db_segment_records_sealed_total 3026\n"
      "# HELP f2db_segments_live Sealed segments the current manifest "
      "references.\n"
      "# TYPE f2db_segments_live gauge\n"
      "f2db_segments_live{shard=\"0\"} 1027\n"
      "f2db_segments_live{shard=\"1\"} 2027\n"
      "f2db_segments_live 3027\n"
      "# HELP f2db_segment_live_bytes On-disk bytes of the live "
      "sealed-segment chain.\n"
      "# TYPE f2db_segment_live_bytes gauge\n"
      "f2db_segment_live_bytes{shard=\"0\"} 1028\n"
      "f2db_segment_live_bytes{shard=\"1\"} 2028\n"
      "f2db_segment_live_bytes 3028\n"
      "# HELP f2db_compactions_completed_total Compactions that committed "
      "their manifest.\n"
      "# TYPE f2db_compactions_completed_total counter\n"
      "f2db_compactions_completed_total{shard=\"0\"} 1029\n"
      "f2db_compactions_completed_total{shard=\"1\"} 2029\n"
      "f2db_compactions_completed_total 3029\n"
      "# HELP f2db_compaction_failures_total Compaction attempts that "
      "failed.\n"
      "# TYPE f2db_compaction_failures_total counter\n"
      "f2db_compaction_failures_total{shard=\"0\"} 1030\n"
      "f2db_compaction_failures_total{shard=\"1\"} 2030\n"
      "f2db_compaction_failures_total 3030\n"
      "# HELP f2db_retention_segments_deleted_total Sealed segments "
      "deleted by retention.\n"
      "# TYPE f2db_retention_segments_deleted_total counter\n"
      "f2db_retention_segments_deleted_total{shard=\"0\"} 1031\n"
      "f2db_retention_segments_deleted_total{shard=\"1\"} 2031\n"
      "f2db_retention_segments_deleted_total 3031\n"
      "# HELP f2db_retention_records_dropped_total Observations dropped "
      "by retention.\n"
      "# TYPE f2db_retention_records_dropped_total counter\n"
      "f2db_retention_records_dropped_total{shard=\"0\"} 1032\n"
      "f2db_retention_records_dropped_total{shard=\"1\"} 2032\n"
      "f2db_retention_records_dropped_total 3032\n"
      "# HELP f2db_segment_records_recovered_total Observations restored "
      "from sealed segments at open.\n"
      "# TYPE f2db_segment_records_recovered_total counter\n"
      "f2db_segment_records_recovered_total{shard=\"0\"} 1033\n"
      "f2db_segment_records_recovered_total{shard=\"1\"} 2033\n"
      "f2db_segment_records_recovered_total 3033\n"
      "# HELP f2db_disk_health Disk-health state: 0 ok, 1 degraded, 2 "
      "read-only (worst shard in sharded expositions).\n"
      "# TYPE f2db_disk_health gauge\n"
      "f2db_disk_health{shard=\"0\"} 1034\n"
      "f2db_disk_health{shard=\"1\"} 2034\n"
      "f2db_disk_health 3034\n"
      "# HELP f2db_io_retries_total In-line retries of failed durability "
      "I/O.\n"
      "# TYPE f2db_io_retries_total counter\n"
      "f2db_io_retries_total{shard=\"0\"} 1035\n"
      "f2db_io_retries_total{shard=\"1\"} 2035\n"
      "f2db_io_retries_total 3035\n"
      "# HELP f2db_read_only_entries_total Read-only brownout episodes "
      "entered.\n"
      "# TYPE f2db_read_only_entries_total counter\n"
      "f2db_read_only_entries_total{shard=\"0\"} 1039\n"
      "f2db_read_only_entries_total{shard=\"1\"} 2039\n"
      "f2db_read_only_entries_total 3039\n"
      "# HELP f2db_read_only_exits_total Read-only brownout episodes "
      "exited via the health probe.\n"
      "# TYPE f2db_read_only_exits_total counter\n"
      "f2db_read_only_exits_total{shard=\"0\"} 1040\n"
      "f2db_read_only_exits_total{shard=\"1\"} 2040\n"
      "f2db_read_only_exits_total 3040\n"
      "# HELP f2db_emergency_retentions_total Emergency retention passes "
      "spent on ENOSPC before read-only.\n"
      "# TYPE f2db_emergency_retentions_total counter\n"
      "f2db_emergency_retentions_total{shard=\"0\"} 1041\n"
      "f2db_emergency_retentions_total{shard=\"1\"} 2041\n"
      "f2db_emergency_retentions_total 3041\n"
      "# HELP f2db_scrub_cycles_total Completed integrity-scrub passes.\n"
      "# TYPE f2db_scrub_cycles_total counter\n"
      "f2db_scrub_cycles_total{shard=\"0\"} 1042\n"
      "f2db_scrub_cycles_total{shard=\"1\"} 2042\n"
      "f2db_scrub_cycles_total 3042\n"
      "# HELP f2db_scrub_bytes_total Bytes re-read and CRC-verified by "
      "the scrubber.\n"
      "# TYPE f2db_scrub_bytes_total counter\n"
      "f2db_scrub_bytes_total{shard=\"0\"} 1043\n"
      "f2db_scrub_bytes_total{shard=\"1\"} 2043\n"
      "f2db_scrub_bytes_total 3043\n"
      "# HELP f2db_scrub_corruptions_total Corrupt durable artifacts "
      "detected by the scrubber.\n"
      "# TYPE f2db_scrub_corruptions_total counter\n"
      "f2db_scrub_corruptions_total{shard=\"0\"} 1044\n"
      "f2db_scrub_corruptions_total{shard=\"1\"} 2044\n"
      "f2db_scrub_corruptions_total 3044\n"
      "# HELP f2db_scrub_reseals_total Reseal compactions triggered by "
      "scrub-detected corruption.\n"
      "# TYPE f2db_scrub_reseals_total counter\n"
      "f2db_scrub_reseals_total{shard=\"0\"} 1045\n"
      "f2db_scrub_reseals_total{shard=\"1\"} 2045\n"
      "f2db_scrub_reseals_total 3045\n"
      "# HELP f2db_io_failures_total Classified durability-I/O failures "
      "per errno family.\n"
      "# TYPE f2db_io_failures_total counter\n"
      "f2db_io_failures_total{err=\"eio\",shard=\"0\"} 1036\n"
      "f2db_io_failures_total{err=\"enospc\",shard=\"0\"} 1037\n"
      "f2db_io_failures_total{err=\"other\",shard=\"0\"} 1038\n"
      "f2db_io_failures_total{err=\"eio\",shard=\"1\"} 2036\n"
      "f2db_io_failures_total{err=\"enospc\",shard=\"1\"} 2037\n"
      "f2db_io_failures_total{err=\"other\",shard=\"1\"} 2038\n"
      "f2db_io_failures_total{err=\"eio\"} 3036\n"
      "f2db_io_failures_total{err=\"enospc\"} 3037\n"
      "f2db_io_failures_total{err=\"other\"} 3038\n";
  const char* kServerGolden =
      "# HELP f2db_server_connections_accepted_total Client connections "
      "accepted.\n"
      "# TYPE f2db_server_connections_accepted_total counter\n"
      "f2db_server_connections_accepted_total 101\n"
      "# HELP f2db_server_connections_closed_total Client connections "
      "closed (peer or server side).\n"
      "# TYPE f2db_server_connections_closed_total counter\n"
      "f2db_server_connections_closed_total 102\n"
      "# HELP f2db_server_connections_refused_total Connections refused "
      "at the max_connections cap.\n"
      "# TYPE f2db_server_connections_refused_total counter\n"
      "f2db_server_connections_refused_total 103\n"
      "# HELP f2db_server_connections_evicted_total Connections dropped "
      "by backpressure (outbound hard cap or the slow-client grace "
      "timer).\n"
      "# TYPE f2db_server_connections_evicted_total counter\n"
      "f2db_server_connections_evicted_total 104\n"
      "# HELP f2db_server_read_pauses_total Times a connection crossed "
      "the outbound high watermark and had its reading paused.\n"
      "# TYPE f2db_server_read_pauses_total counter\n"
      "f2db_server_read_pauses_total 105\n"
      "# HELP f2db_server_requests_total Request frames received.\n"
      "# TYPE f2db_server_requests_total counter\n"
      "f2db_server_requests_total 106\n"
      "# HELP f2db_server_responses_total Response frames queued for "
      "transmission.\n"
      "# TYPE f2db_server_responses_total counter\n"
      "f2db_server_responses_total 107\n"
      "# HELP f2db_server_requests_shed_total Requests answered "
      "kUnavailable by admission control, by cause.\n"
      "# TYPE f2db_server_requests_shed_total counter\n"
      "f2db_server_requests_shed_total{cause=\"admission\"} 108\n"
      "f2db_server_requests_shed_total{cause=\"shutdown\"} 109\n"
      "f2db_server_requests_shed_total 217\n"
      "# HELP f2db_server_requests_throttled_total Requests refused with "
      "kResourceExhausted by a tenant's token bucket.\n"
      "# TYPE f2db_server_requests_throttled_total counter\n"
      "f2db_server_requests_throttled_total 110\n"
      "# HELP f2db_server_deadline_expired_total Requests rejected with "
      "kDeadlineExceeded before execution, by pipeline stage.\n"
      "# TYPE f2db_server_deadline_expired_total counter\n"
      "f2db_server_deadline_expired_total{stage=\"admission\"} 111\n"
      "f2db_server_deadline_expired_total{stage=\"queue\"} 112\n"
      "f2db_server_deadline_expired_total 223\n"
      "# HELP f2db_server_protocol_errors_total Malformed or oversized "
      "frames received.\n"
      "# TYPE f2db_server_protocol_errors_total counter\n"
      "f2db_server_protocol_errors_total 113\n"
      "# HELP f2db_server_brownout_episodes_total Brownout-mode "
      "transitions (inactive to active).\n"
      "# TYPE f2db_server_brownout_episodes_total counter\n"
      "f2db_server_brownout_episodes_total 114\n"
      "# HELP f2db_server_brownout_queries_total Queries executed in "
      "brownout mode.\n"
      "# TYPE f2db_server_brownout_queries_total counter\n"
      "f2db_server_brownout_queries_total 115\n"
      "# HELP f2db_server_brownout_active 1 while the server is currently "
      "in brownout.\n"
      "# TYPE f2db_server_brownout_active gauge\n"
      "f2db_server_brownout_active 116\n"
      "# HELP f2db_server_inflight_requests Requests queued or executing "
      "right now.\n"
      "# TYPE f2db_server_inflight_requests gauge\n"
      "f2db_server_inflight_requests 117\n";
  EXPECT_EQ(DistinctEngineStats(0).ToPrometheusText(), kEngineGolden);
  EXPECT_EQ(ShardedEngineStatsPrometheusText({{"0", DistinctEngineStats(1000)},
                                              {"1", DistinctEngineStats(2000)}},
                                             DistinctEngineStats(3000)),
            kShardedGolden);
  EXPECT_EQ(DistinctServerStats().ToPrometheusText(), kServerGolden);
}

}  // namespace
}  // namespace f2db
