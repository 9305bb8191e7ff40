// Storage engine cost model (DESIGN.md section 13): what do compressed
// sealed segments buy over keeping all history in the WAL?
//
// Part 1 — on-disk footprint. Compaction re-encodes closed history as
// delta-of-delta timestamps + Gorilla-XOR values; the WAL stores one
// fixed-size framed record per insert. Same records, both formats.
//
// Part 2 — recovery latency. An all-WAL recovery replays every insert
// through the full maintenance path (aggregates + model state per record);
// a compacted recovery bulk-loads the sealed chain and rebuilds each
// aggregate once, replaying only the unsealed tail. Both are measured on
// identical insert streams.
//
// Part 3 — retention. With a retention window, live segment bytes stay
// bounded no matter how much history has passed through the engine.
//
// Part 4 — integrity scrub cost (--scrub). A clean ScrubOnce() pass is
// the steady-state tax of the background scrubber: CRC re-verification of
// every sealed segment plus the manifest. The heal pass
// times detection + quarantine + reseal-from-memory after a byte flip.
//
// Results are summarized in BENCH_storage.json at the repo root.
// Pass --quick for the CI smoke run (small rounds, same code paths).
// Pass --scrub to run only the scrub section (the CI smoke step for the
// disk-fault PR pairs it with --quick).

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <fstream>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "engine/engine.h"
#include "storage/manifest.h"
#include "storage/segment.h"
#include "storage/store.h"

namespace f2db::bench {
namespace {

std::string FreshDir() {
  char tmpl[] = "/tmp/f2db_bench_storage_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    std::perror("mkdtemp");
    std::exit(1);
  }
  return tmpl;
}

void RemoveTree(const std::string& dir) {
  const std::string cmd = "rm -rf '" + dir + "'";
  if (std::system(cmd.c_str()) != 0) {
    std::fprintf(stderr, "cleanup failed for %s\n", dir.c_str());
  }
}

TimeSeriesGraph BenchGraph() {
  auto data = MakeGenX(/*num_base=*/32, /*seed=*/7, /*length=*/60);
  if (!data.ok()) {
    std::fprintf(stderr, "MakeGenX: %s\n", data.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(data.value().graph);
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

/// Inserts `rounds` full periods (one value per base series each). The
/// values mimic a realistic measure stream: a level with a seasonal swing
/// and deterministic jitter, quantized to quarter units the way monetary
/// or count measures are (NOT constant — constants would flatter the XOR
/// compressor — and not full-mantissa noise, which no sales column has).
void RunInserts(F2dbEngine& engine, std::size_t rounds) {
  const std::vector<NodeId> bases = engine.graph().base_nodes();
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::int64_t t =
        engine.snapshot()->graph->series(bases[0]).end_time();
    for (std::size_t i = 0; i < bases.size(); ++i) {
      const double value = 100.0 + double((r + i) % 24) +
                           0.25 * double((r * 31 + i * 7) % 13);
      Check(engine.InsertFact(bases[i], t, value), "insert");
    }
  }
}

// ---- Part 1: footprint ---------------------------------------------------

struct FootprintRow {
  std::size_t records = 0;
  std::size_t wal_bytes = 0;
  std::size_t segment_bytes = 0;
};

FootprintRow BenchFootprint(std::size_t rounds) {
  const std::string dir = FreshDir();
  EngineOptions options;
  options.data_dir = dir;
  options.fsync_policy = FsyncPolicy::kNone;
  auto engine = F2dbEngine::Open(BenchGraph(), options);
  Check(engine.status(), "open");
  RunInserts(*engine.value(), rounds);

  FootprintRow row;
  // The WAL cost of this history: bytes appended for the insert records
  // (the whole log is inserts at this point — no catalog).
  row.wal_bytes = engine.value()->stats().wal_bytes;
  Check(engine.value()->CompactNow(), "compact");
  const EngineStats stats = engine.value()->stats();
  row.records = stats.segment_records_sealed;
  row.segment_bytes = stats.segment_live_bytes;
  engine.value().reset();
  RemoveTree(dir);
  return row;
}

// ---- Part 2: recovery ----------------------------------------------------

struct RecoveryRow {
  std::size_t records = 0;
  double wal_ms = 0.0;      // replay everything through maintenance
  double compact_ms = 0.0;  // bulk-load segments + tail replay
};

double ReopenMs(const EngineOptions& options) {
  auto reopened = F2dbEngine::Open(BenchGraph(), options);
  Check(reopened.status(), "reopen");
  const double ms = reopened.value()->stats().recovery_duration_ms;
  return ms;
}

RecoveryRow BenchRecovery(std::size_t rounds, bool compact) {
  const std::string dir = FreshDir();
  EngineOptions options;
  options.data_dir = dir;
  options.fsync_policy = FsyncPolicy::kNone;
  std::size_t records = 0;
  {
    auto engine = F2dbEngine::Open(BenchGraph(), options);
    Check(engine.status(), "open");
    RunInserts(*engine.value(), rounds);
    records = engine.value()->stats().inserts;
    if (compact) Check(engine.value()->CompactNow(), "compact");
    // Destruct without a final compaction.
  }
  RecoveryRow row;
  row.records = records;
  (compact ? row.compact_ms : row.wal_ms) = ReopenMs(options);
  RemoveTree(dir);
  return row;
}

// ---- Part 3: retention ---------------------------------------------------

struct RetentionRow {
  std::size_t rounds_total = 0;
  std::size_t live_bytes = 0;
  std::size_t records_dropped = 0;
  std::size_t live_periods = 0;
};

std::vector<RetentionRow> BenchRetention(std::size_t rounds_per_cycle,
                                         std::size_t cycles) {
  const std::string dir = FreshDir();
  EngineOptions options;
  options.data_dir = dir;
  options.fsync_policy = FsyncPolicy::kNone;
  options.retention_window = rounds_per_cycle;  // keep ~one cycle of raw data
  auto engine = F2dbEngine::Open(BenchGraph(), options);
  Check(engine.status(), "open");
  std::vector<RetentionRow> rows;
  for (std::size_t c = 1; c <= cycles; ++c) {
    RunInserts(*engine.value(), rounds_per_cycle);
    Check(engine.value()->CompactNow(), "compact");
    const EngineStats stats = engine.value()->stats();
    RetentionRow row;
    row.rounds_total = c * rounds_per_cycle;
    row.live_bytes = stats.segment_live_bytes;
    row.records_dropped = stats.retention_records_dropped;
    const NodeId base = engine.value()->graph().base_nodes()[0];
    row.live_periods = engine.value()->snapshot()->graph->series(base).size();
    rows.push_back(row);
  }
  engine.value().reset();
  RemoveTree(dir);
  return rows;
}

// ---- Part 4: integrity scrub ---------------------------------------------

struct ScrubRow {
  std::size_t records = 0;
  std::size_t chain_bytes = 0;
  double clean_ms = 0.0;  // one clean verification pass
  double heal_ms = 0.0;   // detect + quarantine + reseal after a byte flip
};

ScrubRow BenchScrub(std::size_t rounds) {
  const std::string dir = FreshDir();
  EngineOptions options;
  options.data_dir = dir;
  options.fsync_policy = FsyncPolicy::kNone;
  // Unthrottled: measure the raw CRC + decode cost, not the default
  // 4 MiB/s background pacing.
  options.scrub_rate_bytes_per_second = 0;
  auto engine = F2dbEngine::Open(BenchGraph(), options);
  Check(engine.status(), "open");
  RunInserts(*engine.value(), rounds);
  Check(engine.value()->CompactNow(), "compact");

  ScrubRow row;
  row.records = engine.value()->stats().segment_records_sealed;
  {
    StopWatch watch;
    ScrubReport report;
    Check(engine.value()->ScrubOnce(&report), "clean scrub");
    row.clean_ms = watch.ElapsedSeconds() * 1000.0;
    row.chain_bytes = report.bytes_verified;
  }
  {
    // Flip one byte mid-chain; the next pass must detect and reseal.
    auto manifest =
        storage::ReadManifestFile(storage::SegmentsDirFor(dir));
    Check(manifest.status(), "manifest");
    const std::string path = storage::SegmentPath(
        storage::SegmentsDirFor(dir), manifest.value().segments.front().seq);
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(0, std::ios::end);
    const std::streamoff at = file.tellg() / 2;
    file.seekg(at);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    file.seekp(at);
    file.write(&byte, 1);
    file.close();

    StopWatch watch;
    ScrubReport report;
    Check(engine.value()->ScrubOnce(&report), "heal scrub");
    row.heal_ms = watch.ElapsedSeconds() * 1000.0;
    if (!report.resealed) {
      std::fprintf(stderr, "heal pass did not reseal\n");
      std::exit(1);
    }
  }
  engine.value().reset();
  RemoveTree(dir);
  return row;
}

void RunScrubSection(bool quick) {
  PrintHeader("Integrity scrub: clean verification vs corruption heal",
              "disk-fault policy (DESIGN.md section 15)",
              "records,chain_kib,clean_ms,verify_mib_s,heal_ms");
  const std::vector<std::size_t> scrub_rounds =
      quick ? std::vector<std::size_t>{250}
            : std::vector<std::size_t>{1000, 4000, 16000};
  for (const std::size_t rounds : scrub_rounds) {
    const ScrubRow row = BenchScrub(rounds);
    const double mib_s = row.clean_ms > 0.0
                             ? double(row.chain_bytes) / (1024.0 * 1024.0) /
                                   (row.clean_ms / 1000.0)
                             : 0.0;
    std::printf("%zu,%.1f,%.2f,%.1f,%.2f\n", row.records,
                double(row.chain_bytes) / 1024.0, row.clean_ms, mib_s,
                row.heal_ms);
  }
}

int Main(int argc, char** argv) {
  bool quick = false;
  bool scrub_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--scrub") == 0) scrub_only = true;
  }
  if (scrub_only) {
    RunScrubSection(quick);
    return 0;
  }

  PrintHeader("Sealed-segment footprint vs raw WAL bytes",
              "storage lifecycle (DESIGN.md section 13)",
              "records,wal_mib,segment_mib,compression_x");
  const std::vector<std::size_t> footprint_rounds =
      quick ? std::vector<std::size_t>{250}
            : std::vector<std::size_t>{1000, 4000, 16000};
  for (const std::size_t rounds : footprint_rounds) {
    const FootprintRow row = BenchFootprint(rounds);
    std::printf("%zu,%.2f,%.2f,%.1f\n", row.records,
                double(row.wal_bytes) / (1024.0 * 1024.0),
                double(row.segment_bytes) / (1024.0 * 1024.0),
                double(row.wal_bytes) / double(row.segment_bytes));
  }

  PrintHeader("Recovery: WAL replay vs segment bulk-load",
              "storage lifecycle (DESIGN.md section 13)",
              "records,wal_replay_ms,segment_ms,speedup_x");
  const std::vector<std::size_t> recovery_rounds =
      quick ? std::vector<std::size_t>{250}
            : std::vector<std::size_t>{1000, 4000, 16000};
  for (const std::size_t rounds : recovery_rounds) {
    const RecoveryRow wal = BenchRecovery(rounds, /*compact=*/false);
    const RecoveryRow seg = BenchRecovery(rounds, /*compact=*/true);
    std::printf("%zu,%.2f,%.2f,%.1f\n", wal.records, wal.wal_ms,
                seg.compact_ms, wal.wal_ms / seg.compact_ms);
  }

  PrintHeader("Retention bounds live segment bytes",
              "storage lifecycle (DESIGN.md section 13)",
              "rounds_total,live_kib,records_dropped,live_periods");
  const std::size_t cycle = quick ? 100 : 1000;
  for (const RetentionRow& row : BenchRetention(cycle, quick ? 3 : 6)) {
    std::printf("%zu,%.1f,%zu,%zu\n", row.rounds_total,
                double(row.live_bytes) / 1024.0, row.records_dropped,
                row.live_periods);
  }

  RunScrubSection(quick);
  return 0;
}

}  // namespace
}  // namespace f2db::bench

int main(int argc, char** argv) { return f2db::bench::Main(argc, argv); }
