// Storage-lifecycle integration tests (DESIGN.md §13): compaction seals
// WAL history into compressed segments and truncates the log, recovery
// bulk-loads the sealed chain and replays only the unsealed tail, and
// retention drops old raw history without disturbing model state,
// aggregates, or derivation weights — differential-checked against the
// ReferenceOracle.

#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "baselines/advisor_builder.h"
#include "core/evaluator.h"
#include "engine/engine.h"
#include "engine/sharded_engine.h"
#include "engine/wal.h"
#include "storage/fsio.h"
#include "storage/manifest.h"
#include "storage/segment.h"
#include "storage/store.h"
#include "testing/crash.h"
#include "testing/differential.h"
#include "testing/oracle.h"
#include "testing/property.h"
#include "testing/replay_hint.h"
#include "testing/test_cubes.h"
#include "testing/workload.h"

namespace f2db {
namespace {

constexpr std::size_t kHorizon = 3;
constexpr double kRelTol = 1e-6;
constexpr double kAbsTol = 1e-8;

bool ValuesClose(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return false;
  return std::abs(a - b) <=
         kAbsTol + kRelTol * std::max(std::abs(a), std::abs(b));
}

// Hook state for CheckpointCannotInterleaveWithRetentionDrop: on the
// retention (second) manifest rename of the armed compaction, request a
// concurrent second compaction and give it ample time to land. With
// correct serialization it cannot complete until the first compaction —
// including the in-memory history drop — has finished.
std::atomic<int> g_manifest_renames{0};
std::atomic<bool> g_racer_requested{false};
std::atomic<bool> g_racer_done{false};
std::atomic<bool> g_racer_done_inside_window{false};

void RetentionRaceHook(const char* point) {
  if (std::string_view(point) != "after_manifest_rename") return;
  if (g_manifest_renames.fetch_add(1) + 1 != 2) return;
  g_racer_requested.store(true);
  for (int i = 0; i < 100 && !g_racer_done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  g_racer_done_inside_window.store(g_racer_done.load());
}

NodeAddress ToNodeAddress(const testing::OracleAddress& address) {
  NodeAddress out;
  out.coords.resize(address.coords.size());
  for (std::size_t d = 0; d < address.coords.size(); ++d) {
    out.coords[d] = {static_cast<LevelIndex>(address.coords[d].level),
                     static_cast<ValueIndex>(address.coords[d].value)};
  }
  return out;
}

class CompactionTest : public ::testing::Test {
 protected:
  CompactionTest()
      : evaluator_graph_(testing::MakeRegionCube(48, 0.0)),
        evaluator_(evaluator_graph_, 0.8),
        factory_(ModelSpec::TripleExponentialSmoothing(4)) {
    AdvisorOptions options;
    options.stop.max_iterations = 8;
    options.seed = 123;
    AdvisorBuilder builder(options);
    auto outcome = builder.Build(evaluator_, factory_);
    EXPECT_TRUE(outcome.ok());
    config_ = std::move(outcome.value().configuration);
  }

  void SetUp() override {
    char tmpl[] = "/tmp/f2db_storage_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override { testing::RemoveDirectoryTree(dir_); }

  EngineOptions DurableOptions() const {
    EngineOptions options;
    options.maintenance_threads = 1;
    options.data_dir = dir_;
    options.fsync_policy = FsyncPolicy::kAlways;
    return options;
  }

  std::unique_ptr<F2dbEngine> Open(EngineOptions options) {
    auto engine = F2dbEngine::Open(testing::MakeRegionCube(48, 0.0), options);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return engine.ok() ? std::move(engine).value() : nullptr;
  }

  void LoadConfig(F2dbEngine& engine) {
    const Status loaded = engine.LoadConfiguration(config_, evaluator_);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  }

  static void Advance(F2dbEngine& engine, int periods) {
    const std::vector<NodeId> bases = engine.graph().base_nodes();
    for (int period = 0; period < periods; ++period) {
      const std::int64_t t =
          engine.snapshot()->graph->series(bases[0]).end_time();
      for (std::size_t i = 0; i < bases.size(); ++i) {
        const Status status =
            engine.InsertFact(bases[i], t, 10.0 + static_cast<double>(i));
        ASSERT_TRUE(status.ok()) << status.message();
      }
    }
  }

  static std::vector<double> TopForecast(const F2dbEngine& engine) {
    auto forecast = engine.ForecastNode(engine.graph().top_node(), kHorizon);
    EXPECT_TRUE(forecast.ok()) << forecast.status().ToString();
    return forecast.ok() ? forecast.value() : std::vector<double>{};
  }

  TimeSeriesGraph evaluator_graph_;
  ConfigurationEvaluator evaluator_;
  ModelFactory factory_;
  ModelConfiguration config_;
  std::string dir_;
};

TEST_F(CompactionTest, InMemoryEngineRejectsCompactNow) {
  F2dbEngine engine(testing::MakeRegionCube(48, 0.0));
  EXPECT_EQ(engine.CompactNow().code(), StatusCode::kFailedPrecondition);
}

TEST_F(CompactionTest, CompactNowSealsHistoryAndTruncatesWal) {
  auto engine = Open(DurableOptions());
  LoadConfig(*engine);
  Advance(*engine, 4);

  const Status compacted = engine->CompactNow();
  ASSERT_TRUE(compacted.ok()) << compacted.ToString();

  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.compactions_completed, 1u);
  EXPECT_EQ(stats.compaction_failures, 0u);
  EXPECT_EQ(stats.segments_sealed, 1u);
  // 3 base series x (48 stored + 4 advanced) periods.
  EXPECT_EQ(stats.segment_records_sealed, 3u * 52u);
  EXPECT_EQ(stats.segments_live, 1u);
  EXPECT_GT(stats.segment_live_bytes, 0u);

  // The WAL was rotated and the sealed prefix deleted; only the rewritten
  // tail epoch remains.
  auto epochs = ListWalEpochs(dir_);
  ASSERT_TRUE(epochs.ok());
  EXPECT_EQ(epochs.value(), (std::vector<std::uint64_t>{2}));

  // The manifest covers the full stored range at the cut.
  auto manifest = storage::ReadManifestFile(storage::SegmentsDirFor(dir_));
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest.value().wal_epoch, 2u);
  EXPECT_EQ(manifest.value().sealed_to - manifest.value().sealed_from, 52);
  ASSERT_EQ(manifest.value().segments.size(), 1u);
}

TEST_F(CompactionTest, ReopenAfterCompactionIsBitIdentical) {
  std::vector<double> before;
  std::size_t pending = 0;
  std::size_t models = 0;
  {
    auto engine = Open(DurableOptions());
    LoadConfig(*engine);
    Advance(*engine, 3);
    models = engine->snapshot()->models.size();
    ASSERT_TRUE(engine->CompactNow().ok());
    Advance(*engine, 2);
    // One buffered fact so the unsealed tail carries pending state too.
    const std::vector<NodeId> bases = engine->graph().base_nodes();
    const std::int64_t t =
        engine->snapshot()->graph->series(bases[0]).end_time();
    ASSERT_TRUE(engine->InsertFact(bases[0], t, 42.0).ok());
    before = TopForecast(*engine);
    pending = engine->pending_inserts();
    ASSERT_EQ(pending, 1u);
  }

  auto engine = Open(DurableOptions());
  const EngineStats stats = engine->stats();
  // History came from the sealed segment, not WAL replay: the tail holds
  // the rewritten catalog, one bookkeeping record per model (each counts
  // its updates since the estimate) plus only the post-compaction records.
  EXPECT_EQ(stats.segment_records_recovered, 3u * 51u);
  EXPECT_EQ(stats.wal_records_replayed, 1u + models + 2u * 3u + 1u);
  EXPECT_EQ(stats.inserts, 3u * 5u + 1u);
  EXPECT_EQ(stats.time_advances, 5u);
  EXPECT_EQ(engine->pending_inserts(), pending);

  const std::vector<double> after = TopForecast(*engine);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t h = 0; h < after.size(); ++h) {
    EXPECT_DOUBLE_EQ(after[h], before[h]) << "h=" << h;
  }
}

TEST_F(CompactionTest, SecondCompactionExtendsTheChain) {
  std::vector<double> before;
  {
    auto engine = Open(DurableOptions());
    LoadConfig(*engine);
    Advance(*engine, 3);
    ASSERT_TRUE(engine->CompactNow().ok());
    Advance(*engine, 4);
    ASSERT_TRUE(engine->CompactNow().ok());
    const EngineStats stats = engine->stats();
    EXPECT_EQ(stats.compactions_completed, 2u);
    EXPECT_EQ(stats.segments_sealed, 2u);
    EXPECT_EQ(stats.segments_live, 2u);
    auto epochs = ListWalEpochs(dir_);
    ASSERT_TRUE(epochs.ok());
    EXPECT_EQ(epochs.value(), (std::vector<std::uint64_t>{3}));
    before = TopForecast(*engine);
  }

  auto engine = Open(DurableOptions());
  EXPECT_EQ(engine->stats().segment_records_recovered, 3u * 55u);
  const std::vector<double> after = TopForecast(*engine);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t h = 0; h < after.size(); ++h) {
    EXPECT_DOUBLE_EQ(after[h], before[h]) << "h=" << h;
  }
}

TEST_F(CompactionTest, CompactionAfterCheckpointPrefersNewerArtifact) {
  // A checkpoint file an older version left behind is never read: the
  // manifest is the one durable cut, so recovery restores from segments
  // even though the stale file does not even parse.
  std::vector<double> before;
  {
    auto engine = Open(DurableOptions());
    LoadConfig(*engine);
    Advance(*engine, 2);
    ASSERT_TRUE(engine->CompactNow().ok());
    {
      std::ofstream legacy(dir_ + "/checkpoint.f2db", std::ios::trunc);
      legacy << "f2db-checkpoint v1\nepoch 9\ncrc 00000000\n";
    }
    Advance(*engine, 2);
    ASSERT_TRUE(engine->CompactNow().ok());
    before = TopForecast(*engine);
  }
  auto engine = Open(DurableOptions());
  EXPECT_EQ(engine->stats().segment_records_recovered, 3u * 52u);
  EXPECT_EQ(engine->stats().time_advances, 4u);
  const std::vector<double> after = TopForecast(*engine);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t h = 0; h < after.size(); ++h) {
    EXPECT_DOUBLE_EQ(after[h], before[h]) << "h=" << h;
  }
}

TEST_F(CompactionTest, ShardedCompactNowSealsEveryShard) {
  ShardedEngineOptions options;
  options.num_shards = 2;
  options.engine.maintenance_threads = 1;
  options.engine.data_dir = dir_;
  options.engine.fsync_policy = FsyncPolicy::kAlways;
  std::size_t inserts = 0;
  {
    TimeSeriesGraph graph = testing::MakeFigure2Cube(48, 0.0);
    auto engine = ShardedEngine::Open(graph, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    for (int period = 0; period < 3; ++period) {
      const std::int64_t t = 48 + period;
      for (const char* city : {"C1", "C2", "C3", "C4"}) {
        for (const char* product : {"P1", "P2"}) {
          ASSERT_TRUE(
              engine.value()->InsertFact({city, product}, t, 5.0).ok());
          ++inserts;
        }
      }
    }
    const Status compacted = engine.value()->CompactNow();
    ASSERT_TRUE(compacted.ok()) << compacted.ToString();
    const EngineStats total = engine.value()->stats();
    const std::size_t active =
        engine.value()->active_partitions().size();
    EXPECT_EQ(total.compactions_completed, active);
    EXPECT_EQ(total.segments_sealed, active);
    // Every shard's manifest exists on disk.
    for (const std::size_t p : engine.value()->active_partitions()) {
      const std::string shard_dir = dir_ + "/shard-" + std::to_string(p);
      auto manifest =
          storage::ReadManifestFile(storage::SegmentsDirFor(shard_dir));
      EXPECT_TRUE(manifest.ok()) << "shard " << p;
    }
  }

  TimeSeriesGraph graph = testing::MakeFigure2Cube(48, 0.0);
  auto engine = ShardedEngine::Open(graph, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const EngineStats total = engine.value()->stats();
  EXPECT_EQ(total.inserts, inserts);
  EXPECT_GT(total.segment_records_recovered, 0u);
  // Each shard advanced once per complete round.
  EXPECT_EQ(total.time_advances,
            3u * engine.value()->active_partitions().size());
}

// ---- recovery fallback and loud-failure paths ----------------------------

class SegmentRecoveryTest : public CompactionTest {};

TEST_F(SegmentRecoveryTest, HalfWrittenSegmentFallsBackToWalReplay) {
  std::vector<double> before;
  {
    auto engine = Open(DurableOptions());
    LoadConfig(*engine);
    Advance(*engine, 2);
    before = TopForecast(*engine);
  }
  // Simulate a crash between WriteSegment and the manifest commit: a
  // sealed-looking segment file exists but nothing references it.
  const std::string segments_dir = storage::SegmentsDirFor(dir_);
  storage::SegmentData orphan;
  orphan.seq = 1;
  orphan.start_time = 0;
  orphan.count = 2;
  orphan.series.push_back({0, {1.0, 2.0}});
  ASSERT_TRUE(storage::WriteSegmentFile(segments_dir, orphan, nullptr).ok());

  auto engine = Open(DurableOptions());
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.segment_records_recovered, 0u);  // WAL replay, no chain
  EXPECT_GT(stats.wal_records_replayed, 0u);
  const std::vector<double> after = TopForecast(*engine);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t h = 0; h < after.size(); ++h) {
    EXPECT_DOUBLE_EQ(after[h], before[h]) << "h=" << h;
  }
  // The orphan was swept by the store open.
  EXPECT_EQ(
      storage::ReadSegmentFile(storage::SegmentPath(segments_dir, 1))
          .status()
          .code(),
      StatusCode::kNotFound);
}

TEST_F(SegmentRecoveryTest, CorruptSealedSegmentFailsLoudly) {
  {
    auto engine = Open(DurableOptions());
    LoadConfig(*engine);
    Advance(*engine, 2);
    ASSERT_TRUE(engine->CompactNow().ok());
  }
  // After compaction the sealed WAL prefix is deleted — the segment IS the
  // only copy of that history. Corrupting it must fail recovery loudly
  // instead of silently serving a shorter history.
  auto manifest = storage::ReadManifestFile(storage::SegmentsDirFor(dir_));
  ASSERT_TRUE(manifest.ok());
  ASSERT_EQ(manifest.value().segments.size(), 1u);
  const std::string path = storage::SegmentPath(
      storage::SegmentsDirFor(dir_), manifest.value().segments[0].seq);
  auto raw = storage::ReadFileToString(path);
  ASSERT_TRUE(raw.ok());
  std::string tampered = raw.value();
  tampered[tampered.size() / 2] =
      static_cast<char>(tampered[tampered.size() / 2] ^ 0x10);
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(tampered.data(), 1, tampered.size(), f);
    std::fclose(f);
  }

  auto engine =
      F2dbEngine::Open(testing::MakeRegionCube(48, 0.0), DurableOptions());
  EXPECT_FALSE(engine.ok());
}

TEST_F(SegmentRecoveryTest, CompactionAfterFallbackResealsTheChain) {
  std::vector<double> before;
  {
    auto engine = Open(DurableOptions());
    LoadConfig(*engine);
    Advance(*engine, 4);
    // Preserve WAL epoch 1 across the compaction: this is the
    // crash-before-wal-delete window the fallback path covers — the
    // manifest committed but the sealed epochs were never unlinked.
    auto epoch1 = storage::ReadFileToString(WalPath(dir_, 1));
    ASSERT_TRUE(epoch1.ok()) << epoch1.status().ToString();
    ASSERT_TRUE(engine->CompactNow().ok());  // manifest at epoch 2
    {
      std::ofstream out(WalPath(dir_, 1),
                        std::ios::binary | std::ios::trunc);
      out << epoch1.value();
    }
    before = TopForecast(*engine);
  }
  // Bit-rot the sealed segment so the chain fails validation.
  auto manifest = storage::ReadManifestFile(storage::SegmentsDirFor(dir_));
  ASSERT_TRUE(manifest.ok());
  ASSERT_EQ(manifest.value().segments.size(), 1u);
  const std::string path = storage::SegmentPath(
      storage::SegmentsDirFor(dir_), manifest.value().segments[0].seq);
  auto raw = storage::ReadFileToString(path);
  ASSERT_TRUE(raw.ok());
  std::string tampered = raw.value();
  tampered[tampered.size() / 2] =
      static_cast<char>(tampered[tampered.size() / 2] ^ 0x10);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << tampered;
  }

  {
    // Recovery falls back to a full WAL replay from epoch 1 (the
    // compaction's rewritten tail in epoch 2 replays on top of it)...
    auto engine = Open(DurableOptions());
    EXPECT_EQ(engine->stats().segment_records_recovered, 0u);
    EXPECT_EQ(engine->stats().time_advances, 4u);
    const std::vector<double> fallback = TopForecast(*engine);
    ASSERT_EQ(fallback.size(), before.size());
    for (std::size_t h = 0; h < fallback.size(); ++h) {
      EXPECT_DOUBLE_EQ(fallback[h], before[h]) << "h=" << h;
    }
    // ...and the next compaction must RESEAL the chain from memory.
    // Extending the invalid chain instead would commit a higher-epoch
    // manifest over it and truncate the WAL epochs the fallback just
    // used — the reopen below would then fail with lost history.
    ASSERT_TRUE(engine->CompactNow().ok());
  }

  auto engine = Open(DurableOptions());
  EXPECT_GT(engine->stats().segment_records_recovered, 0u);
  const std::vector<double> after = TopForecast(*engine);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t h = 0; h < after.size(); ++h) {
    EXPECT_DOUBLE_EQ(after[h], before[h]) << "h=" << h;
  }
}

TEST_F(SegmentRecoveryTest, MissingWalEpochFailsLoudly) {
  {
    auto engine = Open(DurableOptions());
    LoadConfig(*engine);
    Advance(*engine, 2);
    ASSERT_TRUE(engine->CompactNow().ok());
  }
  // The manifest references WAL epoch 2; deleting it is unrecoverable
  // damage and must be reported, not skipped.
  auto epochs = ListWalEpochs(dir_);
  ASSERT_TRUE(epochs.ok());
  ASSERT_EQ(epochs.value(), (std::vector<std::uint64_t>{2}));
  ASSERT_EQ(::unlink(WalPath(dir_, 2).c_str()), 0);

  auto engine =
      F2dbEngine::Open(testing::MakeRegionCube(48, 0.0), DurableOptions());
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.status().message().find("WAL"), std::string::npos)
      << engine.status().ToString();
}

// ---- retention -----------------------------------------------------------

class RetentionTest : public CompactionTest {};

TEST_F(RetentionTest, RetentionDropsOldSegmentsAndPreservesForecasts) {
  EngineOptions options = DurableOptions();
  options.retention_window = 16;

  // A never-compacted in-memory control over the same insert stream.
  F2dbEngine control(testing::MakeRegionCube(48, 0.0));
  ASSERT_TRUE(control.LoadConfiguration(config_, evaluator_).ok());

  auto engine = Open(options);
  LoadConfig(*engine);
  for (int round = 0; round < 4; ++round) {
    Advance(*engine, 12);
    Advance(control, 12);
    ASSERT_TRUE(engine->CompactNow().ok());
  }

  const EngineStats stats = engine->stats();
  EXPECT_GT(stats.retention_segments_deleted, 0u);
  EXPECT_GT(stats.retention_records_dropped, 0u);
  EXPECT_LT(stats.segments_live, stats.segments_sealed);

  // Raw history was dropped from memory...
  const std::vector<NodeId> bases = engine->graph().base_nodes();
  for (const NodeId node : bases) {
    const TimeSeries& series = engine->snapshot()->graph->series(node);
    EXPECT_LT(series.size(), 48u + 4u * 12u);
    // ...but never inside the retention window.
    EXPECT_GE(series.size(), options.retention_window);
    EXPECT_EQ(series.end_time(), control.snapshot()
                                     ->graph->series(node)
                                     .end_time());
  }

  // Model state, aggregates, and derivation weights are untouched: every
  // forecast matches the full-history control bit for bit.
  for (const NodeId node :
       {engine->graph().top_node(), bases[0], bases[1], bases[2]}) {
    auto got = engine->ForecastNode(node, kHorizon);
    auto want = control.ForecastNode(node, kHorizon);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(got.value().size(), want.value().size());
    for (std::size_t h = 0; h < got.value().size(); ++h) {
      EXPECT_DOUBLE_EQ(got.value()[h], want.value()[h])
          << "node " << node << " h=" << h;
    }
  }

  // And the trimmed state survives a reopen. Tolerance, not bit-equality:
  // recovery recomputes history sums as retained-sum + retention offset,
  // which regroups the floating-point additions.
  std::vector<double> before = TopForecast(*engine);
  engine.reset();
  auto reopened = Open(options);
  EXPECT_GT(reopened->stats().segment_records_recovered, 0u);
  const std::vector<double> after = TopForecast(*reopened);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t h = 0; h < after.size(); ++h) {
    EXPECT_TRUE(ValuesClose(after[h], before[h]))
        << "h=" << h << ": " << before[h] << " vs " << after[h];
  }
}

TEST_F(RetentionTest, CheckpointCannotInterleaveWithRetentionDrop) {
  // A second compaction that cut between the pruned-manifest commit and
  // the in-memory DropHistoryBefore would rewrite a tail over the
  // still-undropped series next to the pruned offsets; the storage hook
  // below invites exactly that interleaving by racing a second CompactNow
  // into the window. compaction_serial_mutex_ must refuse it: the racer
  // completes only after the first compaction's drop, and recovery's
  // history sums match the full-history control.
  EngineOptions options = DurableOptions();
  options.retention_window = 8;

  // A never-compacted in-memory control over the same insert stream.
  F2dbEngine control(testing::MakeRegionCube(48, 0.0));
  ASSERT_TRUE(control.LoadConfiguration(config_, evaluator_).ok());

  std::vector<double> before;
  {
    auto engine = Open(options);
    LoadConfig(*engine);
    Advance(*engine, 12);
    Advance(control, 12);
    ASSERT_TRUE(engine->CompactNow().ok());  // one segment, nothing pruned
    Advance(*engine, 12);
    Advance(control, 12);

    g_manifest_renames.store(0);
    g_racer_requested.store(false);
    g_racer_done.store(false);
    g_racer_done_inside_window.store(false);
    storage::SetStorageCrashHook(&RetentionRaceHook);
    Status racer_status;
    std::thread racer([&engine, &racer_status] {
      while (!g_racer_requested.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      racer_status = engine->CompactNow();
      g_racer_done.store(true);
    });
    // This compaction prunes the first segment (entirely older than
    // frontier - window); its second manifest rename fires the hook.
    ASSERT_TRUE(engine->CompactNow().ok());
    g_racer_requested.store(true);  // in case the hook never fired
    racer.join();
    storage::SetStorageCrashHook(nullptr);
    ASSERT_TRUE(racer_status.ok()) << racer_status.ToString();
    EXPECT_FALSE(g_racer_done_inside_window.load())
        << "the racing compaction cut inside the retention window";
    // The first compaction's two renames, then at least the racer's
    // manifest commit.
    EXPECT_GE(g_manifest_renames.load(), 3);
    EXPECT_EQ(engine->stats().compactions_completed, 3u);
    EXPECT_GT(engine->stats().retention_segments_deleted, 0u);
    before = TopForecast(*engine);
  }

  // History sums must match the full-history control exactly (up to
  // float regrouping) — a double-counted prefix would be off by the
  // entire dropped range.
  auto engine = Open(options);
  const SnapshotPtr snap = engine->snapshot();
  const SnapshotPtr want = control.snapshot();
  for (NodeId node = 0; node < snap->graph->num_nodes(); ++node) {
    EXPECT_TRUE(ValuesClose(snap->history_sums[node],
                            want->graph->series(node).Sum()))
        << "node " << node << ": " << snap->history_sums[node] << " vs "
        << want->graph->series(node).Sum();
  }
  const std::vector<double> after = TopForecast(*engine);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t h = 0; h < after.size(); ++h) {
    EXPECT_TRUE(ValuesClose(after[h], before[h]))
        << "h=" << h << ": " << before[h] << " vs " << after[h];
  }
}

TEST_F(RetentionTest, RetentionDifferentialAgainstReferenceOracle) {
  // Seeded workloads through a durable engine with an aggressive (but
  // warm-up-respecting) retention window and frequent compactions; the
  // ReferenceOracle keeps FULL history. Forecast agreement at every
  // address proves retention never dropped anything a forecast needs:
  // model state, aggregates, and history-sum derivation weights.
  const std::uint64_t base = testing::PropertySeed();
  const std::size_t iterations = testing::PropertyIterations(6);
  std::size_t total_dropped = 0;

  for (std::size_t i = 0; i < iterations; ++i) {
    const std::uint64_t seed =
        testing::SubSeed(base, "retention-" + std::to_string(i));
    const testing::WorkloadSpec spec = testing::GenerateWorkload(
        seed, i % testing::NumWorkloadShapes(),
        /*inject_refit_failures=*/false);
    char tmpl[] = "/tmp/f2db_retention_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;
    const std::size_t window = std::max<std::size_t>(8, spec.history_length / 2);

    EngineOptions options;
    options.maintenance_threads = 1;
    options.reestimate_after_updates = 0;
    options.data_dir = dir;
    options.fsync_policy = FsyncPolicy::kAlways;
    options.retention_window = window;

    auto graph = testing::BuildWorkloadGraph(spec);
    ASSERT_TRUE(graph.ok());
    auto engine = F2dbEngine::Open(std::move(graph.value()), options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    auto config_graph = testing::BuildWorkloadGraph(spec);
    ASSERT_TRUE(config_graph.ok());
    auto config =
        testing::BuildWorkloadConfiguration(spec, config_graph.value());
    ASSERT_TRUE(config.ok());
    const ConfigurationEvaluator evaluator(engine.value()->graph(), 1.0);
    ASSERT_TRUE(
        engine.value()->LoadConfiguration(config.value(), evaluator).ok());

    testing::ReferenceOracle oracle(spec.dims);
    for (std::size_t cell = 0; cell < spec.base_history.size(); ++cell) {
      oracle.SetBaseSeries(cell, spec.base_history[cell]);
    }
    testing::InstallOracleConfiguration(spec, config.value(),
                                        config_graph.value(), oracle);

    const std::size_t num_cells = oracle.num_base_cells();
    std::vector<NodeId> cells(num_cells);
    for (std::size_t cell = 0; cell < num_cells; ++cell) {
      auto node = engine.value()->graph().NodeFor(
          ToNodeAddress(oracle.CellAddress(cell)));
      ASSERT_TRUE(node.ok());
      cells[cell] = node.value();
    }

    // Drive 3x the window in complete rounds, compacting every `window`
    // rounds so retention repeatedly crosses segment boundaries.
    const std::size_t rounds = 3 * window + 4;
    for (std::size_t round = 0; round < rounds; ++round) {
      const std::int64_t t = oracle.frontier();
      for (std::size_t cell = 0; cell < num_cells; ++cell) {
        const double value =
            50.0 + static_cast<double>((round * 31 + cell * 7) % 17);
        ASSERT_EQ(oracle.Insert(cell, t, value),
                  testing::OracleInsert::kAccepted);
        const Status inserted = engine.value()->InsertFact(cells[cell], t, value);
        ASSERT_TRUE(inserted.ok()) << inserted.ToString();
      }
      if ((round + 1) % window == 0) {
        ASSERT_TRUE(engine.value()->CompactNow().ok()) << "round " << round;
      }
    }
    ASSERT_TRUE(engine.value()->CompactNow().ok());
    total_dropped += engine.value()->stats().retention_records_dropped;

    // Counters and pending state agree with the oracle.
    const EngineStats stats = engine.value()->stats();
    EXPECT_EQ(stats.inserts, rounds * num_cells);
    EXPECT_EQ(stats.time_advances, oracle.advances());
    EXPECT_EQ(engine.value()->pending_inserts(), oracle.pending_inserts());

    // Every address' forecast within the differential tolerances.
    for (const testing::OracleAddress& address : oracle.AllAddresses()) {
      const auto want = oracle.Forecast(address, kHorizon);
      if (!want.has_value()) continue;
      auto node = engine.value()->graph().NodeFor(ToNodeAddress(address));
      ASSERT_TRUE(node.ok());
      auto got = engine.value()->ForecastNode(node.value(), kHorizon);
      ASSERT_TRUE(got.ok()) << address.Key() << ": "
                            << got.status().ToString() << "\n"
                            << testing::ReplayHint(base);
      ASSERT_EQ(got.value().size(), want->size());
      for (std::size_t h = 0; h < want->size(); ++h) {
        EXPECT_TRUE(ValuesClose(got.value()[h], (*want)[h]))
            << address.Key() << " h=" << h << ": engine "
            << got.value()[h] << " vs oracle " << (*want)[h] << "\n"
            << testing::ReplayHint(base);
      }
    }

    // The retained history never shrinks inside the warm-up window.
    for (const NodeId node : engine.value()->graph().base_nodes()) {
      EXPECT_GE(engine.value()->snapshot()->graph->series(node).size(),
                window);
    }

    engine.value().reset();
    testing::RemoveDirectoryTree(dir);
  }

  // Across the run retention must actually have dropped history — the
  // agreement above would be vacuous otherwise.
  EXPECT_GT(total_dropped, 0u);
}

}  // namespace
}  // namespace f2db
