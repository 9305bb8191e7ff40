// Recovery integration tests: a durable engine is closed (or has its WAL
// mutilated) and reopened, and the recovered state must match what a
// never-restarted engine computes — snapshots, counters, forecasts.

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/advisor_builder.h"
#include "common/failpoint.h"
#include "engine/engine.h"
#include "engine/wal.h"
#include "server/server.h"
#include "storage/fsio.h"
#include "testing/crash.h"
#include "testing/test_cubes.h"

namespace f2db {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest()
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
    failpoint::DisableAll();
    char tmpl[] = "/tmp/f2db_recovery_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    failpoint::DisableAll();
    f2db::testing::RemoveDirectoryTree(dir_);
  }

  EngineOptions DurableOptions() const {
    EngineOptions options;
    options.maintenance_threads = 1;
    options.data_dir = dir_;
    options.fsync_policy = FsyncPolicy::kAlways;
    return options;
  }

  /// Opens a durable engine over a fresh copy of the region cube.
  std::unique_ptr<F2dbEngine> Open(EngineOptions options) {
    auto engine =
        F2dbEngine::Open(testing::MakeRegionCube(48, 0.0), options);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return std::move(engine).value();
  }

  void LoadConfig(F2dbEngine& engine) {
    const Status loaded = engine.LoadConfiguration(config_, evaluator_);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  }

  /// Inserts `periods` full periods of deterministic facts.
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
    auto forecast = engine.ForecastNode(engine.graph().top_node(), 3);
    EXPECT_TRUE(forecast.ok()) << forecast.status().ToString();
    return forecast.ok() ? forecast.value() : std::vector<double>{};
  }

  /// Models whose record a compaction tail rewrites (all of them once
  /// any period advanced: each counts its updates since the estimate).
  static std::size_t ModelsOf(const F2dbEngine& engine) {
    return engine.snapshot()->models.size();
  }

  TimeSeriesGraph evaluator_graph_;
  ConfigurationEvaluator evaluator_;
  ModelFactory factory_;
  ModelConfiguration config_;
  std::string dir_;
};

TEST_F(RecoveryTest, FreshDirectoryOpensEmptyAndDurable) {
  auto engine = Open(DurableOptions());
  EXPECT_TRUE(engine->durable());
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.wal_records_replayed, 0u);
  EXPECT_EQ(stats.torn_tail_detected, 0u);
  EXPECT_GE(stats.recovery_duration_ms, 0.0);
  auto epochs = ListWalEpochs(dir_);
  ASSERT_TRUE(epochs.ok());
  EXPECT_EQ(epochs.value(), (std::vector<std::uint64_t>{1}));
}

TEST_F(RecoveryTest, PlainEngineIsNotDurable) {
  F2dbEngine engine(testing::MakeRegionCube(48, 0.0));
  EXPECT_FALSE(engine.durable());
  EXPECT_EQ(engine.CompactNow().code(), StatusCode::kFailedPrecondition);
}

TEST_F(RecoveryTest, ConfigurationAndInsertsSurviveReopen) {
  std::vector<double> before;
  std::size_t pending = 0;
  {
    auto engine = Open(DurableOptions());
    LoadConfig(*engine);
    Advance(*engine, 2);
    // One buffered fact that has not completed a period yet.
    const std::vector<NodeId> bases = engine->graph().base_nodes();
    const std::int64_t t =
        engine->snapshot()->graph->series(bases[0]).end_time();
    ASSERT_TRUE(engine->InsertFact(bases[0], t, 42.0).ok());
    before = TopForecast(*engine);
    pending = engine->pending_inserts();
    ASSERT_EQ(pending, 1u);
  }  // clean close: destructor syncs and closes the WAL

  auto engine = Open(DurableOptions());
  const EngineStats stats = engine->stats();
  // 1 catalog record + 2 periods * 3 cells + 1 partial insert.
  EXPECT_EQ(stats.wal_records_replayed, 8u);
  EXPECT_EQ(stats.torn_tail_detected, 0u);
  EXPECT_EQ(stats.inserts, 7u);
  EXPECT_EQ(stats.time_advances, 2u);
  EXPECT_EQ(engine->pending_inserts(), pending);

  // Replay is deterministic: model round-trips are exact (%.17g) and the
  // aggregate rebuild shares the live summation order, so the recovered
  // forecast is bit-identical.
  const std::vector<double> after = TopForecast(*engine);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t h = 0; h < after.size(); ++h) {
    EXPECT_DOUBLE_EQ(after[h], before[h]) << "h=" << h;
  }
}

TEST_F(RecoveryTest, CheckpointTruncatesWalAndRecovers) {
  // The compaction is the one durable cut: it truncates the WAL and the
  // reopen starts from it.
  std::vector<double> before;
  std::size_t models = 0;
  {
    auto engine = Open(DurableOptions());
    LoadConfig(*engine);
    Advance(*engine, 1);
    EXPECT_LT(engine->stats().last_compaction_age_seconds, 0.0);
    const Status compacted = engine->CompactNow();
    ASSERT_TRUE(compacted.ok()) << compacted.ToString();
    EXPECT_EQ(engine->stats().compactions_completed, 1u);
    EXPECT_GE(engine->stats().last_compaction_age_seconds, 0.0);

    // The pre-compaction segment is gone; appends go to epoch 2.
    auto epochs = ListWalEpochs(dir_);
    ASSERT_TRUE(epochs.ok());
    EXPECT_EQ(epochs.value(), (std::vector<std::uint64_t>{2}));

    Advance(*engine, 1);
    before = TopForecast(*engine);
    models = ModelsOf(*engine);
  }

  auto engine = Open(DurableOptions());
  const EngineStats stats = engine->stats();
  // Only the rewritten tail (catalog + one bookkeeping record per model)
  // and the post-compaction period replay.
  EXPECT_EQ(stats.wal_records_replayed, 1u + models + 3u);
  EXPECT_GT(stats.segment_records_recovered, 0u);
  EXPECT_EQ(stats.inserts, 6u);        // manifest counters + replay
  EXPECT_EQ(stats.time_advances, 2u);
  const std::vector<double> after = TopForecast(*engine);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t h = 0; h < after.size(); ++h) {
    EXPECT_DOUBLE_EQ(after[h], before[h]) << "h=" << h;
  }
}

TEST_F(RecoveryTest, FailedCheckpointLeavesARecoverableDirectory) {
  // A compaction that fails after rotating the WAL (here: the segment
  // write) leaves the old epoch and the previous cut in place.
  std::vector<double> before;
  std::size_t models = 0;
  {
    auto engine = Open(DurableOptions());
    LoadConfig(*engine);
    Advance(*engine, 1);
    models = ModelsOf(*engine);
    failpoint::Enable(storage::kIoSiteSegmentWrite,
                      failpoint::Policy::Always());
    EXPECT_FALSE(engine->CompactNow().ok());
    failpoint::Disable(storage::kIoSiteSegmentWrite);
    EXPECT_EQ(engine->stats().compaction_failures, 1u);
    EXPECT_EQ(engine->stats().compactions_completed, 0u);
    EXPECT_LT(engine->stats().last_compaction_age_seconds, 0.0);

    // The rotation happened but no manifest committed: both segments
    // survive and replay must span the epoch boundary.
    auto epochs = ListWalEpochs(dir_);
    ASSERT_TRUE(epochs.ok());
    EXPECT_EQ(epochs.value(), (std::vector<std::uint64_t>{1, 2}));

    Advance(*engine, 1);
    before = TopForecast(*engine);
  }

  auto engine = Open(DurableOptions());
  const EngineStats stats = engine->stats();
  // Everything replays: catalog + one period, the rewritten tail, and the
  // second period.
  EXPECT_EQ(stats.wal_records_replayed, 1u + 3u + (1u + models) + 3u);
  EXPECT_EQ(stats.segment_records_recovered, 0u);
  EXPECT_EQ(stats.inserts, 6u);
  EXPECT_EQ(stats.time_advances, 2u);
  const std::vector<double> after = TopForecast(*engine);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t h = 0; h < after.size(); ++h) {
    EXPECT_DOUBLE_EQ(after[h], before[h]) << "h=" << h;
  }
}

TEST_F(RecoveryTest, LegacyCheckpointDirectoryFailsLoudly) {
  // Older versions cut with a checkpoint file and truncated the WAL below
  // it. Such a directory lacks the history this version replays, so the
  // open must fail — and say which file it no longer reads.
  {
    auto engine = Open(DurableOptions());
    LoadConfig(*engine);
    Advance(*engine, 1);
  }
  ASSERT_EQ(std::rename(WalPath(dir_, 1).c_str(), WalPath(dir_, 3).c_str()),
            0);
  {
    std::FILE* legacy = std::fopen((dir_ + "/checkpoint.f2db").c_str(), "w");
    ASSERT_NE(legacy, nullptr);
    std::fputs("f2db-checkpoint v1\n", legacy);
    std::fclose(legacy);
  }
  auto engine =
      F2dbEngine::Open(testing::MakeRegionCube(48, 0.0), DurableOptions());
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInternal);
  const std::string message = engine.status().message();
  EXPECT_NE(message.find("WAL history is missing"), std::string::npos)
      << message;
  EXPECT_NE(message.find("checkpoint.f2db"), std::string::npos) << message;

  // Without the legacy file the same damage is reported without the hint.
  ASSERT_EQ(::unlink((dir_ + "/checkpoint.f2db").c_str()), 0);
  auto bare =
      F2dbEngine::Open(testing::MakeRegionCube(48, 0.0), DurableOptions());
  ASSERT_FALSE(bare.ok());
  EXPECT_EQ(bare.status().message().find("checkpoint.f2db"),
            std::string::npos);
}

TEST_F(RecoveryTest, TornTailIsDetectedAndDropsOnlyTheLastRecord) {
  std::size_t pending_before = 0;
  {
    auto engine = Open(DurableOptions());
    LoadConfig(*engine);
    Advance(*engine, 1);
    const std::vector<NodeId> bases = engine->graph().base_nodes();
    const std::int64_t t =
        engine->snapshot()->graph->series(bases[0]).end_time();
    ASSERT_TRUE(engine->InsertFact(bases[0], t, 1.0).ok());
    ASSERT_TRUE(engine->InsertFact(bases[1], t, 2.0).ok());
    pending_before = engine->pending_inserts();
    ASSERT_EQ(pending_before, 2u);
  }

  // Simulate a torn final write: cut a few bytes off the newest segment.
  auto epochs = ListWalEpochs(dir_);
  ASSERT_TRUE(epochs.ok());
  const std::string last = WalPath(dir_, epochs.value().back());
  auto segment = ReadWalSegment(last);
  ASSERT_TRUE(segment.ok());
  ASSERT_EQ(::truncate(last.c_str(),
                       static_cast<off_t>(segment.value().valid_bytes - 3)),
            0);

  auto engine = Open(DurableOptions());
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.torn_tail_detected, 1u);
  // Exactly the torn insert is gone; everything before it survived.
  EXPECT_EQ(engine->pending_inserts(), pending_before - 1);
  EXPECT_EQ(stats.time_advances, 1u);
  EXPECT_FALSE(TopForecast(*engine).empty());
}

TEST_F(RecoveryTest, QuarantineSurvivesReopen) {
  {
    EngineOptions options = DurableOptions();
    options.reestimate_after_updates = 2;
    options.quarantine_after_refit_failures = 1;
    auto engine = Open(options);
    LoadConfig(*engine);
    Advance(*engine, 3);  // invalidates every model
    failpoint::Enable(kFailpointEngineRefit, failpoint::Policy::Always());
    for (int q = 0; q < 2; ++q) {
      ASSERT_TRUE(engine->ForecastNode(engine->graph().top_node(), 1).ok());
    }
    failpoint::DisableAll();
    ASSERT_GE(engine->stats().quarantines, 1u);
  }

  EngineOptions options = DurableOptions();
  options.reestimate_after_updates = 2;
  options.quarantine_after_refit_failures = 1;
  auto engine = Open(options);
  EXPECT_GE(engine->stats().quarantines, 1u);
  bool saw_quarantined = false;
  for (const ModelView live : engine->snapshot()->models) {
    if (live.record->quarantined) saw_quarantined = true;
  }
  EXPECT_TRUE(saw_quarantined);
}

TEST_F(RecoveryTest, ModelReestimateSurvivesReopen) {
  // Once with a plain close, once with a compaction (the durable cut)
  // between the refit and the close.
  for (const bool compact : {false, true}) {
    SCOPED_TRACE(compact ? "compacted before close" : "plain close");
    f2db::testing::RemoveDirectoryTree(dir_);
    std::vector<double> before;
    EngineOptions options = DurableOptions();
    options.reestimate_after_updates = 2;
    {
      auto engine = Open(options);
      LoadConfig(*engine);
      Advance(*engine, 3);  // invalidates every model
      // The query triggers a lazy refit whose publication is WAL-logged.
      before = TopForecast(*engine);
      ASSERT_GE(engine->stats().reestimates, 1u);
      if (compact) {
        ASSERT_TRUE(engine->CompactNow().ok());
      }
    }

    auto engine = Open(options);
    EXPECT_EQ(engine->stats().segment_records_recovered > 0, compact);
    // The re-estimated model replays from its kModelInstall record (or
    // the compaction's catalog): the same query answers identically
    // without refitting again.
    const std::size_t reestimates_before = engine->stats().reestimates;
    const std::vector<double> after = TopForecast(*engine);
    EXPECT_EQ(engine->stats().reestimates, reestimates_before);
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t h = 0; h < after.size(); ++h) {
      EXPECT_DOUBLE_EQ(after[h], before[h]) << "h=" << h;
    }
  }
}

TEST_F(RecoveryTest, PendingReestimateSurvivesCompaction) {
  // Models invalidated by advances no query has touched yet must stay
  // invalid through a compaction and a reopen: the compaction's tail
  // carries every model's refit bookkeeping. A control engine that never
  // closed refits at the same points, so every node's forecast and the
  // re-estimation count must agree through the following advances.
  EngineOptions options = DurableOptions();
  options.reestimate_after_updates = 2;
  EngineOptions control_options;
  control_options.maintenance_threads = 1;
  control_options.reestimate_after_updates = 2;
  F2dbEngine control(testing::MakeRegionCube(48, 0.0), control_options);
  LoadConfig(control);
  Advance(control, 3);
  {
    auto engine = Open(options);
    LoadConfig(*engine);
    Advance(*engine, 3);  // no query: every model invalid, none refit
    ASSERT_EQ(engine->stats().reestimates, 0u);
    ASSERT_TRUE(engine->CompactNow().ok());
  }

  auto engine = Open(options);
  EXPECT_GT(engine->stats().segment_records_recovered, 0u);
  const std::size_t nodes = engine->graph().num_nodes();
  for (int round = 0; round <= 3; ++round) {
    SCOPED_TRACE("advances after reopen: " + std::to_string(round));
    std::size_t differing = 0;
    for (NodeId node = 0; node < nodes; ++node) {
      auto got = engine->ForecastNode(node, 3);
      auto want = control.ForecastNode(node, 3);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      if (got.value() != want.value()) ++differing;
    }
    EXPECT_EQ(differing, 0u) << "of " << nodes << " nodes";
    EXPECT_EQ(engine->stats().reestimates, control.stats().reestimates);
    if (round < 3) {
      Advance(*engine, 1);
      Advance(control, 1);
    }
  }
}

TEST_F(RecoveryTest, RecoveryCountersAppearInPrometheusText) {
  {
    auto engine = Open(DurableOptions());
    LoadConfig(*engine);
    Advance(*engine, 1);
  }
  auto engine = Open(DurableOptions());
  std::string text = engine->stats().ToPrometheusText();
  for (const char* metric :
       {"f2db_wal_records_appended_total", "f2db_wal_bytes_total",
        "f2db_wal_records_replayed_total", "f2db_torn_tail_detected",
        "f2db_recovery_duration_ms", "f2db_last_compaction_age_seconds"}) {
    EXPECT_NE(text.find(metric), std::string::npos) << metric;
  }
  // The checkpoint families are gone; the age of the durable cut is the
  // compaction's, -1 until one completes.
  for (const char* metric :
       {"f2db_checkpoints_completed_total", "f2db_checkpoint_failures_total",
        "f2db_last_checkpoint_age_seconds"}) {
    EXPECT_EQ(text.find(metric), std::string::npos) << metric;
  }
  EXPECT_NE(text.find("# HELP f2db_last_compaction_age_seconds Seconds since "
                      "the last completed compaction (the durable cut); -1 "
                      "when none completed yet.\n"
                      "# TYPE f2db_last_compaction_age_seconds gauge\n"
                      "f2db_last_compaction_age_seconds -1\n"),
            std::string::npos)
      << text;
  ASSERT_TRUE(engine->CompactNow().ok());
  text = engine->stats().ToPrometheusText();
  EXPECT_EQ(text.find("f2db_last_compaction_age_seconds -1\n"),
            std::string::npos)
      << text;
}

TEST_F(RecoveryTest, ServerShutdownWritesACheckpoint) {
  std::size_t models = 0;
  {
    auto engine = Open(DurableOptions());
    LoadConfig(*engine);
    Advance(*engine, 1);
    models = ModelsOf(*engine);

    F2dbServer server(*engine, ServerOptions{});
    ASSERT_TRUE(server.Start().ok());
    server.Shutdown();
    // The drain's durable cut is a compaction.
    EXPECT_EQ(engine->stats().compactions_completed, 1u);
  }

  // The next open bulk-loads the sealed history and replays only the
  // rewritten tail: the catalog and one bookkeeping record per model.
  auto engine = Open(DurableOptions());
  EXPECT_GT(engine->stats().segment_records_recovered, 0u);
  EXPECT_EQ(engine->stats().wal_records_replayed, 1u + models);
  EXPECT_EQ(engine->stats().time_advances, 1u);
  EXPECT_FALSE(TopForecast(*engine).empty());
}

}  // namespace
}  // namespace f2db
