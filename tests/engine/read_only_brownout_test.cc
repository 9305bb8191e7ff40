// The disk-health policy end to end on a durable engine: EIO storms
// crossing the failure threshold into read-only, the retry-after hint on
// rejected writes, brownout query serving, the health probe's automatic
// exit, the ENOSPC emergency retention pass, and WAL short-write rollback.

#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/advisor_builder.h"
#include "common/failpoint.h"
#include "core/evaluator.h"
#include "engine/engine.h"
#include "storage/fsio.h"
#include "testing/crash.h"
#include "testing/test_cubes.h"

namespace f2db {
namespace {

class ReadOnlyBrownoutTest : public ::testing::Test {
 protected:
  ReadOnlyBrownoutTest()
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
    char tmpl[] = "/tmp/f2db_readonly_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    failpoint::DisableAll();
    testing::RemoveDirectoryTree(dir_);
  }

  EngineOptions DurableOptions() const {
    EngineOptions options;
    options.maintenance_threads = 1;
    options.data_dir = dir_;
    options.fsync_policy = FsyncPolicy::kAlways;
    options.disk_failure_threshold = 2;
    options.disk_retry_attempts = 0;
    options.disk_retry_backoff_ms = 0.0;
    options.disk_probe_interval_seconds = 0.0;  // probe off unless a test opts in
    options.read_only_retry_after_ms = 250.0;
    return options;
  }

  std::unique_ptr<F2dbEngine> Open(EngineOptions options) {
    auto engine = F2dbEngine::Open(testing::MakeRegionCube(48, 0.0), options);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    std::unique_ptr<F2dbEngine> out =
        engine.ok() ? std::move(engine).value() : nullptr;
    if (out != nullptr) {
      const Status loaded = out->LoadConfiguration(config_, evaluator_);
      EXPECT_TRUE(loaded.ok()) << loaded.ToString();
    }
    return out;
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

  /// Drives inserts at distinct future timestamps until the engine goes
  /// read-only (every attempt must be an honest disk rejection).
  static void StormToReadOnly(F2dbEngine& engine) {
    const NodeId base = engine.graph().base_nodes()[0];
    const std::int64_t frontier =
        engine.snapshot()->graph->series(base).end_time();
    for (int attempt = 0; attempt < 16; ++attempt) {
      if (engine.disk_health() == DiskHealthState::kReadOnly) return;
      const Status status =
          engine.InsertFact(base, frontier + 100 + attempt, 1.0);
      ASSERT_EQ(status.code(), StatusCode::kUnavailable) << status.message();
    }
    ASSERT_EQ(engine.disk_health(), DiskHealthState::kReadOnly);
  }

  static std::vector<double> TopForecast(const F2dbEngine& engine) {
    auto forecast = engine.ForecastNode(engine.graph().top_node(), 3);
    EXPECT_TRUE(forecast.ok()) << forecast.status().ToString();
    return forecast.ok() ? forecast.value() : std::vector<double>{};
  }

  TimeSeriesGraph evaluator_graph_;
  ConfigurationEvaluator evaluator_;
  ModelFactory factory_;
  ModelConfiguration config_;
  std::string dir_;
};

TEST_F(ReadOnlyBrownoutTest, EioStormEntersReadOnlyWithRetryHint) {
  auto engine = Open(DurableOptions());
  Advance(*engine, 4);
  const std::vector<double> before = TopForecast(*engine);
  const NodeId base = engine->graph().base_nodes()[0];
  const std::int64_t frontier =
      engine->snapshot()->graph->series(base).end_time();

  failpoint::Enable(storage::kIoSiteWalAppend, failpoint::Policy::Always());

  // Below the threshold each rejection carries the errno marker.
  const Status first = engine->InsertFact(base, frontier + 1, 1.0);
  EXPECT_EQ(first.code(), StatusCode::kUnavailable);
  EXPECT_EQ(storage::ErrnoFromStatus(first), EIO);
  EXPECT_EQ(engine->disk_health(), DiskHealthState::kDegraded);

  // The threshold crossing flips to read-only; from here on rejections
  // carry the client-visible retry-after hint instead.
  const Status second = engine->InsertFact(base, frontier + 2, 1.0);
  EXPECT_EQ(second.code(), StatusCode::kUnavailable);
  EXPECT_EQ(engine->disk_health(), DiskHealthState::kReadOnly);
  const Status third = engine->InsertFact(base, frontier + 3, 1.0);
  EXPECT_EQ(third.code(), StatusCode::kUnavailable);
  EXPECT_NE(third.message().find("retry-after-ms=250"), std::string::npos)
      << third.message();

  // Read-only is a brownout, not an outage: queries keep serving.
  EXPECT_EQ(TopForecast(*engine), before);

  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.disk_health, 2u);
  EXPECT_GE(stats.io_failures_eio, 2u);
  EXPECT_EQ(stats.read_only_entries, 1u);
  EXPECT_EQ(stats.read_only_exits, 0u);
}

TEST_F(ReadOnlyBrownoutTest, ProbeExitsReadOnlyWhenDiskRecovers) {
  EngineOptions options = DurableOptions();
  options.disk_probe_interval_seconds = 0.02;
  auto engine = Open(options);
  Advance(*engine, 4);

  failpoint::Enable(storage::kIoSiteWalAppend, failpoint::Policy::Always());
  // The probe itself must fail while the device is down, else it would
  // exit read-only between our assertions.
  failpoint::Enable(storage::kIoSiteProbeWrite, failpoint::Policy::Always());
  StormToReadOnly(*engine);

  failpoint::DisableAll();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (engine->disk_health() != DiskHealthState::kOk &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(engine->disk_health(), DiskHealthState::kOk);

  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.read_only_entries, 1u);
  EXPECT_EQ(stats.read_only_exits, 1u);

  // Writes flow again.
  const NodeId base = engine->graph().base_nodes()[0];
  const std::int64_t frontier =
      engine->snapshot()->graph->series(base).end_time();
  EXPECT_TRUE(engine->InsertFact(base, frontier + 1000, 2.0).ok());
}

TEST_F(ReadOnlyBrownoutTest, EnospcSpendsOneEmergencyRetentionPass) {
  EngineOptions options = DurableOptions();
  options.retention_window = 8;
  options.disk_failure_threshold = 100;  // stay out of read-only here
  auto engine = Open(options);
  Advance(*engine, 4);
  const NodeId base = engine->graph().base_nodes()[0];
  const std::int64_t frontier =
      engine->snapshot()->graph->series(base).end_time();

  failpoint::Enable(storage::kIoSiteWalAppend,
                    failpoint::Policy::Always().WithErrno(ENOSPC));

  // First ENOSPC failure spends the one-shot retention token; the second
  // must not spend another within the same failure episode.
  const Status first = engine->InsertFact(base, frontier + 1, 1.0);
  EXPECT_EQ(first.code(), StatusCode::kUnavailable);
  const Status second = engine->InsertFact(base, frontier + 2, 1.0);
  EXPECT_EQ(second.code(), StatusCode::kUnavailable);

  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.emergency_retentions, 1u);
  EXPECT_GE(stats.io_failures_enospc, 2u);

  // A durable success ends the episode and re-arms the token.
  failpoint::DisableAll();
  ASSERT_TRUE(engine->InsertFact(base, frontier + 3, 1.0).ok());
  failpoint::Enable(storage::kIoSiteWalAppend,
                    failpoint::Policy::Always().WithErrno(ENOSPC));
  EXPECT_EQ(engine->InsertFact(base, frontier + 4, 1.0).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(engine->stats().emergency_retentions, 2u);
}

TEST_F(ReadOnlyBrownoutTest, BrownoutQueriesSkipRefitsButStillServe) {
  EngineOptions options = DurableOptions();
  options.reestimate_after_updates = 1;  // every insert invalidates models
  auto engine = Open(options);
  Advance(*engine, 5);

  failpoint::Enable(storage::kIoSiteWalAppend, failpoint::Policy::Always());
  StormToReadOnly(*engine);

  // The accepted inserts left models invalid; a healthy query would lazily
  // refit. Under brownout the refit is shed and the stale model serves
  // with an annotation.
  auto result = engine->ExecuteSql(
      "SELECT time, SUM(sales) FROM facts GROUP BY time AS OF now() + '3'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 3u);
  EXPECT_NE(result.value().degradation, DegradationLevel::kNone);
  EXPECT_NE(result.value().degradation_reason.find("brownout"),
            std::string::npos)
      << result.value().degradation_reason;
  EXPECT_NE(result.value().degradation_reason.find(
                "re-estimation skipped under read-only brownout"),
            std::string::npos)
      << result.value().degradation_reason;
  EXPECT_GE(engine->stats().brownout_refits_skipped, 1u);
}

TEST_F(ReadOnlyBrownoutTest, ForecastNodeSkipsRefitsWhileReadOnly) {
  EngineOptions options = DurableOptions();
  options.reestimate_after_updates = 1;  // every insert invalidates models
  auto engine = Open(options);
  Advance(*engine, 5);

  failpoint::Enable(storage::kIoSiteWalAppend, failpoint::Policy::Always());
  StormToReadOnly(*engine);

  // The node-id entry point takes the same posture as a SQL query: no
  // model is fitted on a read-only engine, the stale rung serves.
  const EngineStats before = engine->stats();
  auto forecast = engine->ForecastNode(engine->graph().top_node(), 3);
  ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
  EXPECT_EQ(forecast.value().size(), 3u);
  const EngineStats after = engine->stats();
  EXPECT_EQ(after.reestimates, before.reestimates);
  EXPECT_GT(after.brownout_refits_skipped, before.brownout_refits_skipped);
}

// ------------------------------------------------- WAL short-write rollback

class IoFaultWalRollbackTest : public ReadOnlyBrownoutTest {};

TEST_F(IoFaultWalRollbackTest, TornAppendBuffersNothingAndRetrySucceeds) {
  EngineOptions options = DurableOptions();
  options.disk_failure_threshold = 100;
  auto engine = Open(options);
  Advance(*engine, 4);
  const NodeId base = engine->graph().base_nodes()[0];
  const std::int64_t frontier =
      engine->snapshot()->graph->series(base).end_time();
  const std::size_t pending_before = engine->pending_inserts();

  // Exactly one torn append: a real prefix lands on the fd, then the
  // writer must roll the file back so the WAL stays record-aligned.
  failpoint::Enable(
      storage::kIoSiteWalAppend,
      failpoint::Policy::Always(/*max_triggers=*/1).WithShortWrite());
  const Status torn = engine->InsertFact(base, frontier + 1, 7.0);
  EXPECT_EQ(torn.code(), StatusCode::kUnavailable);
  EXPECT_EQ(storage::ErrnoFromStatus(torn), EIO);
  EXPECT_EQ(engine->pending_inserts(), pending_before)
      << "a failed append must buffer nothing";

  // The very same fact inserts cleanly — no phantom duplicate survived.
  const Status retried = engine->InsertFact(base, frontier + 1, 7.0);
  ASSERT_TRUE(retried.ok()) << retried.message();
  EXPECT_EQ(engine->pending_inserts(), pending_before + 1);
  const std::vector<double> before = TopForecast(*engine);

  // Recovery reads the rolled-back WAL without tripping on torn bytes and
  // sees the fact exactly once.
  engine.reset();
  auto reopened = Open(options);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(TopForecast(*reopened), before);
  EXPECT_EQ(reopened->InsertFact(base, frontier + 1, 7.0).code(),
            StatusCode::kAlreadyExists)
      << "the fact must have survived recovery exactly once";
}

TEST_F(IoFaultWalRollbackTest, InlineRetryMasksATransientFault) {
  EngineOptions options = DurableOptions();
  options.disk_retry_attempts = 2;
  options.disk_failure_threshold = 100;
  auto engine = Open(options);
  Advance(*engine, 4);
  const NodeId base = engine->graph().base_nodes()[0];
  const std::int64_t frontier =
      engine->snapshot()->graph->series(base).end_time();

  // One transient EIO, then the device heals: the caller never sees it.
  failpoint::Enable(storage::kIoSiteWalAppend,
                    failpoint::Policy::Always(/*max_triggers=*/1));
  const Status status = engine->InsertFact(base, frontier + 1, 3.0);
  ASSERT_TRUE(status.ok()) << status.message();

  const EngineStats stats = engine->stats();
  EXPECT_GE(stats.io_retries, 1u);
  EXPECT_EQ(stats.read_only_entries, 0u);
  EXPECT_EQ(engine->disk_health(), DiskHealthState::kOk);
}

}  // namespace
}  // namespace f2db
