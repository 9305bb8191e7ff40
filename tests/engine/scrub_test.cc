// The background integrity scrubber (DESIGN.md §15): re-verifying sealed
// segment / manifest CRCs, quarantining corrupt artifacts as
// *.corrupt, resealing the chain from in-memory history, and falling back
// to read-only when the reseal cannot land.

#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/advisor_builder.h"
#include "common/failpoint.h"
#include "core/evaluator.h"
#include "engine/engine.h"
#include "storage/fsio.h"
#include "storage/manifest.h"
#include "storage/segment.h"
#include "storage/store.h"
#include "testing/crash.h"
#include "testing/test_cubes.h"

namespace f2db {
namespace {

constexpr std::size_t kHorizon = 3;

/// Flips one byte in the middle of `path` (a CRC-breaking corruption).
void FlipByte(const std::string& path) {
  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.is_open()) << path;
  file.seekg(0, std::ios::end);
  const std::streamoff size = file.tellg();
  ASSERT_GT(size, 0);
  const std::streamoff at = size / 2;
  file.seekg(at);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5A);
  file.seekp(at);
  file.write(&byte, 1);
}

class ScrubTest : public ::testing::Test {
 protected:
  ScrubTest()
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
    char tmpl[] = "/tmp/f2db_scrub_XXXXXX";
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
    options.disk_probe_interval_seconds = 0.02;
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

  std::string FrontSegmentPath() const {
    auto manifest = storage::ReadManifestFile(storage::SegmentsDirFor(dir_));
    EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
    EXPECT_FALSE(manifest.value().segments.empty());
    return storage::SegmentPath(storage::SegmentsDirFor(dir_),
                                manifest.value().segments.front().seq);
  }

  TimeSeriesGraph evaluator_graph_;
  ConfigurationEvaluator evaluator_;
  ModelFactory factory_;
  ModelConfiguration config_;
  std::string dir_;
};

TEST_F(ScrubTest, InMemoryEngineRejectsScrub) {
  F2dbEngine engine(testing::MakeRegionCube(48, 0.0));
  EXPECT_EQ(engine.ScrubOnce().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ScrubTest, CleanChainVerifies) {
  auto engine = Open(DurableOptions());
  LoadConfig(*engine);
  Advance(*engine, 4);
  ASSERT_TRUE(engine->CompactNow().ok());

  ScrubReport report;
  const Status status = engine->ScrubOnce(&report);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(report.segments_verified, 1u);
  EXPECT_GT(report.bytes_verified, 0u);
  EXPECT_EQ(report.corruptions, 0u);
  EXPECT_FALSE(report.resealed);
  EXPECT_FALSE(report.entered_read_only);

  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.scrub_cycles, 1u);
  EXPECT_GT(stats.scrub_bytes, 0u);
  EXPECT_EQ(stats.scrub_corruptions, 0u);
}

TEST_F(ScrubTest, SingleByteFlipIsQuarantinedAndResealed) {
  auto engine = Open(DurableOptions());
  LoadConfig(*engine);
  Advance(*engine, 4);
  ASSERT_TRUE(engine->CompactNow().ok());
  const std::vector<double> before = TopForecast(*engine);

  const std::string segment = FrontSegmentPath();
  FlipByte(segment);

  // The very next pass must detect the flip, quarantine the file, and
  // reseal the chain from memory.
  ScrubReport report;
  const Status status = engine->ScrubOnce(&report);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(report.corruptions, 1u);
  EXPECT_TRUE(report.resealed);
  EXPECT_FALSE(report.entered_read_only);
  EXPECT_TRUE(storage::ReadFileToString(segment + ".corrupt").ok())
      << "corrupt segment must be quarantined, not deleted";

  // The resealed chain verifies clean and serves identical forecasts.
  ScrubReport second;
  ASSERT_TRUE(engine->ScrubOnce(&second).ok());
  EXPECT_EQ(second.corruptions, 0u);
  EXPECT_GE(second.segments_verified, 1u);
  EXPECT_EQ(TopForecast(*engine), before);
  EXPECT_EQ(engine->disk_health(), DiskHealthState::kOk);

  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.scrub_corruptions, 1u);
  EXPECT_EQ(stats.scrub_reseals, 1u);

  // Recovery reads the healed chain, never the quarantined bytes.
  const std::size_t advances = engine->stats().time_advances;
  engine.reset();
  auto reopened = Open(DurableOptions());
  EXPECT_EQ(TopForecast(*reopened), before);
  EXPECT_EQ(reopened->stats().time_advances, advances);
}

TEST_F(ScrubTest, CorruptManifestIsQuarantinedAndResealed) {
  auto engine = Open(DurableOptions());
  LoadConfig(*engine);
  Advance(*engine, 4);
  ASSERT_TRUE(engine->CompactNow().ok());
  const std::vector<double> before = TopForecast(*engine);

  const std::string manifest_path =
      storage::SegmentsDirFor(dir_) + "/" + storage::kManifestFileName;
  FlipByte(manifest_path);

  ScrubReport report;
  const Status status = engine->ScrubOnce(&report);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(report.corruptions, 1u);
  EXPECT_TRUE(report.resealed);
  EXPECT_TRUE(storage::ReadFileToString(manifest_path + ".corrupt").ok());

  // The rewritten manifest parses and covers the chain again.
  auto healed = storage::ReadManifestFile(storage::SegmentsDirFor(dir_));
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_FALSE(healed.value().segments.empty());
  EXPECT_EQ(TopForecast(*engine), before);

  engine.reset();
  auto reopened = Open(DurableOptions());
  EXPECT_EQ(TopForecast(*reopened), before);
}

TEST_F(ScrubTest, CorruptCheckpointIsRewrittenInPlace) {
  // The scrub targets are exactly the durable cut: the sealed chain and
  // the manifest. A corrupt checkpoint file an older version left behind
  // is neither verified nor rewritten — nothing reads it — while a flip in
  // the live manifest is quarantined and the manifest rewritten in place.
  auto engine = Open(DurableOptions());
  LoadConfig(*engine);
  Advance(*engine, 4);
  ASSERT_TRUE(engine->CompactNow().ok());
  const std::vector<double> before = TopForecast(*engine);

  const std::string legacy_path = dir_ + "/checkpoint.f2db";
  const std::string legacy_text = "f2db-checkpoint v1\ncrc deadbeef\n";
  {
    std::ofstream out(legacy_path, std::ios::trunc);
    out << legacy_text;
  }
  const std::string manifest_path =
      storage::SegmentsDirFor(dir_) + "/" + storage::kManifestFileName;
  const auto manifest_text = storage::ReadFileToString(manifest_path);
  ASSERT_TRUE(manifest_text.ok());

  ScrubReport clean;
  ASSERT_TRUE(engine->ScrubOnce(&clean).ok());
  EXPECT_EQ(clean.corruptions, 0u) << "the legacy file is not a target";
  const auto manifest =
      storage::ReadManifestFile(storage::SegmentsDirFor(dir_));
  ASSERT_TRUE(manifest.ok());
  std::uint64_t chain_bytes = 0;
  for (const storage::ManifestSegment& seg : manifest.value().segments) {
    chain_bytes += seg.bytes;
  }
  EXPECT_EQ(clean.bytes_verified,
            chain_bytes + manifest_text.value().size());
  EXPECT_EQ(storage::ReadFileToString(legacy_path).value(), legacy_text);

  FlipByte(manifest_path);
  ScrubReport report;
  const Status status = engine->ScrubOnce(&report);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(report.corruptions, 1u);
  EXPECT_TRUE(report.resealed);
  const auto healed =
      storage::ReadManifestFile(storage::SegmentsDirFor(dir_));
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(storage::ReadFileToString(legacy_path).value(), legacy_text);

  engine.reset();
  auto reopened = Open(DurableOptions());
  EXPECT_EQ(TopForecast(*reopened), before);
}

TEST_F(ScrubTest, FailedResealEntersReadOnlyThenHeals) {
  auto engine = Open(DurableOptions());
  LoadConfig(*engine);
  Advance(*engine, 4);
  ASSERT_TRUE(engine->CompactNow().ok());
  const std::vector<double> before = TopForecast(*engine);

  FlipByte(FrontSegmentPath());
  // The reseal compaction's segment write fails too: corruption detected,
  // but the repair cannot land — the engine must go read-only rather than
  // keep serving over a chain it cannot trust.
  failpoint::Enable(storage::kIoSiteSegmentWrite, failpoint::Policy::Always());

  ScrubReport report;
  const Status status = engine->ScrubOnce(&report);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(report.corruptions, 1u);
  EXPECT_TRUE(report.entered_read_only);
  EXPECT_EQ(engine->disk_health(), DiskHealthState::kReadOnly);

  // Read-only, not down: forecasts still serve from the snapshot.
  EXPECT_EQ(TopForecast(*engine), before);

  // Device recovers: the probe exits read-only, and the still-pending
  // reseal (the flag survives a failed attempt) rewrites the chain.
  failpoint::DisableAll();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (engine->disk_health() != DiskHealthState::kOk &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(engine->disk_health(), DiskHealthState::kOk);
  ASSERT_TRUE(engine->CompactNow().ok());

  ScrubReport clean;
  ASSERT_TRUE(engine->ScrubOnce(&clean).ok());
  EXPECT_EQ(clean.corruptions, 0u);
  EXPECT_EQ(TopForecast(*engine), before);
}

TEST_F(ScrubTest, BackgroundLoopDetectsFlipWithinOneCycle) {
  EngineOptions options = DurableOptions();
  options.scrub_interval_seconds = 0.05;
  auto engine = Open(options);
  LoadConfig(*engine);
  Advance(*engine, 4);
  ASSERT_TRUE(engine->CompactNow().ok());
  const std::vector<double> before = TopForecast(*engine);

  FlipByte(FrontSegmentPath());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const EngineStats stats = engine->stats();
    if (stats.scrub_corruptions >= 1 && stats.scrub_reseals >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const EngineStats stats = engine->stats();
  EXPECT_GE(stats.scrub_corruptions, 1u);
  EXPECT_GE(stats.scrub_reseals, 1u);
  EXPECT_EQ(TopForecast(*engine), before);
  EXPECT_EQ(engine->disk_health(), DiskHealthState::kOk);
}

TEST_F(ScrubTest, ThrottledScrubberShutsDownPromptly) {
  EngineOptions options = DurableOptions();
  options.scrub_interval_seconds = 0.01;
  // 1 byte/s: pacing a multi-KB chain would sleep for hours if the pace
  // wait were not interruptible by shutdown.
  options.scrub_rate_bytes_per_second = 1;
  auto engine = Open(options);
  LoadConfig(*engine);
  Advance(*engine, 4);
  ASSERT_TRUE(engine->CompactNow().ok());
  // Give the loop a chance to be mid-pass, then destroy the engine.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto start = std::chrono::steady_clock::now();
  engine.reset();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            5);
}

}  // namespace
}  // namespace f2db
