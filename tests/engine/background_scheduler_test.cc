// The engine's one background thread (DESIGN.md §13, §15): compaction, the
// read-only health probe and the integrity scrub run as tasks on it, each
// on its own cadence, and a paced scrub pass yields between files instead
// of holding the thread.

#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "engine/engine.h"
#include "engine/sharded_engine.h"
#include "testing/crash.h"
#include "testing/test_cubes.h"

namespace f2db {
namespace {

constexpr const char* kTaskDir = "/proc/self/task";

/// Threads of this process, one /proc/self/task entry each, read once the
/// count has stopped changing (threads a previous test joined may still be
/// leaving the list). A sanitizer runtime starts a helper thread with the
/// process's first thread, so one is started and joined first: the helper
/// then belongs to every baseline.
std::size_t SettledThreadCount() {
  std::thread([] {}).join();
  const auto count = [] {
    std::size_t n = 0;
    for (const auto& entry : std::filesystem::directory_iterator(kTaskDir)) {
      (void)entry;
      ++n;
    }
    return n;
  };
  std::size_t last = count();
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::size_t now = count();
    if (now == last) return now;
    last = now;
  }
  return last;
}

class BackgroundSchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/f2db_scheduler_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override { testing::RemoveDirectoryTree(dir_); }

  /// A durable engine whose three background cadences are all `seconds`.
  EngineOptions Options(double seconds) const {
    EngineOptions options;
    options.maintenance_threads = 1;
    options.data_dir = dir_;
    options.compaction_interval_seconds = seconds;
    options.disk_probe_interval_seconds = seconds;
    options.scrub_interval_seconds = seconds;
    return options;
  }

  static std::unique_ptr<F2dbEngine> Open(TimeSeriesGraph graph,
                                          const EngineOptions& options) {
    auto engine = F2dbEngine::Open(std::move(graph), options);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return engine.ok() ? std::move(engine).value() : nullptr;
  }

  std::string dir_;
};

TEST_F(BackgroundSchedulerTest, OneThreadRunsEveryTask) {
  if (!std::filesystem::exists(kTaskDir)) {
    GTEST_SKIP() << "counting threads needs " << kTaskDir;
  }
  {
    const std::size_t before = SettledThreadCount();
    auto engine = Open(testing::MakeRegionCube(48, 0.0), Options(60.0));
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(SettledThreadCount(), before + 1);
  }
  {
    const std::size_t before = SettledThreadCount();
    auto engine = Open(testing::MakeRegionCube(48, 0.0), Options(0.0));
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(SettledThreadCount(), before);
  }
}

TEST_F(BackgroundSchedulerTest, PacedScrubDoesNotStallCompaction) {
  const TimeSeriesGraph cube = testing::MakeRegionCube(200, 0.5);
  {
    // A first life seals the history into a multi-KB chain.
    auto engine = Open(cube, Options(0.0));
    ASSERT_NE(engine, nullptr);
    ASSERT_TRUE(engine->CompactNow().ok());
    ASSERT_GT(engine->stats().segment_live_bytes, 2048u);
  }
  EngineOptions options = Options(0.0);
  options.compaction_interval_seconds = 0.05;
  options.scrub_interval_seconds = 0.01;
  // 1 byte/s: the pass owes thousands of seconds after its first file.
  options.scrub_rate_bytes_per_second = 1;
  auto engine = Open(cube, options);
  ASSERT_NE(engine, nullptr);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (engine->stats().scrub_bytes == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(engine->stats().scrub_bytes, 0u) << "the scrub pass never began";
  const std::size_t compactions = engine->stats().compactions_completed;
  while (engine->stats().compactions_completed < compactions + 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const EngineStats stats = engine->stats();
  EXPECT_GE(stats.compactions_completed, compactions + 2);
  EXPECT_EQ(stats.scrub_cycles, 0u) << "the paced pass must still be running";
}

TEST_F(BackgroundSchedulerTest, ShardedEngineRunsOneThreadPerShard) {
  if (!std::filesystem::exists(kTaskDir)) {
    GTEST_SKIP() << "counting threads needs " << kTaskDir;
  }
  ShardedEngineOptions options;
  options.num_shards = 2;
  options.engine = Options(60.0);
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(48, 0.05);
  const std::size_t before = SettledThreadCount();
  auto sharded = ShardedEngine::Open(graph, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_EQ(sharded.value()->num_active_shards(), 2u);
  EXPECT_EQ(SettledThreadCount(), before + 2);
}

}  // namespace
}  // namespace f2db
