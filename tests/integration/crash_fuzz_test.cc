// Crash-recovery fuzzing: SIGKILL a durable engine child at seeded random
// points mid-workload, recover in the parent, and require differential
// agreement with the ReferenceOracle (the kill plan of
// src/testing/differential.h).
//
// Replay a reported failure with the hint it prints
//   F2DB_PROPERTY_SEED=<base> ctest -R '^<Suite.Test>$' --output-on-failure
// (the failing iteration's data directory is kept on disk).

#include <unistd.h>

#include <gtest/gtest.h>

#include <string>

#include "testing/crash.h"
#include "testing/differential.h"
#include "testing/property.h"
#include "testing/replay_hint.h"
#include "testing/workload.h"

namespace f2db::testing {
namespace {

/// Per-kill-point coverage accumulator for the compaction leg: counts how
/// often each storage crash hook actually killed an iteration.
struct CompactionCoverage {
  std::size_t attempted = 0;
  std::size_t completed = 0;  // attempted with no kill point armed
  std::size_t segment_written = 0;
  std::size_t before_rename = 0;
  std::size_t after_rename = 0;
  std::size_t before_wal_delete = 0;

  void Record(const DifferentialReport& report) {
    if (!report.compaction_attempted) return;
    ++attempted;
    const std::string& point = report.compaction_crash_point;
    if (point.empty()) ++completed;
    if (point == "segment_written") ++segment_written;
    if (point == "before_manifest_rename") ++before_rename;
    if (point == "after_manifest_rename") ++after_rename;
    if (point == "before_wal_delete") ++before_wal_delete;
  }

  /// Every stage of the compaction protocol must have been hit at least
  /// once, including the completed-cleanly case.
  void ExpectFullCoverage() const {
    EXPECT_GT(completed, 0u);
    EXPECT_GT(segment_written, 0u);
    EXPECT_GT(before_rename, 0u);
    EXPECT_GT(after_rename, 0u);
    EXPECT_GT(before_wal_delete, 0u);
  }
};

/// One crash iteration of `seed`: the seed's workload (a scatter-gather
/// one on `num_shards` > 1 shards) under the kill plan.
DifferentialReport RunCrash(std::uint64_t seed, const std::string& data_dir,
                            std::size_t num_shards = 1) {
  const std::size_t shape =
      static_cast<std::size_t>(seed % NumWorkloadShapes());
  DifferentialPlan plan;
  plan.faults = FaultPlan::kKill;
  plan.data_dir = data_dir;
  plan.topology = num_shards > 1 ? Topology::kSharded : Topology::kEmbedded;
  plan.num_shards = num_shards;
  return RunDifferential(
      num_shards > 1 ? GenerateScatterGatherWorkload(seed, shape, false)
                     : GenerateWorkload(seed, shape, false),
      plan);
}

class CrashFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/f2db_crash_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override { RemoveDirectoryTree(dir_); }

  std::string dir_;
};

TEST_F(CrashFuzzTest, SeededKillPointsRecoverWithDifferentialAgreement) {
  const std::uint64_t base = PropertySeed();
  // 200 distinct kill points by default; F2DB_PROPERTY_ITERATIONS scales
  // the budget up for nightly runs.
  const std::size_t iterations = PropertyIterations(200);

  std::size_t torn = 0;
  std::size_t second_compactions = 0;
  std::size_t replayed = 0;
  CompactionCoverage compactions;
  for (std::size_t i = 0; i < iterations; ++i) {
    const DifferentialReport report =
        RunCrash(SubSeed(base, "crash-" + std::to_string(i)), dir_ + "/iter");
    ASSERT_TRUE(report.ok) << report.failure << "\n"
                           << ReplayHint(base) << " (iteration " << i << ")";
    EXPECT_TRUE(report.killed_by_sigkill);
    torn += report.torn_tail_injected ? 1 : 0;
    second_compactions += report.second_compaction_taken ? 1 : 0;
    replayed += report.records_replayed;
    compactions.Record(report);
  }

  // Coverage sanity: across 200 seeds the plan must have exercised every
  // recovery mode, not just the easy clean-tail path — including a SIGKILL
  // inside every stage of the compaction protocol.
  EXPECT_GE(torn, iterations / 20);
  EXPECT_GE(second_compactions, iterations / 20);
  EXPECT_GE(compactions.attempted, iterations / 4);
  compactions.ExpectFullCoverage();
  EXPECT_GT(replayed, 0u);
}

TEST_F(CrashFuzzTest, MultiShardKillPointsRecoverEveryShard) {
  // The sharded configuration: per-shard WAL directories, parallel
  // recovery, and the torn tail landing on exactly one shard while its
  // siblings replay intact (see crash.h).
  const std::uint64_t base = PropertySeed();
  const std::size_t iterations = PropertyIterations(60);
  const std::size_t shard_counts[] = {2, 3, 5};

  std::size_t torn = 0;
  std::size_t second_compactions = 0;
  CompactionCoverage compactions;
  for (std::size_t i = 0; i < iterations; ++i) {
    const std::size_t num_shards = shard_counts[i % 3];
    const DifferentialReport report =
        RunCrash(SubSeed(base, "crash-sharded-" + std::to_string(i)),
                 dir_ + "/iter", num_shards);
    ASSERT_TRUE(report.ok) << report.failure << "\n"
                           << ReplayHint(base) << " (iteration " << i
                           << ", shards " << num_shards << ")";
    EXPECT_TRUE(report.killed_by_sigkill);
    torn += report.torn_tail_injected ? 1 : 0;
    second_compactions += report.second_compaction_taken ? 1 : 0;
    compactions.Record(report);
  }
  EXPECT_GE(torn, iterations / 20);
  EXPECT_GE(second_compactions, iterations / 20);
  // The sharded fan-out compacts shard by shard, so an armed kill point
  // leaves sibling shards at earlier protocol stages; require the plan to
  // have exercised compaction here too (60 iterations: every kill point
  // lands with probability ~1/10 each, so demand attempts, not all five).
  EXPECT_GE(compactions.attempted, iterations / 5);
  EXPECT_GT(compactions.segment_written + compactions.before_rename +
                compactions.after_rename + compactions.before_wal_delete,
            0u);
}

TEST_F(CrashFuzzTest, IterationsAreDeterministic) {
  const std::uint64_t seed = SubSeed(PropertySeed(), "crash-determinism");
  const DifferentialReport first = RunCrash(seed, dir_ + "/iter");
  const DifferentialReport second = RunCrash(seed, dir_ + "/iter");
  ASSERT_TRUE(first.ok) << first.failure;
  ASSERT_TRUE(second.ok) << second.failure;
  EXPECT_EQ(first.attempts_total, second.attempts_total);
  EXPECT_EQ(first.attempts_executed, second.attempts_executed);
  EXPECT_EQ(first.inserts_accepted, second.inserts_accepted);
  EXPECT_EQ(first.second_compaction_taken, second.second_compaction_taken);
  EXPECT_EQ(first.torn_tail_injected, second.torn_tail_injected);
  EXPECT_EQ(first.compaction_attempted, second.compaction_attempted);
  EXPECT_EQ(first.compaction_crash_point, second.compaction_crash_point);
  EXPECT_EQ(first.records_replayed, second.records_replayed);
}

}  // namespace
}  // namespace f2db::testing
