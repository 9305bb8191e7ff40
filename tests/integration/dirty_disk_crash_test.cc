// Dirty-disk crash fuzzing: the crash child runs its whole insert window
// under seeded probabilistic I/O faults (torn WAL appends, fsync EIO)
// absorbed by a deep retry budget, and the SIGKILL lands amid that churn.
// Recovery must still agree with the oracle exactly — the rollback path
// may never leak a half-written record into the replayable WAL.
//
// Replay a reported failure with
//   F2DB_PROPERTY_SEED=<seed> ctest -R CrashFuzzDirtyDisk
// (the failing iteration's data directory is kept on disk).

#include <unistd.h>

#include <gtest/gtest.h>

#include <string>

#include "testing/crash.h"
#include "testing/property.h"

namespace f2db::testing {
namespace {

class CrashFuzzDirtyDiskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/f2db_dirtycrash_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override { RemoveDirectoryTree(dir_); }

  std::string dir_;
};

TEST_F(CrashFuzzDirtyDiskTest, SeededKillPointsRecoverUnderIoFaults) {
  const std::uint64_t base = PropertySeed();
  const std::size_t iterations = PropertyIterations(200);

  std::size_t killed = 0;
  std::size_t torn = 0;
  std::size_t accepted = 0;
  std::size_t second_compactions = 0;
  for (std::size_t i = 0; i < iterations; ++i) {
    CrashFuzzOptions options;
    options.seed = SubSeed(base, "dirty-" + std::to_string(i));
    options.data_dir = dir_ + "/iter";
    options.dirty_disk = true;
    const CrashFuzzReport report = RunCrashFuzz(options);
    ASSERT_TRUE(report.ok) << report.failure << "\n" << ReplayHint(base);
    if (report.killed_by_sigkill) ++killed;
    if (report.torn_tail_injected) ++torn;
    accepted += report.inserts_accepted;
    second_compactions += report.second_compaction_taken ? 1 : 0;
  }

  // The run must actually have exercised the composition, not vacuously
  // passed on empty iterations.
  EXPECT_GT(killed, iterations / 2);
  EXPECT_GT(torn, 0u);
  EXPECT_GT(accepted, 0u);
  // Compactions amid the faults: the durable cut must stay recoverable
  // when its rotation or tail rewrite fails.
  EXPECT_GT(second_compactions, 0u);
}

TEST_F(CrashFuzzDirtyDiskTest, IterationIsDeterministicPerSeed) {
  const std::uint64_t seed = SubSeed(PropertySeed(), "dirty-determinism");
  CrashFuzzOptions options;
  options.seed = seed;
  options.dirty_disk = true;

  options.data_dir = dir_ + "/a";
  const CrashFuzzReport first = RunCrashFuzz(options);
  options.data_dir = dir_ + "/b";
  const CrashFuzzReport second = RunCrashFuzz(options);

  ASSERT_TRUE(first.ok) << first.failure << "\n" << ReplayHint(seed);
  ASSERT_TRUE(second.ok) << second.failure;
  EXPECT_EQ(first.attempts_total, second.attempts_total);
  EXPECT_EQ(first.attempts_executed, second.attempts_executed);
  EXPECT_EQ(first.inserts_accepted, second.inserts_accepted);
  EXPECT_EQ(first.torn_tail_injected, second.torn_tail_injected);
  EXPECT_EQ(first.second_compaction_taken, second.second_compaction_taken);
}

}  // namespace
}  // namespace f2db::testing
