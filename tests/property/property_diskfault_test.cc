// Disk-fault differential property wall: generated workloads replayed
// through durable engines under seeded errno-level I/O fault schedules.
// Every answer must match the per-engine oracle or be an HONEST disk
// rejection; the forced storm must brown out into read-only, the health
// probe must auto-heal, and recovery must be bit-identical.

#include <string>

#include "gtest/gtest.h"
#include "testing/differential.h"
#include "testing/property.h"
#include "testing/replay_hint.h"
#include "testing/workload.h"

namespace f2db::testing {
namespace {

std::string ScratchDir(const std::string& label) {
  return "/tmp/f2db_diskfault_prop_" + label;
}

/// The I/O fault plan with the fault schedule seeded from `seed`.
DifferentialPlan IoPlan(std::uint64_t seed) {
  DifferentialPlan plan;
  plan.faults = FaultPlan::kIo;
  plan.fault_seed = SubSeed(seed, "faults");
  return plan;
}

/// Runs one spec under one fault schedule and fails with the replay hint
/// on any divergence. The report's storm/recovery bits are part of the
/// contract, not best-effort.
void RunAndReport(const WorkloadSpec& spec, DifferentialPlan plan,
                  const std::string& label, std::uint64_t base) {
  plan.data_dir = ScratchDir(label);
  const DifferentialReport report = RunDifferential(spec, plan);
  ASSERT_TRUE(report.ok) << report.failure << "\n" << ReplayHint(base);
  EXPECT_TRUE(report.forced_read_only) << label;
  EXPECT_TRUE(report.auto_recovered) << label;
  EXPECT_TRUE(report.recovery_bit_identical) << label;
  EXPECT_GT(report.queries, 0u) << label;
}

TEST(IoFaultPropertyTest, WalAppendEioSchedulesAgree) {
  const std::uint64_t base = PropertySeed();
  const std::size_t rounds = PropertyIterations(2);
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::uint64_t seed =
        SubSeed(base, "wal-eio-" + std::to_string(round));
    DifferentialPlan plan = IoPlan(seed);
    plan.fault_site = "io.wal_append";
    plan.fault_errno = 5;  // EIO
    RunAndReport(GenerateWorkload(seed, round % NumWorkloadShapes(),
                                  /*inject_refit_failures=*/false),
                 plan, "wal-eio-" + std::to_string(round), base);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(IoFaultPropertyTest, WalFsyncEioSchedulesAgree) {
  const std::uint64_t base = PropertySeed();
  const std::size_t rounds = PropertyIterations(2);
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::uint64_t seed =
        SubSeed(base, "fsync-eio-" + std::to_string(round));
    DifferentialPlan plan = IoPlan(seed);
    plan.fault_site = "io.wal_fsync";
    plan.fault_errno = 5;
    RunAndReport(GenerateWorkload(seed, (round + 1) % NumWorkloadShapes(),
                                  /*inject_refit_failures=*/false),
                 plan, "fsync-eio-" + std::to_string(round), base);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(IoFaultPropertyTest, TornShortWritesRollBackCleanly) {
  const std::uint64_t base = PropertySeed();
  const std::size_t rounds = PropertyIterations(2);
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::uint64_t seed =
        SubSeed(base, "torn-" + std::to_string(round));
    DifferentialPlan plan = IoPlan(seed);
    plan.fault_site = "io.wal_append";
    plan.short_writes = true;
    // Torn appends exercise the rollback path hardest with a hot coin.
    plan.fault_probability = 0.25;
    RunAndReport(GenerateWorkload(seed, (round + 2) % NumWorkloadShapes(),
                                  /*inject_refit_failures=*/false),
                 plan, "torn-" + std::to_string(round), base);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(IoFaultPropertyTest, EnospcSchedulesAgreeEmbeddedOnly) {
  // ENOSPC exercises the emergency-retention branch; embedded-only keeps
  // this variant fast enough to run more schedules.
  const std::uint64_t base = PropertySeed();
  const std::size_t rounds = PropertyIterations(3);
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::uint64_t seed =
        SubSeed(base, "enospc-" + std::to_string(round));
    DifferentialPlan plan = IoPlan(seed);
    plan.fault_site = "io.wal_append";
    plan.fault_errno = 28;  // ENOSPC
    plan.topology = Topology::kEmbedded;
    RunAndReport(GenerateWorkload(seed, round % NumWorkloadShapes(),
                                  /*inject_refit_failures=*/false),
                 plan, "enospc-" + std::to_string(round), base);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(IoFaultPropertyTest, FaultScheduleIsDeterministicPerSeed) {
  // Same spec + same fault seed must produce the same accounting — the
  // property wall is replayable by construction.
  const std::uint64_t base = PropertySeed();
  const std::uint64_t seed = SubSeed(base, "determinism");
  const WorkloadSpec spec =
      GenerateWorkload(seed, 0, /*inject_refit_failures=*/false);
  DifferentialPlan plan = IoPlan(seed);
  plan.topology = Topology::kEmbedded;

  plan.data_dir = ScratchDir("det-a");
  const DifferentialReport first = RunDifferential(spec, plan);
  plan.data_dir = ScratchDir("det-b");
  const DifferentialReport second = RunDifferential(spec, plan);

  ASSERT_TRUE(first.ok) << first.failure << "\n" << ReplayHint(base);
  ASSERT_TRUE(second.ok) << second.failure;
  EXPECT_EQ(first.inserts_accepted, second.inserts_accepted);
  EXPECT_EQ(first.disk_rejections, second.disk_rejections);
  EXPECT_EQ(first.inserts_rejected, second.inserts_rejected);
  EXPECT_EQ(first.queries, second.queries);
  EXPECT_EQ(first.rows_compared, second.rows_compared);
}

}  // namespace
}  // namespace f2db::testing
