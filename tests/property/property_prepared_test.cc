// The prepared-statement differential wall: every differential harness,
// re-run in prepared mode. Each wire QUERY is shadowed by a
// PREPARE/EXECUTE pair whose response must be BIT-IDENTICAL — status,
// DegradationLevel, body bytes — across generated workloads, fault
// injection (refit failpoints pinning the stale rung), multi-shard
// scatter-gather behind a loopback server, and concurrent overload floods
// where half of every client's queries travel as EXECUTE frames.

#include <string>

#include "gtest/gtest.h"
#include "testing/differential.h"
#include "testing/property.h"
#include "testing/replay_hint.h"
#include "testing/workload.h"

namespace f2db::testing {
namespace {

/// Runs one spec in prepared mode; on failure shrinks it against the
/// prepared-mode predicate so the minimized spec still reproduces the
/// prepared-path divergence.
void RunPreparedAndReport(const WorkloadSpec& spec, std::uint64_t base) {
  DifferentialPlan plan;
  plan.mode = Mode::kPrepared;
  DifferentialReport report = RunDifferential(spec, plan);
  if (report.ok) {
    EXPECT_GT(report.prepared_executions, 0u)
        << "prepared mode ran no EXECUTEs — the wall is not testing anything";
    return;
  }
  const WorkloadSpec shrunk =
      ShrinkWorkload(spec, [&](const WorkloadSpec& candidate) {
        return !RunDifferential(candidate, plan).ok;
      });
  FAIL() << report.failure << "\n"
         << ReplayHint(base) << "\n"
         << "minimized to " << shrunk.ops.size() << " op(s):\n"
         << DescribeWorkload(shrunk);
}

TEST(PreparedDifferentialPropertyTest, ExecuteIsBitIdenticalToQuery) {
  const std::uint64_t base = PropertySeed();
  const std::size_t rounds = PropertyIterations(2);
  for (std::size_t shape = 0; shape < NumWorkloadShapes(); ++shape) {
    for (std::size_t round = 0; round < rounds; ++round) {
      const std::uint64_t seed =
          SubSeed(base, "prepared-" + std::to_string(shape) + "-" +
                            std::to_string(round));
      RunPreparedAndReport(GenerateWorkload(seed, shape,
                                            /*inject_refit_failures=*/false),
                           base);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(PreparedDifferentialPropertyTest, FaultInjectionKeepsByteParity) {
  // Refit failpoints force the stale-model rung: the degraded annotation
  // and the degraded VALUES must still be byte-identical across QUERY and
  // EXECUTE.
  const std::uint64_t base = PropertySeed();
  const std::size_t rounds = PropertyIterations(2);
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::uint64_t seed =
        SubSeed(base, "prepared-fault-" + std::to_string(round));
    const std::size_t shape = round % NumWorkloadShapes();
    RunPreparedAndReport(GenerateWorkload(seed, shape,
                                          /*inject_refit_failures=*/true),
                         base);
    if (HasFatalFailure()) return;
  }
}

TEST(PreparedDifferentialPropertyTest, ShardedScatterGatherKeepsByteParity) {
  // The same ShardedEngine answers typed queries directly AND serves a
  // loopback server: raw QUERY within rendering tolerance of the typed
  // answer, EXECUTE bit-identical to raw QUERY.
  const std::uint64_t base = PropertySeed();
  const std::size_t rounds = PropertyIterations(2);
  for (std::size_t round = 0; round < rounds; ++round) {
    for (const std::size_t num_shards : {2u, 3u}) {
      const std::uint64_t seed =
          SubSeed(base, "prepared-sharded-" + std::to_string(round) + "-" +
                            std::to_string(num_shards));
      const WorkloadSpec spec = GenerateScatterGatherWorkload(
          seed, round % NumWorkloadShapes(),
          /*inject_refit_failures=*/round % 2 == 1);
      DifferentialPlan plan;
      plan.topology = Topology::kSharded;
      plan.num_shards = num_shards;
      plan.mode = Mode::kPrepared;
      const DifferentialReport report = RunDifferential(spec, plan);
      EXPECT_TRUE(report.ok) << report.failure << "\n" << ReplayHint(base);
      if (report.ok) {
        EXPECT_GT(report.prepared_executions, 0u);
      }
      if (HasFatalFailure()) return;
    }
  }
}

TEST(PreparedDifferentialPropertyTest, OverloadFloodKeepsPreparedPathHonest) {
  // Concurrent EXECUTE traffic through admission control, brownout, and
  // shedding: every prepared answer is full-fidelity, annotated-degraded,
  // or an honest rejection — never silently wrong.
  const std::uint64_t base = PropertySeed();
  const std::size_t rounds = PropertyIterations(2);
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::uint64_t seed =
        SubSeed(base, "prepared-overload-" + std::to_string(round));
    const WorkloadSpec spec =
        GenerateWorkload(seed, round % NumWorkloadShapes(),
                         /*inject_refit_failures=*/round % 2 == 1);
    DifferentialPlan plan;
    plan.faults = FaultPlan::kOverload;
    plan.mode = Mode::kPrepared;
    plan.admission_queue_limit = 2;
    const DifferentialReport report = RunDifferential(spec, plan);
    EXPECT_TRUE(report.ok) << report.failure << "\n" << ReplayHint(base);
    if (report.ok) {
      EXPECT_GT(report.prepared_executions, 0u);
      EXPECT_EQ(report.queries,
                report.ok_full_fidelity + report.ok_degraded + report.shed +
                    report.deadline_expired);
    }
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace f2db::testing
