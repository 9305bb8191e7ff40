// Scatter-gather property tests: generated shard-safe workloads replayed
// through a ShardedEngine (M in {1, 2, 7}) and the reference oracle must
// agree — merged forecast values within tolerance, insert verdicts by
// status code, and the merged degradation annotation (the worst level of
// any contributing shard) under fault injection.

#include <string>

#include "gtest/gtest.h"
#include "testing/differential.h"
#include "testing/property.h"
#include "testing/replay_hint.h"
#include "testing/workload.h"

namespace f2db::testing {
namespace {

constexpr std::size_t kShardCounts[] = {1, 2, 7};

DifferentialPlan ShardedPlan(std::size_t num_shards) {
  DifferentialPlan plan;
  plan.topology = Topology::kSharded;
  plan.num_shards = num_shards;
  return plan;
}

void RunAndReport(const WorkloadSpec& spec, std::size_t num_shards,
                  std::uint64_t base) {
  const DifferentialReport report =
      RunDifferential(spec, ShardedPlan(num_shards));
  if (report.ok) return;
  FAIL() << report.failure << "\n"
         << ReplayHint(base) << "\n"
         << DescribeWorkload(spec);
}

TEST(ScatterGatherTest, ShardCountsAgreeWithOracle) {
  const std::uint64_t base = PropertySeed();
  const std::size_t rounds = PropertyIterations(2);
  for (const std::size_t m : kShardCounts) {
    for (std::size_t shape = 0; shape < NumWorkloadShapes(); ++shape) {
      for (std::size_t round = 0; round < rounds; ++round) {
        const std::uint64_t seed =
            SubSeed(base, "scatter-" + std::to_string(m) + "-" +
                              std::to_string(shape) + "-" +
                              std::to_string(round));
        RunAndReport(GenerateScatterGatherWorkload(
                         seed, shape, /*inject_refit_failures=*/false),
                     m, base);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(ScatterGatherTest, FaultInjectionMergesWorstDegradation) {
  // Every shard past the re-estimation threshold serves kStaleModel, and
  // the scatter-gather merge must surface it — the differential fails on
  // any silently-degraded (or silently-fine) merged answer.
  const std::uint64_t base = PropertySeed();
  const std::size_t rounds = PropertyIterations(2);
  std::size_t degraded_rows = 0;
  for (const std::size_t m : kShardCounts) {
    for (std::size_t shape = 0; shape < NumWorkloadShapes(); ++shape) {
      for (std::size_t round = 0; round < rounds; ++round) {
        const std::uint64_t seed =
            SubSeed(base, "scatter-fault-" + std::to_string(m) + "-" +
                              std::to_string(shape) + "-" +
                              std::to_string(round));
        const WorkloadSpec spec = GenerateScatterGatherWorkload(
            seed, shape, /*inject_refit_failures=*/true);
        const DifferentialReport report =
            RunDifferential(spec, ShardedPlan(m));
        if (!report.ok) {
          FAIL() << report.failure << "\n"
                 << ReplayHint(base) << "\n"
                 << DescribeWorkload(spec);
          return;
        }
        degraded_rows += report.degraded_rows;
      }
    }
  }
  // Coverage sanity: fault mode actually produced annotated answers.
  EXPECT_GT(degraded_rows, 0u);
}

TEST(ScatterGatherTest, WorkloadsAreDeterministic) {
  const std::uint64_t seed = SubSeed(PropertySeed(), "scatter-determinism");
  const WorkloadSpec a = GenerateScatterGatherWorkload(seed, 1, false);
  const WorkloadSpec b = GenerateScatterGatherWorkload(seed, 1, false);
  EXPECT_EQ(DescribeWorkload(a), DescribeWorkload(b));
  // Shard-safe by construction: a model at every base cell and a scheme at
  // every address.
  const ReferenceOracle probe(a.dims);
  EXPECT_EQ(a.models.size(), probe.num_base_cells());
  EXPECT_EQ(a.schemes.size(), probe.AllAddresses().size());
  for (const WorkloadOp& op : a.ops) {
    EXPECT_NE(op.kind, OpKind::kInsertPartial);
    EXPECT_NE(op.kind, OpKind::kInsertInjectedFault);
  }
}

TEST(ScatterGatherTest, ReportCountsAreConsistent) {
  const std::uint64_t base = PropertySeed();
  const std::uint64_t seed = SubSeed(base, "scatter-counts");
  const WorkloadSpec spec = GenerateScatterGatherWorkload(seed, 2, false);
  const DifferentialReport report = RunDifferential(spec, ShardedPlan(2));
  ASSERT_TRUE(report.ok) << report.failure << "\n" << ReplayHint(base);
  std::size_t expected_queries = 0;
  for (const WorkloadOp& op : spec.ops) {
    if (op.kind == OpKind::kQuery) ++expected_queries;
  }
  EXPECT_EQ(report.queries, expected_queries);
  EXPECT_GE(report.rows_compared, report.queries);
}

}  // namespace
}  // namespace f2db::testing
