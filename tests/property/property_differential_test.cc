// Differential property tests: generated workloads replayed through the
// reference oracle, the embedded engine, and the TCP server must agree —
// forecast values within tolerance, insert verdicts by status code, and
// degradation annotations (a degraded answer is annotated, never silently
// wrong). Failures shrink to a minimal op list and print a replay hint.

#include <string>

#include "gtest/gtest.h"
#include "testing/differential.h"
#include "testing/oracle.h"
#include "testing/property.h"
#include "testing/replay_hint.h"
#include "testing/workload.h"

namespace f2db::testing {
namespace {

/// Runs one spec; on failure shrinks it (embedded-only for speed) and
/// fails the test with the minimized spec and the replay hint of `base`.
void RunAndReport(const WorkloadSpec& spec, std::uint64_t base) {
  DifferentialReport report = RunDifferential(spec);
  if (report.ok) return;
  DifferentialPlan no_server;
  no_server.topology = Topology::kEmbedded;
  const WorkloadSpec shrunk =
      ShrinkWorkload(spec, [&](const WorkloadSpec& candidate) {
        return !RunDifferential(candidate, no_server).ok;
      });
  const DifferentialReport shrunk_report = RunDifferential(shrunk, no_server);
  FAIL() << report.failure << "\n"
         << ReplayHint(base) << "\n"
         << "minimized to " << shrunk.ops.size() << " op(s):\n"
         << DescribeWorkload(shrunk) << "\n"
         << (shrunk_report.ok ? "" : shrunk_report.failure);
}

TEST(PropertyDifferentialTest, GeneratedWorkloadsAgree) {
  const std::uint64_t base = PropertySeed();
  const std::size_t rounds = PropertyIterations(3);
  for (std::size_t shape = 0; shape < NumWorkloadShapes(); ++shape) {
    for (std::size_t round = 0; round < rounds; ++round) {
      const std::uint64_t seed =
          SubSeed(base, "diff-" + std::to_string(shape) + "-" +
                            std::to_string(round));
      RunAndReport(GenerateWorkload(seed, shape,
                                    /*inject_refit_failures=*/false),
                   base);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(PropertyDifferentialTest, SeedMixedWorkloadsAgree) {
  // The fully seed-driven entry point (shape and fault mode drawn from the
  // seed) — the generator the nightly job exercises hardest.
  const std::uint64_t base = PropertySeed();
  const std::size_t rounds = PropertyIterations(8);
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::uint64_t seed = SubSeed(base, "mixed-" + std::to_string(round));
    RunAndReport(GenerateWorkload(seed), base);
    if (HasFatalFailure()) return;
  }
}

TEST(PropertyDifferentialTest, FaultInjectionRunsStayAnnotated) {
  const std::uint64_t base = PropertySeed();
  const std::size_t rounds = PropertyIterations(2);
  for (std::size_t shape = 0; shape < NumWorkloadShapes(); ++shape) {
    for (std::size_t round = 0; round < rounds; ++round) {
      const std::uint64_t seed =
          SubSeed(base, "fault-" + std::to_string(shape) + "-" +
                            std::to_string(round));
      const WorkloadSpec spec =
          GenerateWorkload(seed, shape, /*inject_refit_failures=*/true);
      RunAndReport(spec, base);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(PropertyDifferentialTest, TenThousandQueriesAcrossShapes) {
  // ISSUE acceptance: engine and server agree with the oracle on >= 10k
  // generated queries across >= 5 cube shapes. 1700 queries per shape x 6
  // shapes = 10200.
  const std::uint64_t base = PropertySeed();
  const std::size_t per_shape = 1700;
  std::size_t total_queries = 0;
  for (std::size_t shape = 0; shape < NumWorkloadShapes(); ++shape) {
    const std::uint64_t seed = SubSeed(base, "storm-" + std::to_string(shape));
    const WorkloadSpec spec = GenerateQueryStorm(seed, shape, per_shape);
    const DifferentialReport report = RunDifferential(spec);
    if (!report.ok) {
      FAIL() << report.failure << "\n" << ReplayHint(base);
      return;
    }
    total_queries += report.queries;
  }
  EXPECT_GE(total_queries, 10000u);
  EXPECT_GE(NumWorkloadShapes(), 5u);
}

TEST(PropertyDifferentialTest, ReportCountsAreConsistent) {
  const std::uint64_t base = PropertySeed();
  const std::uint64_t seed = SubSeed(base, "report-counts");
  const WorkloadSpec spec = GenerateWorkload(seed, 2, false);
  const DifferentialReport report = RunDifferential(spec);
  ASSERT_TRUE(report.ok) << report.failure << "\n" << ReplayHint(base);
  std::size_t expected_queries = 0;
  for (const WorkloadOp& op : spec.ops) {
    if (op.kind == OpKind::kQuery) ++expected_queries;
  }
  EXPECT_EQ(report.queries, expected_queries);
  EXPECT_GE(report.rows_compared, report.queries);
}

// ------------------------------------------------- pinned regression seeds

// Satellite (a): the SQL lexer rejected exponent-notation numeric literals
// ("1.5e-05"), so any INSERT whose %.17g-rendered measure carried an
// exponent diverged from the oracle (engine: parse error, oracle:
// accepted). The kTiny series regime renders such values; this workload is
// pinned on it. See engine/query.cc (lexer) and
// tests/engine/query_test.cc for the direct parser regressions.
TEST(PropertyDifferentialTest, RegressionTinyValuesSurviveSqlRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const WorkloadSpec spec = GenerateWorkload(seed);
    bool has_tiny = false;
    for (const auto& history : spec.base_history) {
      for (const double v : history) has_tiny = has_tiny || v < 1e-3;
    }
    if (!has_tiny) continue;
    RunAndReport(spec, PropertySeed());
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace f2db::testing
