// Overload differential property tests: generated workloads replayed
// against a deliberately under-provisioned, brownout-configured loopback
// server under concurrent client pressure. The invariant under test is
// degraded-never-wrong: every answer the flood produces is either full
// fidelity and oracle-correct, DEGRADED with the annotation present and
// still oracle-correct, or an honest overload rejection (kUnavailable /
// kDeadlineExceeded). A silently degraded or silently wrong answer fails.

#include <string>

#include "gtest/gtest.h"
#include "testing/differential.h"
#include "testing/property.h"
#include "testing/replay_hint.h"
#include "testing/workload.h"

namespace f2db::testing {
namespace {

DifferentialPlan OverloadPlan(std::size_t admission_queue_limit) {
  DifferentialPlan plan;
  plan.faults = FaultPlan::kOverload;
  plan.admission_queue_limit = admission_queue_limit;
  return plan;
}

void RunAndReport(const WorkloadSpec& spec, const DifferentialPlan& plan,
                  std::uint64_t base) {
  const DifferentialReport report = RunDifferential(spec, plan);
  EXPECT_TRUE(report.ok) << report.failure << "\n" << ReplayHint(base);
  // Accounting closes: every query got exactly one classified outcome.
  EXPECT_EQ(report.queries, report.ok_full_fidelity + report.ok_degraded +
                                report.shed + report.deadline_expired);
}

TEST(OverloadDifferentialTest, FaultModeFloodsStayAnnotatedAndCorrect) {
  // Fault mode arms the engine.refit failpoint, so every query lands on
  // the stale-model rung — the flood must see ONLY annotated degraded
  // answers (value-checked against the oracle) or honest rejections.
  const std::uint64_t base = PropertySeed();
  const std::size_t rounds = PropertyIterations(2);
  // Small enough that shedding happens.
  const DifferentialPlan plan = OverloadPlan(2);
  for (std::size_t shape = 0; shape < NumWorkloadShapes(); ++shape) {
    for (std::size_t round = 0; round < rounds; ++round) {
      const std::uint64_t seed =
          SubSeed(base, "overload-" + std::to_string(shape) + "-" +
                            std::to_string(round));
      const WorkloadSpec spec =
          GenerateWorkload(seed, shape, /*inject_refit_failures=*/true);
      RunAndReport(spec, plan, base);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(OverloadDifferentialTest, DegradedAnswersAreActuallyExercised) {
  // At least one generated flood must hit the degraded path, or the suite
  // is vacuous. Aggregate across seeds so a single lucky scheduling run
  // cannot flake it.
  const std::uint64_t base = PropertySeed();
  const DifferentialPlan plan = OverloadPlan(4);
  std::size_t total_degraded = 0;
  std::size_t total_sent = 0;
  for (std::size_t round = 0; round < 3; ++round) {
    const WorkloadSpec spec =
        GenerateWorkload(SubSeed(base, "degraded-" + std::to_string(round)),
                         round % NumWorkloadShapes(),
                         /*inject_refit_failures=*/true);
    const DifferentialReport report = RunDifferential(spec, plan);
    ASSERT_TRUE(report.ok) << report.failure << "\n" << ReplayHint(base);
    total_degraded += report.ok_degraded;
    total_sent += report.queries;
  }
  EXPECT_GT(total_sent, 0u);
  EXPECT_GT(total_degraded, 0u)
      << "no flood ever exercised the degraded path — the overload "
         "differential is not testing what it claims";
}

TEST(OverloadDifferentialTest, HealthyWorkloadsSurviveTheFloodUnchanged) {
  // Without fault injection the models stay valid: answers must be full
  // fidelity (oracle-correct) or honest rejections — never degraded.
  const std::uint64_t base = PropertySeed();
  const WorkloadSpec spec = GenerateWorkload(
      SubSeed(base, "healthy-overload"), 0, /*inject_refit_failures=*/false);
  const DifferentialReport report = RunDifferential(spec, OverloadPlan(2));
  ASSERT_TRUE(report.ok) << report.failure << "\n" << ReplayHint(base);
  EXPECT_GT(report.queries, 0u);
}

}  // namespace
}  // namespace f2db::testing
