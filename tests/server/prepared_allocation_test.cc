// The EXECUTE hot path's allocation budget, enforced: after two warm-up
// iterations, one full server-side prepared execution — wire body decode,
// bind, plan execution, response frame encode — must perform ZERO heap
// allocations. Global operator new/new[] overrides count every allocation
// while armed; the scratch objects (ExecuteBody, Statement, QueryResult,
// frame string) and the engine's thread_local forecast buffers must absorb
// everything once warmed.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "baselines/advisor_builder.h"
#include "baselines/top_down.h"
#include "data/datasets.h"
#include "engine/engine.h"
#include "server/server.h"
#include "server/wire.h"
#include "testing/test_cubes.h"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::size_t> g_allocations{0};

void* CountingAlloc(std::size_t n) {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountingAlloc(n); }
void* operator new[](std::size_t n) { return CountingAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace f2db {
namespace {

TEST(PreparedAllocationTest, ExecuteHotPathIsAllocationFree) {
  // Build an engine with an advisor configuration (freely allocating —
  // the counter is not armed yet).
  TimeSeriesGraph evaluator_graph = testing::MakeFigure2Cube(60, 0.05);
  ConfigurationEvaluator evaluator(evaluator_graph, 0.8);
  ModelFactory factory(ModelSpec::TripleExponentialSmoothing(12));
  AdvisorOptions advisor_options;
  advisor_options.models_per_iteration = 4;
  advisor_options.stop.max_iterations = 8;
  AdvisorBuilder builder(advisor_options);
  auto outcome = builder.Build(evaluator, factory);
  ASSERT_TRUE(outcome.ok());
  F2dbEngine engine(testing::MakeFigure2Cube(60, 0.05));
  ASSERT_TRUE(
      engine.LoadConfiguration(outcome.value().configuration, evaluator).ok());

  // The server-side per-connection state: a cached plan plus the four
  // scratch objects ExecutePreparedInline reuses across requests.
  auto plan_or = engine.ParsePlan(
      "SELECT time, SUM(sales) FROM facts WHERE region = ? GROUP BY time "
      "AS OF now() + ?");
  ASSERT_TRUE(plan_or.ok()) << plan_or.status().message();
  const PlanPtr plan = plan_or.value();
  const std::string wire_body = EncodeExecuteBody(3, {"R1", "6"});

  ExecuteBody body_scratch;
  Statement stmt_scratch;
  QueryResult result_scratch;
  std::string frame_scratch;

  bool decode_ok = false;
  bool bind_ok = false;
  bool execute_ok = false;
  const auto run_once = [&] {
    decode_ok = ParseExecuteBodyInto(wire_body, &body_scratch).ok();
    bind_ok =
        BindStatementInto(plan->tmpl, body_scratch.binds, &stmt_scratch).ok();
    execute_ok =
        engine.ExecutePlanInto(*plan, stmt_scratch.forecast, &result_scratch)
            .ok();
    frame_scratch.clear();
    AppendForecastResponseFrame(FrameType::kExecute, result_scratch,
                                &frame_scratch);
  };

  // Two warm-up rounds grow every scratch buffer (and the engine's
  // thread_local forecast vectors) to steady-state capacity.
  run_once();
  run_once();
  ASSERT_TRUE(decode_ok && bind_ok && execute_ok);
  ASSERT_EQ(result_scratch.degradation, DegradationLevel::kNone)
      << "warm-up must stay on the non-degraded hot path";
  ASSERT_EQ(result_scratch.rows.size(), 6u);
  const std::string expected_frame = frame_scratch;

  g_allocations.store(0, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_relaxed);
  run_once();
  g_armed.store(false, std::memory_order_relaxed);

  EXPECT_TRUE(decode_ok && bind_ok && execute_ok);
  EXPECT_EQ(frame_scratch, expected_frame);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0u)
      << "the warmed EXECUTE path must not touch the heap";
}

TEST(PreparedAllocationTest, RebindingDifferentValuesStaysAllocationFree) {
  TimeSeriesGraph evaluator_graph = testing::MakeFigure2Cube(60, 0.05);
  ConfigurationEvaluator evaluator(evaluator_graph, 0.8);
  ModelFactory factory(ModelSpec::TripleExponentialSmoothing(12));
  AdvisorOptions advisor_options;
  advisor_options.models_per_iteration = 4;
  advisor_options.stop.max_iterations = 8;
  AdvisorBuilder builder(advisor_options);
  auto outcome = builder.Build(evaluator, factory);
  ASSERT_TRUE(outcome.ok());
  F2dbEngine engine(testing::MakeFigure2Cube(60, 0.05));
  ASSERT_TRUE(
      engine.LoadConfiguration(outcome.value().configuration, evaluator).ok());

  auto plan_or = engine.ParsePlan(
      "SELECT time, SUM(sales) FROM facts WHERE region = ? GROUP BY time "
      "AS OF now() + ?");
  ASSERT_TRUE(plan_or.ok());
  const PlanPtr plan = plan_or.value();
  // Alternating bind values of equal-or-smaller length: capacity reuse
  // must hold across value changes, not just exact repeats.
  const std::vector<std::string> bodies = {
      EncodeExecuteBody(1, {"R1", "6"}),
      EncodeExecuteBody(1, {"R2", "2"}),
  };

  ExecuteBody body_scratch;
  Statement stmt_scratch;
  QueryResult result_scratch;
  std::string frame_scratch;
  bool all_ok = true;
  const auto run_once = [&](const std::string& body) {
    all_ok = all_ok && ParseExecuteBodyInto(body, &body_scratch).ok() &&
             BindStatementInto(plan->tmpl, body_scratch.binds, &stmt_scratch)
                 .ok() &&
             engine.ExecutePlanInto(*plan, stmt_scratch.forecast,
                                    &result_scratch)
                 .ok();
    frame_scratch.clear();
    AppendForecastResponseFrame(FrameType::kExecute, result_scratch,
                                &frame_scratch);
  };
  for (const auto& body : bodies) run_once(body);
  ASSERT_TRUE(all_ok);

  g_allocations.store(0, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_relaxed);
  for (int round = 0; round < 4; ++round) {
    run_once(bodies[static_cast<std::size_t>(round) % bodies.size()]);
  }
  g_armed.store(false, std::memory_order_relaxed);
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0u);
}

// A bound base-member filter resolves through the level's sorted member
// index: binding the last of GenX-1000's 1,000 level-0 members must stay
// allocation-free once warmed.
TEST(PreparedAllocationTest, BindingALateBaseMemberStaysAllocationFree) {
  auto genx = MakeGenX(1000, 4, 48);
  ASSERT_TRUE(genx.ok()) << genx.status().message();
  ConfigurationEvaluator evaluator(genx.value().graph, 0.8);
  ModelFactory factory(ModelSpec::TripleExponentialSmoothing(12));
  TopDownBuilder builder;
  auto outcome = builder.Build(evaluator, factory);
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  F2dbEngine engine(genx.value().graph);
  ASSERT_TRUE(
      engine.LoadConfiguration(outcome.value().configuration, evaluator).ok());

  auto plan_or = engine.ParsePlan(
      "SELECT time, sales FROM facts WHERE level0 = ? AS OF now() + ?");
  ASSERT_TRUE(plan_or.ok()) << plan_or.status().message();
  const PlanPtr plan = plan_or.value();
  const std::vector<std::string> bodies = {
      EncodeExecuteBody(1, {"L0_999", "3"}),
      EncodeExecuteBody(1, {"L0_500", "3"}),
  };

  ExecuteBody body_scratch;
  Statement stmt_scratch;
  QueryResult result_scratch;
  std::string frame_scratch;
  bool all_ok = true;
  const auto run_once = [&](const std::string& body) {
    all_ok = all_ok && ParseExecuteBodyInto(body, &body_scratch).ok() &&
             BindStatementInto(plan->tmpl, body_scratch.binds, &stmt_scratch)
                 .ok() &&
             engine.ExecutePlanInto(*plan, stmt_scratch.forecast,
                                    &result_scratch)
                 .ok();
    frame_scratch.clear();
    AppendForecastResponseFrame(FrameType::kExecute, result_scratch,
                                &frame_scratch);
  };
  for (const auto& body : bodies) run_once(body);
  ASSERT_TRUE(all_ok);
  ASSERT_EQ(result_scratch.degradation, DegradationLevel::kNone)
      << result_scratch.degradation_reason;
  ASSERT_EQ(result_scratch.rows.size(), 3u);

  g_allocations.store(0, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_relaxed);
  run_once(bodies[0]);
  g_armed.store(false, std::memory_order_relaxed);
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0u);
  EXPECT_EQ(engine.graph().NodeName(result_scratch.node),
            engine.graph().NodeName(
                engine.ResolveNode({{"level0", "L0_999"}}).value()));
}

}  // namespace
}  // namespace f2db
