#include "core/advisor.h"

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "testing/test_cubes.h"

namespace f2db {
namespace {

AdvisorOptions FastOptions() {
  AdvisorOptions options;
  options.models_per_iteration = 4;
  options.seed = 7;
  options.stop.max_iterations = 20;
  return options;
}

ModelFactory HwFactory(std::size_t period = 4) {
  return ModelFactory(ModelSpec::TripleExponentialSmoothing(period));
}

TEST(Advisor, ProducesValidConfiguration) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(48, 0.5);
  ModelConfigurationAdvisor advisor(graph, HwFactory(), FastOptions());
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const AdvisorResult& r = result.value();
  EXPECT_GE(r.configuration.num_models(), 1u);
  EXPECT_GT(r.iterations, 0u);
  EXPECT_LE(r.final_error, 1.0);
  EXPECT_EQ(r.final_error, r.configuration.MeanError());
  EXPECT_EQ(r.history.size(), r.iterations);
}

TEST(Advisor, ErrorNeverWorseThanSeedConfiguration) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60);
  ModelConfigurationAdvisor advisor(graph, HwFactory(12), FastOptions());
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result.value().history.size(), 2u);
  EXPECT_LE(result.value().final_error,
            result.value().history.front().error + 1e-9);
}

TEST(Advisor, ErrorMonotonicallyNonIncreasingAcrossIterations) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60);
  ModelConfigurationAdvisor advisor(graph, HwFactory(12), FastOptions());
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok());
  double prev = 1.0;
  for (const AdvisorSnapshot& s : result.value().history) {
    // Deletions may trade tiny error for cost; allow an epsilon.
    EXPECT_LE(s.error, prev + 0.05);
    prev = s.error;
  }
}

TEST(Advisor, StopCriterionMaxModels) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60);
  AdvisorOptions options = FastOptions();
  options.stop = StopCriteria{};
  options.stop.max_models = 2;
  ModelConfigurationAdvisor advisor(graph, HwFactory(12), options);
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().configuration.num_models(), 2u + 4u);
}

TEST(Advisor, StopCriterionTargetError) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(48, 0.2);
  AdvisorOptions options = FastOptions();
  options.stop = StopCriteria{};
  options.stop.target_error = 0.9;  // satisfied almost immediately
  ModelConfigurationAdvisor advisor(graph, HwFactory(), options);
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().iterations, 2u);
}

TEST(Advisor, StopCriterionMaxIterations) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60);
  AdvisorOptions options = FastOptions();
  options.stop.max_iterations = 3;
  ModelConfigurationAdvisor advisor(graph, HwFactory(12), options);
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().iterations, 3u);
}

TEST(Advisor, CallbackCanInterrupt) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60);
  AdvisorOptions options = FastOptions();
  options.stop = StopCriteria{};  // no automatic stop except alpha
  ModelConfigurationAdvisor advisor(graph, HwFactory(12), options);
  std::size_t calls = 0;
  advisor.set_iteration_callback([&calls](const AdvisorSnapshot&) {
    ++calls;
    return calls < 2;  // interrupt after the second iteration
  });
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().iterations, 2u);
}

TEST(Advisor, AlphaScheduleReachesFinalAlpha) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(48, 0.5);
  AdvisorOptions options = FastOptions();
  options.stop = StopCriteria{};
  options.initial_alpha = 0.1;
  ModelConfigurationAdvisor advisor(graph, HwFactory(), options);
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().history.back().alpha, 1.0, 1e-9);
}

TEST(Advisor, PinnedAlphaStaysPinned) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(48, 0.5);
  AdvisorOptions options = FastOptions();
  options.initial_alpha = 0.5;
  options.final_alpha = 0.5;
  ModelConfigurationAdvisor advisor(graph, HwFactory(), options);
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok());
  for (const AdvisorSnapshot& s : result.value().history) {
    EXPECT_NEAR(s.alpha, 0.5, 1e-9);
  }
}

TEST(Advisor, HigherAlphaAcceptsAtLeastAsManyModels) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60, 0.1);
  auto run_with_alpha = [&](double alpha) {
    AdvisorOptions options = FastOptions();
    options.initial_alpha = alpha;
    options.final_alpha = alpha;
    ModelConfigurationAdvisor advisor(graph, HwFactory(12), options);
    auto result = advisor.Run();
    EXPECT_TRUE(result.ok());
    return result.value().configuration.num_models();
  };
  EXPECT_LE(run_with_alpha(0.2), run_with_alpha(1.0) + 1);
}

TEST(Advisor, WithoutTopSeedStillWorks) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(48, 0.5);
  AdvisorOptions options = FastOptions();
  options.start_with_top_model = false;
  ModelConfigurationAdvisor advisor(graph, HwFactory(), options);
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result.value().configuration.num_models(), 1u);
  EXPECT_LT(result.value().final_error, 1.0);
}

TEST(Advisor, IndicatorSizeOptionRespected) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60);
  AdvisorOptions options = FastOptions();
  options.indicator_size = 5;
  ModelConfigurationAdvisor advisor(graph, HwFactory(12), options);
  EXPECT_EQ(advisor.indicator_size(), 5u);
  AdvisorOptions big = FastOptions();
  big.indicator_size = 100000;
  ModelConfigurationAdvisor clamped(graph, HwFactory(12), big);
  EXPECT_EQ(clamped.indicator_size(), graph.num_nodes() - 1);
}

TEST(Advisor, RejectsTooShortSeries) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(4);
  ModelConfigurationAdvisor advisor(graph, HwFactory(), FastOptions());
  EXPECT_FALSE(advisor.Run().ok());
}

TEST(Advisor, DeterministicAcrossRuns) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60);
  AdvisorOptions options = FastOptions();
  options.num_threads = 1;             // single worker for full determinism
  options.count_models_as_cost = true;  // no wall-clock noise in Eq. 8
  ModelConfigurationAdvisor a(graph, HwFactory(12), options);
  ModelConfigurationAdvisor b(graph, HwFactory(12), options);
  auto ra = a.Run();
  auto rb = b.Run();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra.value().configuration.num_models(),
            rb.value().configuration.num_models());
  EXPECT_NEAR(ra.value().final_error, rb.value().final_error, 1e-12);
  EXPECT_EQ(ra.value().configuration.model_nodes(),
            rb.value().configuration.model_nodes());
}

// The worker count changes only how the local-indicator batches and model
// fits are spread, never what the advisor decides: with models priced by
// count, 1, 2 and 4 threads produce the same configuration, per-node
// assignments and history, bit for bit.
TEST(Advisor, ConfigurationIndependentOfThreadCount) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60);
  for (const bool top_seed : {true, false}) {
    auto run = [&](std::size_t threads) {
      AdvisorOptions options = FastOptions();
      options.num_threads = threads;
      options.count_models_as_cost = true;
      options.start_with_top_model = top_seed;
      ModelConfigurationAdvisor advisor(graph, HwFactory(12), options);
      auto result = advisor.Run();
      EXPECT_TRUE(result.ok());
      return std::move(result).value();
    };
    const AdvisorResult reference = run(1);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
      SCOPED_TRACE(::testing::Message() << "threads " << threads
                                        << " top_seed " << top_seed);
      const AdvisorResult r = run(threads);
      EXPECT_EQ(r.final_error, reference.final_error);
      EXPECT_EQ(r.configuration.model_nodes(),
                reference.configuration.model_nodes());
      for (NodeId node = 0; node < graph.num_nodes(); ++node) {
        EXPECT_EQ(r.configuration.assignment(node).scheme,
                  reference.configuration.assignment(node).scheme);
        EXPECT_EQ(r.configuration.assignment(node).error,
                  reference.configuration.assignment(node).error);
      }
      ASSERT_EQ(r.history.size(), reference.history.size());
      for (std::size_t i = 0; i < r.history.size(); ++i) {
        EXPECT_EQ(r.history[i].iteration, reference.history[i].iteration);
        EXPECT_EQ(r.history[i].error, reference.history[i].error);
        EXPECT_EQ(r.history[i].cost_seconds, reference.history[i].cost_seconds);
        EXPECT_EQ(r.history[i].num_models, reference.history[i].num_models);
        EXPECT_EQ(r.history[i].alpha, reference.history[i].alpha);
        EXPECT_EQ(r.history[i].gamma, reference.history[i].gamma);
      }
      EXPECT_EQ(r.models_created, reference.models_created);
      EXPECT_EQ(r.models_accepted, reference.models_accepted);
      EXPECT_EQ(r.models_deleted, reference.models_deleted);
    }
  }
}

// Pins the decisions of one reproducible run (models priced by count), so a
// kernel change that alters any selection, acceptance or deletion shows up
// here even when it is consistent across thread counts. The global
// indicator's incremental upkeep is checked this way: a missed merge
// changes which candidates are selected.
TEST(Advisor, PinnedDecisionsOnFigure2Cube) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60);
  struct Pin {
    bool top_seed;
    std::size_t iterations;
    std::size_t models_created;
    std::vector<NodeId> model_nodes;
  };
  const Pin pins[] = {
      {true, 18, 23, {0, 4, 7, 8, 10, 12, 13, 14, 17, 18, 20}},
      {false, 16, 19, {0, 1, 2, 4, 6, 7, 8, 10, 12, 14, 16, 17, 18, 20}},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(::testing::Message() << "top_seed " << pin.top_seed);
    AdvisorOptions options = FastOptions();
    options.num_threads = 2;
    options.count_models_as_cost = true;
    options.start_with_top_model = pin.top_seed;
    ModelConfigurationAdvisor advisor(graph, HwFactory(12), options);
    auto result = advisor.Run();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().iterations, pin.iterations);
    EXPECT_EQ(result.value().models_created, pin.models_created);
    EXPECT_EQ(result.value().configuration.model_nodes(), pin.model_nodes);
  }
}

// Pins one reproducible run on GenX-1000 (1,034 nodes), where a local
// indicator covers 64 of them: the nearest-node search stops inside a BFS
// level, and the removal ranking runs over hundreds of models and decides
// one accepted deletion. Neither happens on the 21-node Figure 2 cube.
TEST(Advisor, PinnedDecisionsOnGenX) {
  auto generated = MakeGenX(1000, 4, 48);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const TimeSeriesGraph& graph = generated.value().graph;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    AdvisorOptions options;
    options.seed = 7;
    options.num_threads = threads;
    options.models_per_iteration = 8;
    options.indicator_size = 64;
    options.count_models_as_cost = true;
    options.stop.max_iterations = 150;
    ModelConfigurationAdvisor advisor(graph, HwFactory(12), options);
    auto result = advisor.Run();
    ASSERT_TRUE(result.ok());
    const AdvisorResult& r = result.value();
    EXPECT_EQ(r.indicator_size_used, 64u);
    EXPECT_EQ(r.iterations, 110u);
    EXPECT_EQ(r.models_created, 780u);
    EXPECT_EQ(r.models_deleted, 1u);
    const std::vector<NodeId> model_nodes = r.configuration.model_nodes();
    EXPECT_EQ(model_nodes.size(), 638u);
    std::uint64_t node_sum = 0;
    for (NodeId node : model_nodes) node_sum += node;
    EXPECT_EQ(node_sum, 323809u);
    EXPECT_EQ(r.final_error, 0.033258207496554233);
  }
}

TEST(Advisor, AsyncMultiSourceRunsCleanly) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60);
  AdvisorOptions options = FastOptions();
  options.async_multi_source = true;
  ModelConfigurationAdvisor advisor(graph, HwFactory(12), options);
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value().final_error, 1.0);
}

}  // namespace
}  // namespace f2db
