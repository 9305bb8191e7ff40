// Robustness: failure injection, random-schema property sweeps, and parser
// fuzzing. The advisor and baselines must degrade gracefully when model
// creation fails for some nodes, the graph must uphold its invariants for
// arbitrary hierarchy shapes, and the query parser must reject garbage
// without crashing.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>

#include "baselines/bottom_up.h"
#include "baselines/direct.h"
#include "common/rng.h"
#include "core/advisor.h"
#include "engine/query.h"
#include "testing/test_cubes.h"

namespace f2db {
namespace {

// --------------------------------------------------------- fault injection

TEST(FailureInjection, FactoryHookAbortsCreation) {
  ModelFactory factory(ModelSpec::TripleExponentialSmoothing(4));
  factory.set_fit_hook([](const TimeSeries&) {
    return Status::Internal("injected failure");
  });
  const TimeSeries series(std::vector<double>(40, 5.0));
  EXPECT_FALSE(factory.CreateAndFit(series).ok());
}

TEST(FailureInjection, AdvisorSurvivesPartialFitFailures) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60, 0.1);
  ModelFactory factory(ModelSpec::TripleExponentialSmoothing(12));
  // Every series whose first value is below the median scale fails.
  factory.set_fit_hook([](const TimeSeries& series) {
    if (series[0] < 15.0) return Status::Internal("injected failure");
    return Status::OK();
  });
  AdvisorOptions options;
  options.models_per_iteration = 4;
  options.stop.max_iterations = 10;
  ModelConfigurationAdvisor advisor(graph, factory, options);
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok());
  // Some models exist and the error improved below uncovered-everywhere.
  EXPECT_GE(result.value().configuration.num_models(), 1u);
  EXPECT_LT(result.value().final_error, 1.0);
}

TEST(FailureInjection, AdvisorSurvivesTotalFitFailure) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(48, 0.5);
  ModelFactory factory(ModelSpec::TripleExponentialSmoothing(4));
  factory.set_fit_hook(
      [](const TimeSeries&) { return Status::Internal("always fails"); });
  AdvisorOptions options;
  options.models_per_iteration = 2;
  options.stop.max_iterations = 4;
  ModelConfigurationAdvisor advisor(graph, factory, options);
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok());  // graceful: empty configuration, max error
  EXPECT_EQ(result.value().configuration.num_models(), 0u);
  EXPECT_DOUBLE_EQ(result.value().final_error, 1.0);
}

TEST(FailureInjection, BaselinesSkipFailedNodes) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60, 0.1);
  ConfigurationEvaluator evaluator(graph, 0.8);
  ModelFactory factory(ModelSpec::TripleExponentialSmoothing(12));
  // The builder fits on a thread pool, so the hook runs concurrently.
  std::atomic<std::size_t> calls{0};
  factory.set_fit_hook([&calls](const TimeSeries&) {
    // Fail every third creation.
    return (calls.fetch_add(1) % 3 == 2) ? Status::Internal("injected")
                                         : Status::OK();
  });
  DirectBuilder direct;
  auto outcome = direct.Build(evaluator, factory);
  ASSERT_TRUE(outcome.ok());
  EXPECT_LT(outcome.value().configuration.num_models(), graph.num_nodes());
  EXPECT_GT(outcome.value().configuration.num_models(), 0u);
}

// ----------------------------------------------------- random-schema sweep

struct SchemaShape {
  std::size_t dims;
  std::size_t values_per_dim;
  std::size_t levels;  // declared levels in the first dimension
};

class RandomSchemaSweep : public ::testing::TestWithParam<SchemaShape> {};

TimeSeriesGraph BuildRandomGraph(const SchemaShape& shape,
                                 std::uint64_t seed) {
  Rng rng(seed);
  CubeSchema schema;
  for (std::size_t d = 0; d < shape.dims; ++d) {
    if (d == 0 && shape.levels > 1) {
      Hierarchy h("dim0");
      std::size_t size = shape.values_per_dim;
      std::vector<std::size_t> level_sizes;
      for (std::size_t l = 0; l < shape.levels; ++l) {
        level_sizes.push_back(std::max<std::size_t>(1, size));
        size = (size + 1) / 2;
      }
      for (std::size_t l = 0; l < shape.levels; ++l) {
        std::vector<std::string> names;
        for (std::size_t v = 0; v < level_sizes[l]; ++v) {
          names.push_back("d0l" + std::to_string(l) + "v" + std::to_string(v));
        }
        EXPECT_TRUE(h.AddLevel("level" + std::to_string(l), names).ok());
      }
      for (std::size_t l = 0; l + 1 < shape.levels; ++l) {
        for (std::size_t v = 0; v < level_sizes[l]; ++v) {
          // Random parent, but ensure every parent has at least one child
          // by pinning the first children deterministically.
          const std::size_t parent =
              v < level_sizes[l + 1]
                  ? v
                  : static_cast<std::size_t>(rng.UniformInt(
                        0, static_cast<std::int64_t>(level_sizes[l + 1]) - 1));
          EXPECT_TRUE(h.SetParent(static_cast<LevelIndex>(l),
                                  static_cast<ValueIndex>(v),
                                  static_cast<ValueIndex>(parent))
                          .ok());
        }
      }
      EXPECT_TRUE(h.Finalize().ok());
      EXPECT_TRUE(schema.AddHierarchy(std::move(h)).ok());
    } else {
      std::vector<std::string> names;
      for (std::size_t v = 0; v < shape.values_per_dim; ++v) {
        names.push_back("d" + std::to_string(d) + "v" + std::to_string(v));
      }
      EXPECT_TRUE(
          schema
              .AddHierarchy(Hierarchy::Flat("dim" + std::to_string(d), names))
              .ok());
    }
  }
  auto graph = TimeSeriesGraph::Create(std::move(schema));
  EXPECT_TRUE(graph.ok());
  for (NodeId base : graph.value().base_nodes()) {
    std::vector<double> values(24);
    for (double& v : values) v = rng.Uniform(1.0, 100.0);
    EXPECT_TRUE(graph.value().SetBaseSeries(base, TimeSeries(values)).ok());
  }
  EXPECT_TRUE(graph.value().BuildAggregates().ok());
  return std::move(graph).value();
}

TEST_P(RandomSchemaSweep, GraphInvariantsHold) {
  const TimeSeriesGraph graph = BuildRandomGraph(GetParam(), 33);

  // Address round trip for every node.
  for (NodeId node = 0; node < graph.num_nodes(); ++node) {
    EXPECT_EQ(graph.NodeFor(graph.AddressOf(node)).value(), node);
  }
  // Aggregation exactness along every dimension.
  for (NodeId node = 0; node < graph.num_nodes(); ++node) {
    for (const auto& [dim, children] : graph.ChildSets(node)) {
      for (std::size_t t = 0; t < graph.series_length(); ++t) {
        double sum = 0.0;
        for (NodeId child : children) sum += graph.series(child)[t];
        ASSERT_NEAR(graph.series(node)[t], sum, 1e-6);
      }
    }
  }
  // Distance symmetry and identity on a sample of pairs.
  Rng rng(44);
  for (int i = 0; i < 50; ++i) {
    const NodeId a = static_cast<NodeId>(
        rng.UniformInt(0, static_cast<std::int64_t>(graph.num_nodes()) - 1));
    const NodeId b = static_cast<NodeId>(
        rng.UniformInt(0, static_cast<std::int64_t>(graph.num_nodes()) - 1));
    EXPECT_EQ(graph.Distance(a, b), graph.Distance(b, a));
    EXPECT_EQ(graph.Distance(a, a), 0u);
  }
  // Base nodes count = product of level-0 cardinalities.
  EXPECT_EQ(graph.num_base_nodes(), graph.schema().NumBaseCells());
}

TEST_P(RandomSchemaSweep, AdvisorProducesValidConfiguration) {
  const TimeSeriesGraph graph = BuildRandomGraph(GetParam(), 55);
  ModelFactory factory(ModelSpec{ModelType::kSes, 1, {}});
  AdvisorOptions options;
  options.models_per_iteration = 2;
  options.stop.max_iterations = 6;
  ModelConfigurationAdvisor advisor(graph, factory, options);
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().final_error, 1.0);
  // Every assigned scheme's sources carry models.
  for (NodeId node = 0; node < graph.num_nodes(); ++node) {
    const auto& scheme = result.value().configuration.assignment(node).scheme;
    for (NodeId source : scheme.sources) {
      EXPECT_TRUE(result.value().configuration.HasModel(source));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RandomSchemaSweep,
    ::testing::Values(SchemaShape{1, 6, 1}, SchemaShape{1, 9, 3},
                      SchemaShape{2, 4, 2}, SchemaShape{3, 3, 1},
                      SchemaShape{2, 5, 3}),
    [](const auto& info) {
      return "dims" + std::to_string(info.param.dims) + "vals" +
             std::to_string(info.param.values_per_dim) + "levels" +
             std::to_string(info.param.levels);
    });

// -------------------------------------------------------------- parser fuzz

TEST(ParserFuzz, RandomGarbageNeverCrashes) {
  Rng rng(66);
  const std::string alphabet =
      "SELECTINSERTEXPLAIN WHERE()'+,;=*abcxyz0123456789_\t\n\"%";
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t length =
        static_cast<std::size_t>(rng.UniformInt(0, 80));
    std::string input;
    for (std::size_t i = 0; i < length; ++i) {
      input.push_back(alphabet[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(alphabet.size()) - 1))]);
    }
    auto result = ParseStatement(input);  // must not crash or hang
    (void)result;
  }
}

TEST(ParserFuzz, TokenShuffleNeverCrashes) {
  // Recombine valid tokens in random orders.
  const std::vector<std::string> tokens{
      "SELECT", "time",  ",",      "SUM",  "(",      "sales", ")",
      "FROM",   "facts", "WHERE",  "city", "=",      "'C1'",  "AND",
      "GROUP",  "BY",    "AS",     "OF",   "now",    "+",     "'3'",
      "INSERT", "INTO",  "VALUES", "12.5", "EXPLAIN", "WITH", "INTERVALS"};
  Rng rng(77);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string input;
    const std::size_t count =
        static_cast<std::size_t>(rng.UniformInt(1, 14));
    for (std::size_t i = 0; i < count; ++i) {
      input += tokens[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(tokens.size()) - 1))];
      input.push_back(' ');
    }
    auto result = ParseStatement(input);
    (void)result;
  }
}

TEST(ParserFuzz, ValidQueriesStillParseAfterFuzzing) {
  EXPECT_TRUE(ParseStatement("SELECT time, x FROM f AS OF now() + '1'").ok());
}

}  // namespace
}  // namespace f2db
