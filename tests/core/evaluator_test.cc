#include "core/evaluator.h"

#include <gtest/gtest.h>

#include "testing/test_cubes.h"
#include "ts/accuracy.h"

namespace f2db {
namespace {

TEST(Evaluator, SplitLengths) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40);
  ConfigurationEvaluator evaluator(graph, 0.8);
  EXPECT_EQ(evaluator.train_length(), 32u);
  EXPECT_EQ(evaluator.test_length(), 8u);
  EXPECT_EQ(evaluator.TrainSeries(0).size(), 32u);
  EXPECT_EQ(evaluator.TestActual(0).size(), 8u);
}

TEST(Evaluator, SplitAlwaysLeavesTestData) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(10);
  ConfigurationEvaluator evaluator(graph, 1.0);
  EXPECT_GE(evaluator.test_length(), 1u);
}

TEST(Evaluator, HistorySumIsTrainSum) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40);
  ConfigurationEvaluator evaluator(graph, 0.8);
  const NodeId node = graph.base_nodes()[0];
  EXPECT_NEAR(evaluator.HistorySum(node),
              graph.series(node).Head(32).Sum(), 1e-9);
}

TEST(Evaluator, WeightEquationTwo) {
  // Disaggregation weight k_{parent->child} = h_child / h_parent.
  const TimeSeriesGraph graph = testing::MakeRegionCube(40);
  ConfigurationEvaluator evaluator(graph, 0.8);
  const NodeId child = graph.base_nodes()[0];
  const NodeId parent = graph.top_node();
  const double k = evaluator.Weight({parent}, child);
  EXPECT_NEAR(k, evaluator.HistorySum(child) / evaluator.HistorySum(parent),
              1e-12);
  EXPECT_GT(k, 0.0);
  EXPECT_LT(k, 1.0);
}

TEST(Evaluator, WeightEquationThreeAggregationIsOne) {
  // Aggregating all children of the top node: k = h_t / sum h_children = 1.
  const TimeSeriesGraph graph = testing::MakeRegionCube(40);
  ConfigurationEvaluator evaluator(graph, 0.8);
  std::vector<NodeId> children(graph.base_nodes());
  EXPECT_NEAR(evaluator.Weight(children, graph.top_node()), 1.0, 1e-9);
}

TEST(Evaluator, DirectWeightIsOne) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40);
  ConfigurationEvaluator evaluator(graph, 0.8);
  const NodeId node = graph.base_nodes()[1];
  EXPECT_NEAR(evaluator.Weight({node}, node), 1.0, 1e-12);
}

TEST(Evaluator, WeightGuardsZeroDenominator) {
  TimeSeriesGraph graph = testing::MakeRegionCube(40);
  // Zero out one base series; weight from it must be 0, not inf.
  ASSERT_TRUE(graph
                  .SetBaseSeries(graph.base_nodes()[0],
                                 TimeSeries(std::vector<double>(40, 0.0)))
                  .ok());
  ASSERT_TRUE(graph.BuildAggregates().ok());
  ConfigurationEvaluator evaluator(graph, 0.8);
  EXPECT_DOUBLE_EQ(
      evaluator.Weight({graph.base_nodes()[0]}, graph.base_nodes()[1]), 0.0);
}

TEST(Evaluator, DeriveSumsAndScales) {
  const std::vector<double> f1{1, 2};
  const std::vector<double> f2{10, 20};
  const auto derived = ConfigurationEvaluator::Derive(0.5, {&f1, &f2});
  EXPECT_DOUBLE_EQ(derived[0], 5.5);
  EXPECT_DOUBLE_EQ(derived[1], 11.0);
}

TEST(Evaluator, SchemeErrorPerfectSourceMatchesSmape) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40, 0.0);
  ConfigurationEvaluator evaluator(graph, 0.8);
  const NodeId node = graph.base_nodes()[0];
  // Using the node's actual test values as its "forecast": error 0.
  const std::vector<double> perfect = evaluator.TestActual(node);
  EXPECT_NEAR(evaluator.SchemeError(DerivationScheme::Direct(node), {&perfect},
                                    node),
              0.0, 1e-12);
}

// The single-source SchemeError equals the general one on a Single scheme,
// bit for bit, over every (source, target) pair and several forecasts.
TEST(Evaluator, SingleSourceSchemeErrorMatchesGeneral) {
  for (const TimeSeriesGraph& graph :
       {testing::MakeZeroStepCube(), testing::MakeFigure2Cube(60)}) {
    ConfigurationEvaluator evaluator(graph, 0.8);
    const std::size_t h = evaluator.test_length();
    for (NodeId s = 0; s < graph.num_nodes(); ++s) {
      std::vector<double> signed_zeros(h, 0.0);
      for (std::size_t i = 0; i < h; ++i) {
        signed_zeros[i] = i % 3 == 0 ? -0.0 : (i % 3 == 1 ? -2.5 : 4.0);
      }
      const std::vector<std::vector<double>> forecasts = {
          evaluator.TestActual(s), signed_zeros, std::vector<double>(h, 0.0),
          std::vector<double>(h + 1, 1.0), {}};
      for (const std::vector<double>& forecast : forecasts) {
        for (NodeId t = 0; t < graph.num_nodes(); ++t) {
          EXPECT_EQ(evaluator.SchemeError(s, forecast, t),
                    evaluator.SchemeError(DerivationScheme::Single(s),
                                          {&forecast}, t))
              << "source " << s << " target " << t;
        }
      }
    }
  }
}

TEST(Evaluator, SchemeErrorEmptySchemeIsWorstCase) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40);
  ConfigurationEvaluator evaluator(graph, 0.8);
  EXPECT_DOUBLE_EQ(evaluator.SchemeError(DerivationScheme{}, {}, 0), 1.0);
}

TEST(Evaluator, HistoricalErrorZeroForProportionalSeries) {
  // Noise-free region cube: city series are exact shares of the region, so
  // the perfect-model derivation reproduces history exactly.
  const TimeSeriesGraph graph = testing::MakeRegionCube(40, 0.0);
  ConfigurationEvaluator evaluator(graph, 0.8);
  const double err =
      evaluator.HistoricalError(graph.top_node(), graph.base_nodes()[0]);
  EXPECT_NEAR(err, 0.0, 1e-9);
}

TEST(Evaluator, HistoricalErrorGrowsWithNoise) {
  const TimeSeriesGraph clean = testing::MakeRegionCube(40, 0.0);
  const TimeSeriesGraph noisy = testing::MakeRegionCube(40, 3.0);
  ConfigurationEvaluator eval_clean(clean, 0.8);
  ConfigurationEvaluator eval_noisy(noisy, 0.8);
  EXPECT_LT(
      eval_clean.HistoricalError(clean.top_node(), clean.base_nodes()[0]),
      eval_noisy.HistoricalError(noisy.top_node(), noisy.base_nodes()[0]));
}

TEST(Evaluator, WeightInstabilityZeroForStableShares) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40, 0.0);
  ConfigurationEvaluator evaluator(graph, 0.8);
  EXPECT_NEAR(
      evaluator.WeightInstability(graph.top_node(), graph.base_nodes()[0]),
      0.0, 1e-9);
}

TEST(Evaluator, WeightInstabilityPositiveForNoisyShares) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40, 3.0);
  ConfigurationEvaluator evaluator(graph, 0.8);
  EXPECT_GT(
      evaluator.WeightInstability(graph.top_node(), graph.base_nodes()[0]),
      0.01);
}

TEST(Evaluator, MultiSourceHistoricalErrorUsesJointWeight) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40, 0.0);
  ConfigurationEvaluator evaluator(graph, 0.8);
  // Deriving the region from all three cities is exact.
  const double err = evaluator.HistoricalErrorMulti(
      {graph.base_nodes()[0], graph.base_nodes()[1], graph.base_nodes()[2]},
      graph.top_node());
  EXPECT_NEAR(err, 0.0, 1e-9);
}

}  // namespace
}  // namespace f2db
