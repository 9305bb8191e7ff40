#include "core/configuration.h"

#include <gtest/gtest.h>

#include "testing/test_cubes.h"
#include "ts/exponential_smoothing.h"

namespace f2db {
namespace {

ModelEntry MakeEntry(const ConfigurationEvaluator& evaluator, NodeId node,
                     std::vector<NodeId> coverage) {
  ModelEntry entry;
  auto model = ExponentialSmoothingModel::HoltWintersAdditive(4);
  EXPECT_TRUE(model->Fit(evaluator.TrainSeries(node)).ok());
  entry.test_forecast = model->Forecast(evaluator.test_length());
  entry.model = std::move(model);
  entry.creation_seconds = 0.5;
  entry.coverage = std::move(coverage);
  return entry;
}

class ConfigurationTest : public ::testing::Test {
 protected:
  ConfigurationTest()
      : graph_(testing::MakeRegionCube(48, 0.5)), evaluator_(graph_, 0.8) {}

  TimeSeriesGraph graph_;
  ConfigurationEvaluator evaluator_;
};

TEST_F(ConfigurationTest, StartsEmptyAndUncovered) {
  ModelConfiguration config(graph_.num_nodes());
  EXPECT_EQ(config.num_models(), 0u);
  EXPECT_DOUBLE_EQ(config.MeanError(), 1.0);
  EXPECT_DOUBLE_EQ(config.TotalCostSeconds(), 0.0);
  EXPECT_EQ(config.model(0), nullptr);
  EXPECT_TRUE(config.assignment(0).scheme.IsEmpty());
}

TEST_F(ConfigurationTest, AddRemoveModel) {
  ModelConfiguration config(graph_.num_nodes());
  const NodeId top = graph_.top_node();
  config.AddModel(top, MakeEntry(evaluator_, top, {}));
  EXPECT_TRUE(config.HasModel(top));
  EXPECT_EQ(config.num_models(), 1u);
  EXPECT_DOUBLE_EQ(config.TotalCostSeconds(), 0.5);
  EXPECT_EQ(config.model_nodes(), std::vector<NodeId>{top});

  ModelEntry removed = config.RemoveModel(top);
  EXPECT_NE(removed.model, nullptr);
  EXPECT_FALSE(config.HasModel(top));
  EXPECT_EQ(config.RemoveModel(top).model, nullptr);  // idempotent
}

TEST_F(ConfigurationTest, ApplyModelSchemesImprovesCoveredNodes) {
  ModelConfiguration config(graph_.num_nodes());
  const NodeId top = graph_.top_node();
  std::vector<NodeId> coverage(graph_.base_nodes());
  config.AddModel(top, MakeEntry(evaluator_, top, coverage));
  const std::size_t improved = config.ApplyModelSchemes(evaluator_, top);
  EXPECT_EQ(improved, 4u);  // top itself + 3 cities
  EXPECT_LT(config.MeanError(), 1.0);
  EXPECT_EQ(config.assignment(top).scheme, DerivationScheme::Direct(top));
  for (NodeId base : graph_.base_nodes()) {
    EXPECT_EQ(config.assignment(base).scheme, DerivationScheme::Single(top));
    EXPECT_LT(config.assignment(base).error, 1.0);
  }
}

TEST_F(ConfigurationTest, ApplyModelSchemesUndoRestoresExactly) {
  ModelConfiguration config(graph_.num_nodes());
  const NodeId top = graph_.top_node();
  const NodeId base0 = graph_.base_nodes()[0];
  std::vector<NodeId> all_nodes;
  for (NodeId n = 0; n < graph_.num_nodes(); ++n) {
    if (n != base0) all_nodes.push_back(n);
  }
  config.AddModel(base0, MakeEntry(evaluator_, base0, {top}));
  config.ApplyModelSchemes(evaluator_, base0);
  std::vector<NodeAssignment> before;
  for (NodeId n = 0; n < graph_.num_nodes(); ++n) {
    before.push_back(config.assignment(n));
  }

  config.AddModel(top, MakeEntry(evaluator_, top, all_nodes));
  std::vector<std::pair<NodeId, NodeAssignment>> undo;
  const std::size_t improved = config.ApplyModelSchemes(evaluator_, top, &undo);
  EXPECT_EQ(undo.size(), improved);
  EXPECT_GT(improved, 0u);
  for (const auto& [node, assignment] : undo) {
    EXPECT_EQ(assignment.error, before[node].error);
    EXPECT_EQ(assignment.scheme, before[node].scheme);
  }
  config.RemoveModel(top);
  for (auto& [node, assignment] : undo) {
    config.set_assignment(node, std::move(assignment));
  }
  for (NodeId n = 0; n < graph_.num_nodes(); ++n) {
    EXPECT_EQ(config.assignment(n).error, before[n].error);
    EXPECT_EQ(config.assignment(n).scheme, before[n].scheme);
  }
}

TEST_F(ConfigurationTest, ApplyModelSchemesNeverWorsens) {
  ModelConfiguration config(graph_.num_nodes());
  const NodeId top = graph_.top_node();
  const NodeId base = graph_.base_nodes()[0];
  config.AddModel(top, MakeEntry(evaluator_, top, {base}));
  config.ApplyModelSchemes(evaluator_, top);
  const double before = config.assignment(base).error;
  // A second application changes nothing.
  EXPECT_EQ(config.ApplyModelSchemes(evaluator_, top), 0u);
  EXPECT_DOUBLE_EQ(config.assignment(base).error, before);
}

TEST_F(ConfigurationTest, MultiSourceSchemeAdoptedOnlyWhenBetter) {
  ModelConfiguration config(graph_.num_nodes());
  for (NodeId base : graph_.base_nodes()) {
    config.AddModel(base, MakeEntry(evaluator_, base, {}));
    config.ApplyModelSchemes(evaluator_, base);
  }
  // Aggregation of all three cities for the region node.
  const DerivationScheme agg =
      DerivationScheme::Multi(graph_.base_nodes());
  EXPECT_TRUE(config.TryMultiSourceScheme(evaluator_, graph_.top_node(), agg));
  EXPECT_EQ(config.assignment(graph_.top_node()).scheme.sources.size(), 3u);
  // Re-trying the same scheme is no longer an improvement.
  EXPECT_FALSE(
      config.TryMultiSourceScheme(evaluator_, graph_.top_node(), agg));
}

TEST_F(ConfigurationTest, MultiSourceRejectedWhenSourceMissing) {
  ModelConfiguration config(graph_.num_nodes());
  EXPECT_FALSE(config.TryMultiSourceScheme(
      evaluator_, graph_.top_node(),
      DerivationScheme::Multi(graph_.base_nodes())));
}

TEST_F(ConfigurationTest, RecomputeAfterDeletionFallsBack) {
  ModelConfiguration config(graph_.num_nodes());
  const NodeId top = graph_.top_node();
  const NodeId base0 = graph_.base_nodes()[0];
  std::vector<NodeId> all_nodes;
  for (NodeId n = 0; n < graph_.num_nodes(); ++n) {
    if (n != top) all_nodes.push_back(n);
  }
  config.AddModel(top, MakeEntry(evaluator_, top, all_nodes));
  config.AddModel(base0, MakeEntry(evaluator_, base0, {top}));
  config.ApplyModelSchemes(evaluator_, top);
  config.ApplyModelSchemes(evaluator_, base0);

  config.RemoveModel(base0);
  config.RecomputeAssignments(evaluator_);
  // base0 falls back to a scheme from the remaining top model.
  EXPECT_EQ(config.assignment(base0).scheme, DerivationScheme::Single(top));
  EXPECT_LT(config.assignment(base0).error, 1.0);
}

TEST_F(ConfigurationTest, RecomputeNodesMatchesFullRecompute) {
  ModelConfiguration config(graph_.num_nodes());
  const NodeId top = graph_.top_node();
  std::vector<NodeId> all_nodes;
  for (NodeId n = 0; n < graph_.num_nodes(); ++n) {
    if (n != top) all_nodes.push_back(n);
  }
  config.AddModel(top, MakeEntry(evaluator_, top, all_nodes));
  config.ApplyModelSchemes(evaluator_, top);

  ModelConfiguration reference(graph_.num_nodes());
  reference.AddModel(top, MakeEntry(evaluator_, top, all_nodes));
  reference.RecomputeAssignments(evaluator_);

  std::vector<NodeId> targets;
  for (NodeId n = 0; n < graph_.num_nodes(); ++n) targets.push_back(n);
  config.RecomputeNodes(evaluator_, targets);
  for (NodeId n = 0; n < graph_.num_nodes(); ++n) {
    EXPECT_NEAR(config.assignment(n).error, reference.assignment(n).error,
                1e-12);
  }
}

TEST_F(ConfigurationTest, ForecastsForCollectsInSchemeOrder) {
  ModelConfiguration config(graph_.num_nodes());
  const NodeId a = graph_.base_nodes()[0];
  const NodeId b = graph_.base_nodes()[1];
  config.AddModel(a, MakeEntry(evaluator_, a, {}));
  config.AddModel(b, MakeEntry(evaluator_, b, {}));
  const auto forecasts = config.ForecastsFor(DerivationScheme::Multi({a, b}));
  ASSERT_EQ(forecasts.size(), 2u);
  EXPECT_EQ(forecasts[0], &config.entry(a)->test_forecast);
  EXPECT_EQ(forecasts[1], &config.entry(b)->test_forecast);
  // Missing source -> empty result.
  EXPECT_TRUE(
      config.ForecastsFor(DerivationScheme::Multi({a, graph_.top_node()}))
          .empty());
}

TEST(DerivationScheme, Helpers) {
  EXPECT_TRUE(DerivationScheme{}.IsEmpty());
  EXPECT_TRUE(DerivationScheme::Direct(3).IsDirect(3));
  EXPECT_FALSE(DerivationScheme::Single(2).IsDirect(3));
  EXPECT_EQ(DerivationScheme::Multi({1, 2}).ToString(), "{1,2}");
}

}  // namespace
}  // namespace f2db
