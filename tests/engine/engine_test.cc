#include "engine/engine.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "baselines/advisor_builder.h"
#include "baselines/bottom_up.h"
#include "common/failpoint.h"
#include "testing/test_cubes.h"
#include "ts/accuracy.h"

namespace f2db {
namespace {

/// Builds an engine over the Figure-2 cube with an advisor configuration.
class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : evaluator_graph_(testing::MakeFigure2Cube(60, 0.05)),
        evaluator_(evaluator_graph_, 0.8),
        factory_(ModelSpec::TripleExponentialSmoothing(12)),
        engine_(testing::MakeFigure2Cube(60, 0.05)) {
    AdvisorOptions options;
    options.models_per_iteration = 4;
    options.stop.max_iterations = 12;
    AdvisorBuilder builder(options);
    auto outcome = builder.Build(evaluator_, factory_);
    EXPECT_TRUE(outcome.ok());
    config_ = std::move(outcome.value().configuration);
    EXPECT_TRUE(engine_.LoadConfiguration(config_, evaluator_).ok());
  }

  TimeSeriesGraph evaluator_graph_;
  ConfigurationEvaluator evaluator_;
  ModelFactory factory_;
  F2dbEngine engine_;
  ModelConfiguration config_;
};

TEST_F(EngineTest, ResolveNodeDefaultsToAll) {
  auto node = engine_.ResolveNode({});
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(node.value(), engine_.graph().top_node());
}

TEST_F(EngineTest, ResolveNodeByLevels) {
  auto node = engine_.ResolveNode({{"city", "C3"}, {"product", "P1"}});
  ASSERT_TRUE(node.ok());
  const NodeAddress address = engine_.graph().AddressOf(node.value());
  EXPECT_EQ(address.coords[0].level, 0u);
  EXPECT_EQ(address.coords[0].value, 2u);
  // Region-level query resolves to the region node.
  auto region = engine_.ResolveNode({{"region", "R2"}});
  ASSERT_TRUE(region.ok());
  EXPECT_EQ(engine_.graph().AddressOf(region.value()).coords[0].level, 1u);
}

TEST_F(EngineTest, ResolveNodeRejectsUnknownLevelOrValue) {
  EXPECT_FALSE(engine_.ResolveNode({{"country", "X"}}).ok());
  EXPECT_FALSE(engine_.ResolveNode({{"city", "C9"}}).ok());
}

TEST_F(EngineTest, ExecuteSqlReturnsHorizonRows) {
  auto result = engine_.ExecuteSql(
      "SELECT time, SUM(sales) FROM facts WHERE region = 'R1' GROUP BY time "
      "AS OF now() + '4'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 4u);
  const std::int64_t now = engine_.graph().series(result.value().node).end_time();
  for (std::size_t h = 0; h < 4; ++h) {
    EXPECT_EQ(result.value().rows[h].time, now + static_cast<std::int64_t>(h));
    EXPECT_GT(result.value().rows[h].value, 0.0);
  }
  EXPECT_EQ(engine_.stats().queries, 1u);
}

TEST_F(EngineTest, ForecastsAreReasonablyAccurate) {
  // Compare a one-step engine forecast of the top node to the actual level
  // of the (smooth) series.
  auto forecast = engine_.ForecastNode(engine_.graph().top_node(), 1);
  ASSERT_TRUE(forecast.ok());
  const TimeSeries& top = engine_.graph().series(engine_.graph().top_node());
  const double last = top[top.size() - 1];
  EXPECT_NEAR(forecast.value()[0], last, 0.3 * last);
}

TEST_F(EngineTest, UncoveredNodesGetFallbackScheme) {
  // Every node must be answerable after LoadConfiguration.
  for (NodeId node = 0; node < engine_.graph().num_nodes(); ++node) {
    EXPECT_TRUE(engine_.ForecastNode(node, 1).ok())
        << engine_.graph().NodeName(node);
  }
}

TEST_F(EngineTest, InsertBatchingAdvancesOnlyWhenComplete) {
  const std::int64_t t = engine_.graph().series(0).end_time();
  const std::vector<NodeId> bases = engine_.graph().base_nodes();
  for (std::size_t i = 0; i + 1 < bases.size(); ++i) {
    ASSERT_TRUE(engine_.InsertFact(bases[i], t, 5.0).ok());
    EXPECT_EQ(engine_.stats().time_advances, 0u);
  }
  EXPECT_EQ(engine_.pending_inserts(), bases.size() - 1);
  ASSERT_TRUE(engine_.InsertFact(bases.back(), t, 5.0).ok());
  EXPECT_EQ(engine_.stats().time_advances, 1u);
  EXPECT_EQ(engine_.pending_inserts(), 0u);
  EXPECT_EQ(engine_.graph().series(0).end_time(), t + 1);
}

TEST_F(EngineTest, OutOfOrderBatchesApplyInSequence) {
  const std::int64_t t = engine_.graph().series(0).end_time();
  const std::vector<NodeId> bases = engine_.graph().base_nodes();
  // Fill time t+1 completely first: nothing advances (t missing).
  for (NodeId base : bases) {
    ASSERT_TRUE(engine_.InsertFact(base, t + 1, 7.0).ok());
  }
  EXPECT_EQ(engine_.stats().time_advances, 0u);
  // Now complete time t: both advance in order.
  for (NodeId base : bases) {
    ASSERT_TRUE(engine_.InsertFact(base, t, 6.0).ok());
  }
  EXPECT_EQ(engine_.stats().time_advances, 2u);
  const TimeSeries& top = engine_.graph().series(engine_.graph().top_node());
  EXPECT_NEAR(top[top.size() - 2], 6.0 * bases.size(), 1e-9);
  EXPECT_NEAR(top[top.size() - 1], 7.0 * bases.size(), 1e-9);
}

TEST_F(EngineTest, InsertValidation) {
  const std::int64_t t = engine_.graph().series(0).end_time();
  const NodeId base = engine_.graph().base_nodes()[0];
  EXPECT_FALSE(engine_.InsertFact(engine_.graph().top_node(), t, 1.0).ok());
  EXPECT_FALSE(engine_.InsertFact(base, t - 5, 1.0).ok());  // behind frontier
  ASSERT_TRUE(engine_.InsertFact(base, t, 1.0).ok());
  EXPECT_FALSE(engine_.InsertFact(base, t, 2.0).ok());  // duplicate
}

TEST_F(EngineTest, InsertByValueNames) {
  const std::int64_t t = engine_.graph().series(0).end_time();
  EXPECT_TRUE(engine_.InsertFact({"C1", "P1"}, t, 3.0).ok());
  EXPECT_FALSE(engine_.InsertFact({"C9", "P1"}, t, 3.0).ok());
  EXPECT_FALSE(engine_.InsertFact({"C1"}, t, 3.0).ok());
}

TEST_F(EngineTest, MaintenanceKeepsAggregatesConsistent) {
  const std::int64_t t = engine_.graph().series(0).end_time();
  const std::vector<NodeId> bases = engine_.graph().base_nodes();
  for (std::size_t i = 0; i < bases.size(); ++i) {
    ASSERT_TRUE(
        engine_.InsertFact(bases[i], t, static_cast<double>(i + 1)).ok());
  }
  // Check an intermediate aggregate: region R1 x product P1 = bases C1,C2.
  auto node = engine_.ResolveNode({{"region", "R1"}, {"product", "P1"}});
  ASSERT_TRUE(node.ok());
  const TimeSeries& series = engine_.graph().series(node.value());
  double expected = 0.0;
  for (std::size_t i = 0; i < bases.size(); ++i) {
    const NodeAddress address = engine_.graph().AddressOf(bases[i]);
    if (address.coords[0].value <= 1 && address.coords[1].value == 0) {
      expected += static_cast<double>(i + 1);
    }
  }
  EXPECT_NEAR(series[series.size() - 1], expected, 1e-9);
}

TEST_F(EngineTest, ThresholdInvalidationTriggersLazyReestimation) {
  // Options are immutable after construction: build a dedicated engine.
  EngineOptions options;
  options.reestimate_after_updates = 2;
  F2dbEngine engine(testing::MakeFigure2Cube(60, 0.05), options);
  ASSERT_TRUE(engine.LoadConfiguration(config_, evaluator_).ok());
  const std::vector<NodeId> bases = engine.graph().base_nodes();
  for (int period = 0; period < 3; ++period) {
    const std::int64_t t = engine.graph().series(0).end_time();
    for (NodeId base : bases) {
      ASSERT_TRUE(engine.InsertFact(base, t, 10.0).ok());
    }
  }
  EXPECT_EQ(engine.stats().reestimates, 0u);  // lazy: nothing queried yet
  ASSERT_TRUE(engine.ForecastNode(engine.graph().top_node(), 1).ok());
  EXPECT_GT(engine.stats().reestimates, 0u);
  // A second query does not re-estimate again.
  const std::size_t after_first = engine.stats().reestimates;
  ASSERT_TRUE(engine.ForecastNode(engine.graph().top_node(), 1).ok());
  EXPECT_EQ(engine.stats().reestimates, after_first);
}

TEST_F(EngineTest, PinnedSnapshotGivesRepeatableReads) {
  const NodeId top = engine_.graph().top_node();
  const SnapshotPtr snap = engine_.snapshot();
  auto before = engine_.ForecastNode(snap, top, 3);
  ASSERT_TRUE(before.ok());

  // Advance one full period with very different values.
  const std::vector<NodeId> bases = engine_.graph().base_nodes();
  const std::int64_t t = engine_.graph().series(0).end_time();
  for (NodeId base : bases) {
    ASSERT_TRUE(engine_.InsertFact(base, t, 500.0).ok());
  }

  // The pinned snapshot still answers exactly as before the advance...
  auto pinned = engine_.ForecastNode(snap, top, 3);
  ASSERT_TRUE(pinned.ok());
  for (std::size_t h = 0; h < 3; ++h) {
    EXPECT_DOUBLE_EQ(pinned.value()[h], before.value()[h]);
  }
  // ...and its graph frontier is still the pre-advance one.
  EXPECT_EQ(snap->graph->series(top).end_time(), engine_.graph().series(top).end_time() - 1);
}

TEST_F(EngineTest, MaintenancePublishesNewSnapshotVersions) {
  const SnapshotPtr first = engine_.snapshot();
  const std::vector<NodeId> bases = engine_.graph().base_nodes();
  const std::int64_t t = engine_.graph().series(0).end_time();
  // Buffered (incomplete) inserts publish nothing.
  ASSERT_TRUE(engine_.InsertFact(bases[0], t, 5.0).ok());
  EXPECT_EQ(engine_.snapshot()->version, first->version);
  for (std::size_t i = 1; i < bases.size(); ++i) {
    ASSERT_TRUE(engine_.InsertFact(bases[i], t, 5.0).ok());
  }
  const SnapshotPtr second = engine_.snapshot();
  EXPECT_GT(second->version, first->version);
  // The old snapshot's data is untouched by the advance.
  EXPECT_EQ(first->graph->series(0).end_time(), t);
  EXPECT_EQ(second->graph->series(0).end_time(), t + 1);
}

TEST_F(EngineTest, EveryForecastEntryPointAgreesOnEveryRung) {
  // One query target per rung of the degradation ladder: V carries a valid
  // model; S an invalidated one whose refit fails (stale); D's scheme
  // source X has no model but its own scheme reaches V (derived); N has no
  // model and its scheme is itself (naive drift).
  EngineOptions options;
  options.reestimate_after_updates = 1;
  F2dbEngine engine(testing::MakeFigure2Cube(60, 0.05), options);
  const auto node = [&](std::vector<DimensionFilter> filters) {
    auto resolved = engine.ResolveNode(filters);
    EXPECT_TRUE(resolved.ok());
    return resolved.value();
  };
  const NodeId v = node({{"city", "C1"}, {"product", "P1"}});
  const NodeId s = node({{"city", "C2"}, {"product", "P1"}});
  const NodeId x = node({{"city", "C3"}, {"product", "P1"}});
  const NodeId d = node({{"region", "R1"}});
  const NodeId n = node({{"city", "C4"}, {"product", "P2"}});
  ConfigurationCatalog catalog;
  for (NodeId modeled : {v, s}) {
    auto model = factory_.CreateAndFit(engine.graph().series(modeled));
    ASSERT_TRUE(model.ok());
    ModelRow row;
    row.node = modeled;
    row.payload = ModelFactory::SerializeModel(*model.value());
    catalog.model_table().push_back(std::move(row));
  }
  for (const auto& [target, source] : std::vector<std::pair<NodeId, NodeId>>{
           {v, v}, {s, s}, {x, v}, {d, x}, {n, n}}) {
    SchemeRow row;
    row.target = target;
    row.sources = {source};
    catalog.scheme_table().push_back(std::move(row));
  }
  ASSERT_TRUE(engine.LoadCatalog(catalog).ok());

  // One advance invalidates both models; V's refit then succeeds, and
  // every later refit (S's) fails.
  const std::int64_t t = engine.graph().series(0).end_time();
  for (NodeId base : engine.graph().base_nodes()) {
    ASSERT_TRUE(engine.InsertFact(base, t, 10.0).ok());
  }
  ASSERT_TRUE(engine.ForecastNode(v, 1).ok());
  ASSERT_EQ(engine.stats().reestimates, 1u);
  struct Disarm {
    ~Disarm() { failpoint::DisableAll(); }
  } disarm;
  failpoint::Enable(kFailpointEngineRefit, failpoint::Policy::Always());

  constexpr std::size_t kHorizon = 3;
  struct Rung {
    std::string where;
    NodeId node;
    DegradationLevel level;
  };
  for (const Rung& rung : std::vector<Rung>{
           {"city = 'C1' AND product = 'P1'", v, DegradationLevel::kNone},
           {"city = 'C2' AND product = 'P1'", s, DegradationLevel::kStaleModel},
           {"region = 'R1'", d, DegradationLevel::kDerivedFallback},
           {"city = 'C4' AND product = 'P2'", n,
            DegradationLevel::kNaiveFallback}}) {
    SCOPED_TRACE(rung.where);
    const std::string sql = "SELECT time, SUM(sales) FROM facts WHERE " +
                            rung.where + " GROUP BY time AS OF now() + '3'";
    // Every call counts one query and `kHorizon` rows on its own rung.
    EngineStats before = engine.stats();
    const auto expect_counted = [&] {
      const EngineStats after = engine.stats();
      const auto rows_on = [&](DegradationLevel level) {
        return rung.level == level ? kHorizon : 0u;
      };
      EXPECT_EQ(after.queries, before.queries + 1);
      EXPECT_EQ(after.degraded_rows_stale,
                before.degraded_rows_stale +
                    rows_on(DegradationLevel::kStaleModel));
      EXPECT_EQ(after.degraded_rows_derived,
                before.degraded_rows_derived +
                    rows_on(DegradationLevel::kDerivedFallback));
      EXPECT_EQ(after.degraded_rows_naive,
                before.degraded_rows_naive +
                    rows_on(DegradationLevel::kNaiveFallback));
      before = after;
    };
    const auto expect_rows = [&](const QueryResult& result) {
      EXPECT_EQ(result.node, rung.node);
      EXPECT_EQ(result.degradation, rung.level);
      ASSERT_EQ(result.rows.size(), kHorizon);
      for (const ForecastRow& row : result.rows) {
        EXPECT_EQ(row.degradation, rung.level);
      }
    };

    auto sql_result = engine.ExecuteSql(sql);
    ASSERT_TRUE(sql_result.ok()) << sql_result.status().ToString();
    expect_rows(sql_result.value());
    expect_counted();
    std::vector<double> expected;
    for (const ForecastRow& row : sql_result.value().rows) {
      expected.push_back(row.value);
    }

    auto plan = engine.ParsePlan(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    QueryResult planned;
    ASSERT_TRUE(engine
                    .ExecutePlanInto(*plan.value(),
                                     plan.value()->tmpl.statement.forecast,
                                     &planned)
                    .ok());
    expect_rows(planned);
    expect_counted();
    for (std::size_t h = 0; h < kHorizon; ++h) {
      EXPECT_EQ(planned.rows[h].value, expected[h]) << "h=" << h;
    }

    auto latest = engine.ForecastNode(rung.node, kHorizon);
    ASSERT_TRUE(latest.ok()) << latest.status().ToString();
    expect_counted();
    EXPECT_EQ(latest.value(), expected);

    auto pinned = engine.ForecastNode(engine.snapshot(), rung.node, kHorizon);
    ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
    expect_counted();
    EXPECT_EQ(pinned.value(), expected);

    auto intervals = engine.ForecastNodeWithIntervals(rung.node, kHorizon);
    ASSERT_TRUE(intervals.ok()) << intervals.status().ToString();
    expect_counted();
    ASSERT_EQ(intervals.value().size(), kHorizon);
    for (std::size_t h = 0; h < kHorizon; ++h) {
      EXPECT_EQ(intervals.value()[h].point, expected[h]) << "h=" << h;
    }
  }
}

TEST_F(EngineTest, FailedCatalogLoadLeavesEngineUsable) {
  const std::size_t models_before = engine_.num_models();
  ConfigurationCatalog bad;
  SchemeRow row;
  row.target = 0;
  row.sources = {1};  // no model stored for node 1
  bad.scheme_table().push_back(row);
  EXPECT_FALSE(engine_.LoadCatalog(bad).ok());
  // The previously published configuration is still fully live.
  EXPECT_EQ(engine_.num_models(), models_before);
  EXPECT_TRUE(engine_.ForecastNode(engine_.graph().top_node(), 1).ok());
}

TEST_F(EngineTest, ParallelMaintenanceMatchesSerial) {
  EngineOptions parallel_options;
  parallel_options.maintenance_threads = 4;
  F2dbEngine parallel_engine(testing::MakeFigure2Cube(60, 0.05),
                             parallel_options);
  ASSERT_TRUE(parallel_engine.LoadConfiguration(config_, evaluator_).ok());

  const std::vector<NodeId> bases = engine_.graph().base_nodes();
  for (int period = 0; period < 2; ++period) {
    const std::int64_t t = engine_.graph().series(0).end_time();
    for (std::size_t i = 0; i < bases.size(); ++i) {
      const double v = 10.0 + static_cast<double>(i + 1);
      ASSERT_TRUE(engine_.InsertFact(bases[i], t, v).ok());
      ASSERT_TRUE(parallel_engine.InsertFact(bases[i], t, v).ok());
    }
  }
  for (NodeId node : {engine_.graph().top_node(), bases[0]}) {
    auto serial = engine_.ForecastNode(node, 3);
    auto parallel = parallel_engine.ForecastNode(node, 3);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok());
    for (std::size_t h = 0; h < 3; ++h) {
      EXPECT_NEAR(serial.value()[h], parallel.value()[h], 1e-9);
    }
  }
}

TEST_F(EngineTest, CatalogExportLoadRoundTrip) {
  auto catalog = engine_.ExportCatalog();
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ(catalog.value().model_table().size(), engine_.num_models());

  F2dbEngine other(testing::MakeFigure2Cube(60, 0.05));
  ASSERT_TRUE(other.LoadCatalog(catalog.value()).ok());
  EXPECT_EQ(other.num_models(), engine_.num_models());
  // Forecasts agree across the round trip.
  for (NodeId node : {engine_.graph().top_node(), engine_.graph().base_nodes()[0]}) {
    auto f1 = engine_.ForecastNode(node, 3);
    auto f2 = other.ForecastNode(node, 3);
    ASSERT_TRUE(f1.ok());
    ASSERT_TRUE(f2.ok());
    for (std::size_t h = 0; h < 3; ++h) {
      EXPECT_NEAR(f1.value()[h], f2.value()[h], 1e-6);
    }
  }
}

TEST_F(EngineTest, CatalogFilePersistence) {
  auto catalog = engine_.ExportCatalog();
  ASSERT_TRUE(catalog.ok());
  const std::string path =
      (std::filesystem::temp_directory_path() / "f2db_catalog_test.txt")
          .string();
  ASSERT_TRUE(catalog.value().Save(path).ok());

  ConfigurationCatalog loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.scheme_table().size(), catalog.value().scheme_table().size());
  EXPECT_EQ(loaded.model_table().size(), catalog.value().model_table().size());

  F2dbEngine other(testing::MakeFigure2Cube(60, 0.05));
  EXPECT_TRUE(other.LoadCatalog(loaded).ok());
  std::remove(path.c_str());
}

TEST_F(EngineTest, LoadCatalogRejectsDanglingScheme) {
  ConfigurationCatalog catalog;
  SchemeRow row;
  row.target = 0;
  row.sources = {1};  // no model stored for node 1
  catalog.scheme_table().push_back(row);
  F2dbEngine other(testing::MakeFigure2Cube(60, 0.05));
  EXPECT_FALSE(other.LoadCatalog(catalog).ok());
}

TEST(Catalog, LoadRejectsGarbageFiles) {
  ConfigurationCatalog catalog;
  EXPECT_FALSE(catalog.Load("/nonexistent/catalog.txt").ok());
  const std::string path =
      (std::filesystem::temp_directory_path() / "f2db_bad_catalog.txt")
          .string();
  {
    std::ofstream out(path);
    out << "not a catalog\n";
  }
  EXPECT_FALSE(catalog.Load(path).ok());
  std::remove(path.c_str());
}

TEST(Engine, LoadConfigurationRejectsMismatchedGraph) {
  const TimeSeriesGraph small = testing::MakeRegionCube(40);
  ConfigurationEvaluator evaluator(small, 0.8);
  ModelConfiguration config(small.num_nodes());
  F2dbEngine engine(testing::MakeFigure2Cube(60));
  EXPECT_FALSE(engine.LoadConfiguration(config, evaluator).ok());
}

TEST(Engine, LoadConfigurationRejectsEmptyConfig) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40);
  ConfigurationEvaluator evaluator(graph, 0.8);
  ModelConfiguration config(graph.num_nodes());
  F2dbEngine engine(testing::MakeRegionCube(40));
  EXPECT_FALSE(engine.LoadConfiguration(config, evaluator).ok());
}

// A second predicate on an already constrained dimension is an error, not
// a silent overwrite of the first (city and region both belong to the
// 'location' dimension of the Figure 2 cube).
TEST(Engine, RejectsTwoPredicatesOnOneDimension) {
  F2dbEngine engine(testing::MakeFigure2Cube(48));
  for (const std::vector<DimensionFilter>& filters :
       {std::vector<DimensionFilter>{{"city", "C1"}, {"region", "R2"}},
        std::vector<DimensionFilter>{{"region", "R2"}, {"city", "C1"}},
        std::vector<DimensionFilter>{{"city", "C1"}, {"city", "C1"}}}) {
    const auto node = engine.ResolveNode(filters);
    ASSERT_FALSE(node.ok());
    EXPECT_EQ(node.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(node.status().message(),
              "more than one WHERE predicate on dimension 'location'");
  }
  const auto sql = engine.ExecuteSql(
      "SELECT time, SUM(sales) FROM facts WHERE city = 'C1' AND "
      "product = 'P2' AND region = 'R2' GROUP BY time AS OF now() + '1'");
  ASSERT_FALSE(sql.ok());
  EXPECT_EQ(sql.status().code(), StatusCode::kInvalidArgument);
  // One predicate per dimension still resolves.
  const auto node = engine.ResolveNode({{"product", "P2"}, {"region", "R2"}});
  ASSERT_TRUE(node.ok()) << node.status().message();
  EXPECT_EQ(engine.graph().NodeName(node.value()),
            engine.graph().NodeName(
                engine.ResolveNode({{"region", "R2"}, {"product", "P2"}})
                    .value()));
}

TEST(Engine, BottomUpConfigurationServesAggregateQueries) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(48, 0.2);
  ConfigurationEvaluator evaluator(graph, 0.8);
  ModelFactory factory(ModelSpec::TripleExponentialSmoothing(4));
  BottomUpBuilder builder;
  auto outcome = builder.Build(evaluator, factory);
  ASSERT_TRUE(outcome.ok());
  F2dbEngine engine(testing::MakeRegionCube(48, 0.2));
  ASSERT_TRUE(
      engine.LoadConfiguration(outcome.value().configuration, evaluator).ok());
  auto result = engine.ExecuteSql(
      "SELECT time, SUM(sales) FROM facts GROUP BY time AS OF now() + '2'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows.size(), 2u);
}

}  // namespace
}  // namespace f2db
