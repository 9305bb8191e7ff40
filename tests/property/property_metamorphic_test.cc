// Metamorphic property tests: relations that must hold between RELATED
// runs of the engine, regardless of the concrete generated data —
// aggregation consistency up the hierarchy, insert-order invariance,
// degradation monotonicity (degraded answers are annotated, never
// silently wrong), and interval envelope containment.

#include <cmath>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "core/evaluator.h"
#include "engine/engine.h"
#include "gtest/gtest.h"
#include "testing/differential.h"
#include "testing/oracle.h"
#include "testing/property.h"
#include "testing/replay_hint.h"
#include "testing/workload.h"

namespace f2db::testing {
namespace {

bool Close(double a, double b, double rel = 1e-9, double abs = 1e-9) {
  return std::abs(a - b) <= abs + rel * std::max(std::abs(a), std::abs(b));
}

NodeAddress ToNode(const OracleAddress& address) {
  NodeAddress out;
  out.coords.resize(address.coords.size());
  for (std::size_t d = 0; d < address.coords.size(); ++d) {
    out.coords[d] = {static_cast<LevelIndex>(address.coords[d].level),
                     static_cast<ValueIndex>(address.coords[d].value)};
  }
  return out;
}

// ------------------------------------ aggregation consistency up hierarchy

TEST(PropertyMetamorphicTest, AggregateSeriesEqualChildSumsAndOracle) {
  const std::uint64_t base = PropertySeed();
  for (std::size_t shape = 0; shape < NumWorkloadShapes(); ++shape) {
    const WorkloadSpec spec = GenerateWorkload(
        SubSeed(base, "agg-" + std::to_string(shape)), shape, false);
    auto graph = BuildWorkloadGraph(spec);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    ReferenceOracle oracle(spec.dims);
    for (std::size_t cell = 0; cell < spec.base_history.size(); ++cell) {
      oracle.SetBaseSeries(cell, spec.base_history[cell]);
    }
    for (const OracleAddress& address : oracle.AllAddresses()) {
      const auto node = graph.value().NodeFor(ToNode(address));
      ASSERT_TRUE(node.ok()) << address.Key();
      const TimeSeries& series = graph.value().series(node.value());
      const std::vector<double> expected = oracle.SeriesOf(address);
      ASSERT_EQ(series.size(), expected.size());
      for (std::size_t t = 0; t < expected.size(); ++t) {
        ASSERT_TRUE(Close(series[t], expected[t], 1e-9, 1e-9))
            << "node " << address.Key() << " t=" << t << " engine "
            << series[t] << " oracle " << expected[t] << "\n"
            << ReplayHint(base);
      }
      // One aggregation step down along each dimension must also sum to
      // the node (the engine's own child sets, the oracle untouched).
      for (const auto& [dim, children] :
           graph.value().ChildSets(node.value())) {
        if (children.empty()) continue;
        for (std::size_t t = 0; t < series.size(); ++t) {
          double sum = 0.0;
          for (const NodeId child : children) {
            sum += graph.value().series(child)[t];
          }
          ASSERT_TRUE(Close(series[t], sum, 1e-9, 1e-9))
              << "node " << address.Key() << " dim " << dim << " t=" << t
              << "\n"
              << ReplayHint(base);
        }
      }
    }
  }
}

// --------------------------------------------------- insert-order invariance

TEST(PropertyMetamorphicTest, InsertOrderDoesNotChangeAnyForecast) {
  const std::uint64_t base = PropertySeed();
  const std::size_t rounds = PropertyIterations(2);
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::uint64_t seed = SubSeed(base, "order-" + std::to_string(round));
    const WorkloadSpec spec =
        GenerateWorkload(seed, round % NumWorkloadShapes(), false);
    auto graph_a = BuildWorkloadGraph(spec);
    auto graph_b = BuildWorkloadGraph(spec);
    ASSERT_TRUE(graph_a.ok() && graph_b.ok());
    auto config = BuildWorkloadConfiguration(spec, graph_a.value());
    ASSERT_TRUE(config.ok()) << config.status().ToString();

    EngineOptions options;
    options.maintenance_threads = 1;
    F2dbEngine a(std::move(graph_a).value(), options);
    F2dbEngine b(std::move(graph_b).value(), options);
    const ConfigurationEvaluator eval_a(a.graph(), 1.0);
    const ConfigurationEvaluator eval_b(b.graph(), 1.0);
    ASSERT_TRUE(a.LoadConfiguration(config.value(), eval_a).ok());
    ASSERT_TRUE(b.LoadConfiguration(config.value(), eval_b).ok());

    // Three complete rounds inserted in opposite orders.
    Rng rng(SubSeed(seed, "values"));
    const std::size_t cells = spec.base_history.size();
    std::int64_t time = static_cast<std::int64_t>(spec.history_length);
    for (std::size_t r = 0; r < 3; ++r, ++time) {
      std::vector<double> values;
      for (std::size_t c = 0; c < cells; ++c) {
        values.push_back(rng.Uniform(10.0, 100.0));
      }
      for (std::size_t c = 0; c < cells; ++c) {
        ASSERT_TRUE(a.InsertFact(a.graph().base_nodes()[c], time, values[c])
                        .ok());
      }
      for (std::size_t c = cells; c-- > 0;) {
        ASSERT_TRUE(b.InsertFact(b.graph().base_nodes()[c], time, values[c])
                        .ok());
      }
    }
    ASSERT_EQ(a.stats().time_advances, 3u);
    ASSERT_EQ(b.stats().time_advances, 3u);

    // Every node's forecast must be BITWISE identical: the applied batch
    // is a function of (time -> value), not of arrival order.
    for (NodeId node = 0; node < a.graph().num_nodes(); ++node) {
      const auto fa = a.ForecastNode(node, 4);
      const auto fb = b.ForecastNode(node, 4);
      ASSERT_EQ(fa.ok(), fb.ok()) << "node " << node << "\n"
                                  << ReplayHint(base);
      if (!fa.ok()) continue;
      for (std::size_t h = 0; h < 4; ++h) {
        ASSERT_EQ(fa.value()[h], fb.value()[h])
            << "node " << node << " h=" << h << "\n"
            << ReplayHint(base);
      }
    }
  }
}

// ------------------------------------------------- degradation monotonicity

/// Fixture state shared by the degradation properties: a loaded engine
/// with an oracle mirror, reestimate_after_updates = 1 so one advance
/// invalidates every model.
struct DegradationRig {
  WorkloadSpec spec;
  ReferenceOracle oracle{std::vector<OracleDimension>{}};
  std::unique_ptr<F2dbEngine> engine;

  static DegradationRig Build(std::uint64_t seed, std::size_t shape) {
    DegradationRig rig;
    rig.spec = GenerateWorkload(seed, shape, /*inject_refit_failures=*/true);
    rig.spec.reestimate_after_updates = 1;
    rig.oracle = ReferenceOracle(rig.spec.dims);
    for (std::size_t cell = 0; cell < rig.spec.base_history.size(); ++cell) {
      rig.oracle.SetBaseSeries(cell, rig.spec.base_history[cell]);
    }
    auto graph = BuildWorkloadGraph(rig.spec);
    if (!graph.ok()) return rig;
    EngineOptions options;
    options.reestimate_after_updates = 1;
    options.maintenance_threads = 1;
    // Never quarantine: this property queries every address while the
    // refit failpoint is armed, which would otherwise push the shared
    // model nodes over the quarantine threshold and keep them stale even
    // after the failpoint is disarmed (quarantine resets on advance, by
    // design — see the engine fault-injection tests for that behavior).
    options.quarantine_after_refit_failures = 0;
    rig.engine =
        std::make_unique<F2dbEngine>(std::move(graph).value(), options);
    auto config = BuildWorkloadConfiguration(rig.spec, rig.engine->graph());
    if (!config.ok()) {
      rig.engine.reset();
      return rig;
    }
    const ConfigurationEvaluator evaluator(rig.engine->graph(), 1.0);
    if (!rig.engine->LoadConfiguration(config.value(), evaluator).ok()) {
      rig.engine.reset();
      return rig;
    }
    InstallOracleConfiguration(rig.spec, config.value(), rig.engine->graph(),
                               rig.oracle);
    return rig;
  }

  void AdvanceOnce() {
    const std::int64_t time = oracle.frontier();
    for (std::size_t cell = 0; cell < spec.base_history.size(); ++cell) {
      const double value = 40.0 + static_cast<double>(cell);
      ASSERT_EQ(oracle.Insert(cell, time, value), OracleInsert::kAccepted);
      // Map the oracle's cell index to the engine node through the cell
      // ADDRESS — the two sides number base cells independently.
      const auto node = engine->graph().NodeFor(ToNode(oracle.CellAddress(cell)));
      ASSERT_TRUE(node.ok());
      ASSERT_TRUE(engine->InsertFact(node.value(), time, value).ok());
    }
  }
};

TEST(PropertyMetamorphicTest, FailedRefitDegradesToAnnotatedStaleAnswers) {
  const std::uint64_t seed = SubSeed(PropertySeed(), "degrade-stale");
  DegradationRig rig = DegradationRig::Build(seed, 1);
  ASSERT_NE(rig.engine, nullptr);
  failpoint::ScopedDisableAll guard;

  // Fresh configuration: full-fidelity addresses answer kNone and match
  // the oracle exactly.
  for (const OracleAddress& address : rig.oracle.AllAddresses()) {
    if (!rig.oracle.FullFidelity(address)) continue;
    const auto sql = BuildQuerySql(rig.spec, address, 3);
    const auto result = rig.engine->ExecuteSql(sql);
    ASSERT_TRUE(result.ok()) << sql;
    EXPECT_EQ(result.value().degradation, DegradationLevel::kNone);
  }

  // One advance invalidates every model; with the refit failpoint armed
  // the same queries must still answer — annotated kStaleModel, values
  // equal to the never-refit oracle models.
  rig.AdvanceOnce();
  if (HasFatalFailure()) return;
  failpoint::Enable(kFailpointEngineRefit, failpoint::Policy::Always());
  for (const OracleAddress& address : rig.oracle.AllAddresses()) {
    if (!rig.oracle.FullFidelity(address)) continue;
    const auto sql = BuildQuerySql(rig.spec, address, 3);
    const auto result = rig.engine->ExecuteSql(sql);
    ASSERT_TRUE(result.ok()) << sql << "\n" << ReplayHint(PropertySeed());
    EXPECT_EQ(result.value().degradation, DegradationLevel::kStaleModel)
        << sql << ": a silently-degraded answer\n"
        << ReplayHint(PropertySeed());
    const auto expected = rig.oracle.Forecast(address, 3);
    ASSERT_TRUE(expected.has_value());
    for (std::size_t h = 0; h < 3; ++h) {
      EXPECT_TRUE(Close(result.value().rows[h].value, (*expected)[h], 1e-6,
                        1e-8))
          << sql << " h=" << h << "\n"
          << ReplayHint(PropertySeed());
    }
  }

  // Disarming the failpoint lets the lazy refit succeed: the annotation
  // must return to kNone (monotonic recovery).
  failpoint::Disable(kFailpointEngineRefit);
  for (const OracleAddress& address : rig.oracle.AllAddresses()) {
    if (!rig.oracle.FullFidelity(address)) continue;
    const auto sql = BuildQuerySql(rig.spec, address, 3);
    const auto result = rig.engine->ExecuteSql(sql);
    ASSERT_TRUE(result.ok()) << sql;
    EXPECT_EQ(result.value().degradation, DegradationLevel::kNone)
        << sql << "\n"
        << ReplayHint(PropertySeed());
  }
}

TEST(PropertyMetamorphicTest, ModellessChainServesAnnotatedNaiveFallback) {
  // Hand-built ladder bottom: Y's scheme points at Z; Z has no model and
  // its own scheme references itself, so the derived rung cannot help and
  // the engine must fall to the Drift-on-history rung — annotated, with a
  // finite answer.
  const std::uint64_t seed = SubSeed(PropertySeed(), "naive-fallback");
  // Shape 4 (the 2x2x2 cube) has 27 addresses and at most 4 models, so
  // two model-less addresses always exist.
  WorkloadSpec spec = GenerateWorkload(seed, 4, false);
  auto graph = BuildWorkloadGraph(spec);
  ASSERT_TRUE(graph.ok());
  ReferenceOracle oracle(spec.dims);
  const std::vector<OracleAddress> addresses = oracle.AllAddresses();

  // Rewire: the model stays wherever the generator put it; pick Y and Z
  // as the first two model-less addresses.
  std::vector<OracleAddress> model_less;
  for (const OracleAddress& address : addresses) {
    bool has_model = false;
    for (const ModelPlacement& placement : spec.models) {
      has_model = has_model || placement.node == address;
    }
    if (!has_model) model_less.push_back(address);
    if (model_less.size() == 2) break;
  }
  ASSERT_EQ(model_less.size(), 2u);
  const OracleAddress y = model_less[0];
  const OracleAddress z = model_less[1];
  for (SchemeChoice& choice : spec.schemes) {
    if (choice.target == y) choice.sources = {z};
    if (choice.target == z) choice.sources = {z};  // self: derivation dead end
  }

  EngineOptions options;
  options.maintenance_threads = 1;
  F2dbEngine engine(std::move(graph).value(), options);
  auto config = BuildWorkloadConfiguration(spec, engine.graph());
  ASSERT_TRUE(config.ok());
  const ConfigurationEvaluator evaluator(engine.graph(), 1.0);
  ASSERT_TRUE(engine.LoadConfiguration(config.value(), evaluator).ok());

  const auto result = engine.ExecuteSql(BuildQuerySql(spec, y, 2));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().degradation, DegradationLevel::kNaiveFallback)
      << ReplayHint(PropertySeed());
  EXPECT_FALSE(result.value().degradation_reason.empty());
  for (const ForecastRow& row : result.value().rows) {
    EXPECT_TRUE(std::isfinite(row.value));
  }
}

// ------------------------------------------------------- interval envelope

TEST(PropertyMetamorphicTest, IntervalQueriesEnvelopeThePointForecast) {
  const std::uint64_t base = PropertySeed();
  for (std::size_t shape = 0; shape < NumWorkloadShapes(); ++shape) {
    const std::uint64_t seed =
        SubSeed(base, "intervals-" + std::to_string(shape));
    const WorkloadSpec spec = GenerateWorkload(seed, shape, false);
    auto graph = BuildWorkloadGraph(spec);
    ASSERT_TRUE(graph.ok());
    EngineOptions options;
    options.maintenance_threads = 1;
    F2dbEngine engine(std::move(graph).value(), options);
    auto config = BuildWorkloadConfiguration(spec, engine.graph());
    ASSERT_TRUE(config.ok());
    const ConfigurationEvaluator evaluator(engine.graph(), 1.0);
    ASSERT_TRUE(engine.LoadConfiguration(config.value(), evaluator).ok());

    ReferenceOracle oracle(spec.dims);
    for (std::size_t cell = 0; cell < spec.base_history.size(); ++cell) {
      oracle.SetBaseSeries(cell, spec.base_history[cell]);
    }
    for (const OracleAddress& address : oracle.AllAddresses()) {
      const std::string plain_sql = BuildQuerySql(spec, address, 4);
      const std::string interval_sql = plain_sql + " WITH INTERVALS";
      const auto plain = engine.ExecuteSql(plain_sql);
      const auto interval = engine.ExecuteSql(interval_sql);
      if (!plain.ok()) continue;  // interval path may fail extra ways
      if (!interval.ok()) continue;
      ASSERT_EQ(interval.value().rows.size(), plain.value().rows.size());
      for (std::size_t h = 0; h < interval.value().rows.size(); ++h) {
        const ForecastRow& row = interval.value().rows[h];
        ASSERT_TRUE(row.has_interval);
        // Same point forecast as the plain query (same snapshot, no
        // maintenance in between)...
        EXPECT_EQ(row.value, plain.value().rows[h].value)
            << interval_sql << " h=" << h << "\n"
            << ReplayHint(base);
        // ...and a sane envelope around it.
        EXPECT_LE(row.lower, row.value) << interval_sql << " h=" << h;
        EXPECT_GE(row.upper, row.value) << interval_sql << " h=" << h;
      }
    }
  }
}

}  // namespace
}  // namespace f2db::testing
