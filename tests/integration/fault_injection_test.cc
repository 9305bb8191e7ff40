// Fault-injection integration suite: arms every registered failpoint —
// individually and in pairs — against a loaded engine and asserts the
// graceful-degradation contract (DESIGN.md, "Failure semantics and the
// degradation ladder"):
//   - a full query sweep over every aggregation level still returns an
//     answer for every node (no surfaced kInternal),
//   - degraded answers carry a non-kNone DegradationLevel and a reason,
//   - the EngineStats degradation counters equal the annotated row count,
//   - repeated refit failures quarantine a node; the next data advance
//     lifts the quarantine and the node recovers to its primary model.
// The registry holds the io.* disk-fault sites too; those are reached by
// the durable-engine pass of the single-site sweep.

#include <stdlib.h>

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "baselines/advisor_builder.h"
#include "common/failpoint.h"
#include "engine/engine.h"
#include "math/optimizer.h"
#include "storage/fsio.h"
#include "testing/crash.h"
#include "testing/test_cubes.h"

namespace f2db {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest()
      : evaluator_graph_(testing::MakeFigure2Cube(60, 0.05)),
        evaluator_(evaluator_graph_, 0.8),
        factory_(ModelSpec::TripleExponentialSmoothing(12)) {
    AdvisorOptions options;
    options.models_per_iteration = 4;
    options.stop.max_iterations = 12;
    AdvisorBuilder builder(options);
    auto outcome = builder.Build(evaluator_, factory_);
    EXPECT_TRUE(outcome.ok());
    config_ = std::move(outcome.value().configuration);
  }

  void SetUp() override { failpoint::DisableAll(); }
  void TearDown() override { failpoint::DisableAll(); }

  /// A loaded engine; models invalidate after two incremental updates.
  std::unique_ptr<F2dbEngine> MakeEngine(EngineOptions options = {}) {
    if (options.reestimate_after_updates == 0) {
      options.reestimate_after_updates = 2;
    }
    auto engine = std::make_unique<F2dbEngine>(
        testing::MakeFigure2Cube(60, 0.05), options);
    EXPECT_TRUE(engine->LoadConfiguration(config_, evaluator_).ok());
    return engine;
  }

  /// The same loaded engine over a fresh data directory: every insert and
  /// lazy refit also goes through the WAL.
  std::unique_ptr<F2dbEngine> MakeDurableEngine(const std::string& dir) {
    EngineOptions options;
    options.reestimate_after_updates = 2;
    options.data_dir = dir;
    options.disk_probe_interval_seconds = 0.0;
    auto engine =
        F2dbEngine::Open(testing::MakeFigure2Cube(60, 0.05), options);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    if (!engine.ok()) return nullptr;
    EXPECT_TRUE(engine.value()->LoadConfiguration(config_, evaluator_).ok());
    return std::move(engine).value();
  }

  /// Advances `periods` full periods; inserts may fail when the insert
  /// failpoint is armed, which callers opt into by ignoring the status.
  static void Advance(F2dbEngine& engine, int periods,
                      bool expect_ok = true) {
    const std::vector<NodeId> bases = engine.graph().base_nodes();
    for (int period = 0; period < periods; ++period) {
      const std::int64_t t =
          engine.snapshot()->graph->series(bases[0]).end_time();
      for (std::size_t i = 0; i < bases.size(); ++i) {
        const Status status =
            engine.InsertFact(bases[i], t, 10.0 + static_cast<double>(i));
        if (expect_ok) {
          ASSERT_TRUE(status.ok()) << status.message();
        }
      }
    }
  }

  /// Queries every node of the cube (all aggregation levels). Asserts that
  /// every node produces an answer and that no error — if any slipped
  /// through — is a kInternal.
  static void SweepAllNodes(const F2dbEngine& engine) {
    for (NodeId node = 0; node < engine.graph().num_nodes(); ++node) {
      auto forecast = engine.ForecastNode(node, 2);
      ASSERT_TRUE(forecast.ok())
          << "node " << node << ": " << forecast.status().message();
      for (double v : forecast.value()) {
        EXPECT_TRUE(std::isfinite(v)) << "node " << node;
      }
    }
  }

  TimeSeriesGraph evaluator_graph_;
  ConfigurationEvaluator evaluator_;
  ModelFactory factory_;
  ModelConfiguration config_;
};

// ------------------------------------------------ exhaustive site coverage

TEST_F(FaultInjectionTest, EveryRegisteredFailpointIndividually) {
  const std::vector<std::string> sites = failpoint::RegisteredSites();
  ASSERT_GE(sites.size(), 12u);  // 6 logical sites + 6 io.* sites
  for (const std::string& site : sites) {
    SCOPED_TRACE(site);
    auto engine = MakeEngine();
    Advance(*engine, 3);  // invalidate every model before arming
    failpoint::Enable(site, failpoint::Policy::Always());
    SweepAllNodes(*engine);
    failpoint::DisableAll();
  }
  // The io.* sites sit under durable writes only, so sweep again on a
  // durable engine: there a lazy refit's model-install record reaches
  // io.wal_append.
  for (const std::string& site : sites) {
    SCOPED_TRACE("durable " + site);
    char tmpl[] = "/tmp/f2db_faults_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    {
      auto engine = MakeDurableEngine(tmpl);
      ASSERT_NE(engine, nullptr);
      Advance(*engine, 3);
      failpoint::Enable(site, failpoint::Policy::Always());
      SweepAllNodes(*engine);
      if (site == storage::kIoSiteWalAppend) {
        EXPECT_GT(failpoint::Evaluations(site), 0u);
      }
      failpoint::DisableAll();
    }
    testing::RemoveDirectoryTree(tmpl);
  }
}

TEST_F(FaultInjectionTest, EveryFailpointPairStillAnswersEverywhere) {
  const std::vector<std::string> sites = failpoint::RegisteredSites();
  for (std::size_t a = 0; a < sites.size(); ++a) {
    for (std::size_t b = a + 1; b < sites.size(); ++b) {
      SCOPED_TRACE(sites[a] + " + " + sites[b]);
      auto engine = MakeEngine();
      Advance(*engine, 3);
      failpoint::Enable(sites[a], failpoint::Policy::Always());
      failpoint::Enable(sites[b], failpoint::Policy::Always());
      SweepAllNodes(*engine);
      failpoint::DisableAll();
    }
  }
}

// --------------------------------------------------- degradation semantics

TEST_F(FaultInjectionTest, RefitFailureServesStaleModelWithAnnotation) {
  auto engine = MakeEngine();
  Advance(*engine, 3);
  failpoint::Enable(kFailpointEngineRefit, failpoint::Policy::Always());

  auto result = engine->ExecuteSql(
      "SELECT time, SUM(sales) FROM facts GROUP BY time AS OF now() + '3'");
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result.value().degradation, DegradationLevel::kStaleModel);
  EXPECT_FALSE(result.value().degradation_reason.empty());
  ASSERT_EQ(result.value().rows.size(), 3u);
  for (const ForecastRow& row : result.value().rows) {
    EXPECT_EQ(row.degradation, DegradationLevel::kStaleModel);
  }
  EXPECT_GE(engine->stats().refit_failures, 1u);
  EXPECT_GE(engine->stats().degraded_rows_stale, 3u);
}

TEST_F(FaultInjectionTest, DegradationCountersEqualAnnotatedRowCount) {
  auto engine = MakeEngine();
  Advance(*engine, 3);
  failpoint::Enable(kFailpointEngineRefit, failpoint::Policy::Always());

  std::size_t annotated = 0;
  for (int q = 0; q < 5; ++q) {
    auto result = engine->ExecuteSql(
        "SELECT time, SUM(sales) FROM facts GROUP BY time AS OF now() + '4'");
    ASSERT_TRUE(result.ok());
    for (const ForecastRow& row : result.value().rows) {
      if (row.degradation != DegradationLevel::kNone) ++annotated;
    }
  }
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.degraded_rows_stale + stats.degraded_rows_derived +
                stats.degraded_rows_naive,
            annotated);
}

TEST_F(FaultInjectionTest, IntervalQueriesDegradeWithFiniteBounds) {
  auto engine = MakeEngine();
  Advance(*engine, 3);
  failpoint::Enable(kFailpointEngineRefit, failpoint::Policy::Always());

  auto intervals =
      engine->ForecastNodeWithIntervals(engine->graph().top_node(), 3, 0.95);
  ASSERT_TRUE(intervals.ok()) << intervals.status().message();
  for (const ForecastInterval& interval : intervals.value()) {
    EXPECT_TRUE(std::isfinite(interval.lower));
    EXPECT_TRUE(std::isfinite(interval.upper));
    EXPECT_LE(interval.lower, interval.upper);
  }
  EXPECT_GE(engine->stats().degraded_rows_stale, 3u);
}

TEST_F(FaultInjectionTest, OptimizerNonConvergenceDegradesRefits) {
  auto engine = MakeEngine();
  Advance(*engine, 3);
  // The failpoint sits inside NelderMead, so the injected failure reaches
  // the engine as a genuine kUnavailable from the ETS fitter.
  failpoint::Enable(kFailpointOptimizerConverge, failpoint::Policy::Always());

  SweepAllNodes(*engine);
  EXPECT_GE(engine->stats().refit_failures, 1u);
  EXPECT_GT(engine->stats().degraded_rows_stale, 0u);
  EXPECT_EQ(engine->stats().reestimates, 0u);
}

// ------------------------------------------------------- retry / quarantine

TEST_F(FaultInjectionTest, RepeatedRefitFailuresQuarantineTheNode) {
  EngineOptions options;
  options.quarantine_after_refit_failures = 2;
  auto engine = MakeEngine(options);
  Advance(*engine, 3);
  failpoint::Enable(kFailpointEngineRefit, failpoint::Policy::Always());

  for (int q = 0; q < 4; ++q) {
    ASSERT_TRUE(engine->ForecastNode(engine->graph().top_node(), 1).ok());
  }
  EXPECT_GE(engine->stats().quarantines, 1u);

  // Quarantined entries stop retrying: the failure count freezes.
  const std::size_t failures_at_quarantine = engine->stats().refit_failures;
  for (int q = 0; q < 3; ++q) {
    ASSERT_TRUE(engine->ForecastNode(engine->graph().top_node(), 1).ok());
  }
  EXPECT_EQ(engine->stats().refit_failures, failures_at_quarantine);

  // The published entry carries the quarantine flag.
  bool saw_quarantined = false;
  for (const ModelView live : engine->snapshot()->models) {
    if (live.record->quarantined) {
      saw_quarantined = true;
      EXPECT_GE(live.record->refit_failures, 2u);
    }
  }
  EXPECT_TRUE(saw_quarantined);
}

TEST_F(FaultInjectionTest, QuarantineLiftsOnNextDataAdvance) {
  EngineOptions options;
  options.quarantine_after_refit_failures = 1;
  auto engine = MakeEngine(options);
  Advance(*engine, 3);
  failpoint::Enable(kFailpointEngineRefit, failpoint::Policy::Always());
  for (int q = 0; q < 2; ++q) {
    ASSERT_TRUE(engine->ForecastNode(engine->graph().top_node(), 1).ok());
  }
  ASSERT_GE(engine->stats().quarantines, 1u);

  // Clear the fault and advance one period: the quarantine must lift and
  // the next query must recover to a freshly re-estimated primary model.
  failpoint::DisableAll();
  Advance(*engine, 1);
  for (const ModelView live : engine->snapshot()->models) {
    EXPECT_FALSE(live.record->quarantined);
    EXPECT_EQ(live.record->refit_failures, 0u);
  }
  const std::size_t reestimates_before = engine->stats().reestimates;
  auto result = engine->ExecuteSql(
      "SELECT time, SUM(sales) FROM facts GROUP BY time AS OF now() + '2'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().degradation, DegradationLevel::kNone);
  EXPECT_GT(engine->stats().reestimates, reestimates_before);
}

TEST_F(FaultInjectionTest, BackoffSkipsRetryInsideTheWindow) {
  EngineOptions options;
  options.quarantine_after_refit_failures = 0;  // never quarantine
  options.refit_retry_backoff_seconds = 3600.0;  // far beyond test runtime
  auto engine = MakeEngine(options);
  Advance(*engine, 3);
  failpoint::Enable(kFailpointEngineRefit, failpoint::Policy::Always());

  ASSERT_TRUE(engine->ForecastNode(engine->graph().top_node(), 1).ok());
  const std::size_t after_first = engine->stats().refit_failures;
  EXPECT_GE(after_first, 1u);
  // Every further query lands inside the backoff window: stale answers,
  // no new attempts.
  for (int q = 0; q < 3; ++q) {
    auto result = engine->ExecuteSql(
        "SELECT time, SUM(sales) FROM facts GROUP BY time AS OF now() + '1'");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().degradation, DegradationLevel::kStaleModel);
  }
  EXPECT_EQ(engine->stats().refit_failures, after_first);
}

// ------------------------------------------- maintenance / ingestion faults

TEST_F(FaultInjectionTest, InsertFailpointSurfacesUnavailable) {
  auto engine = MakeEngine();
  const NodeId base = engine->graph().base_nodes()[0];
  const std::int64_t t = engine->graph().series(base).end_time();

  failpoint::Enable(kFailpointEngineInsert, failpoint::Policy::Always());
  const Status injected = engine->InsertFact(base, t, 1.0);
  EXPECT_EQ(injected.code(), StatusCode::kUnavailable);
  EXPECT_EQ(engine->pending_inserts(), 0u);

  failpoint::DisableAll();
  EXPECT_TRUE(engine->InsertFact(base, t, 1.0).ok());
}

TEST_F(FaultInjectionTest, CatalogDecodeFailureIsTransactional) {
  auto engine = MakeEngine();
  auto catalog = engine->ExportCatalog();
  ASSERT_TRUE(catalog.ok());
  const std::size_t models_before = engine->num_models();

  failpoint::Enable(kFailpointCatalogDecode, failpoint::Policy::Always());
  const Status load = engine->LoadCatalog(catalog.value());
  EXPECT_EQ(load.code(), StatusCode::kUnavailable);
  // The previous state stayed published: same models, queries still answer.
  EXPECT_EQ(engine->num_models(), models_before);
  SweepAllNodes(*engine);

  failpoint::DisableAll();
  EXPECT_TRUE(engine->LoadCatalog(catalog.value()).ok());
}

TEST_F(FaultInjectionTest, NonFiniteInsertsAreRejected) {
  auto engine = MakeEngine();
  const NodeId base = engine->graph().base_nodes()[0];
  const std::int64_t t = engine->graph().series(base).end_time();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();

  EXPECT_EQ(engine->InsertFact(base, t, kNan).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->InsertFact(base, t, -kInf).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->pending_inserts(), 0u);
  EXPECT_TRUE(engine->InsertFact(base, t, 1.0).ok());
}

// ----------------------------------------------- concurrency under faults

TEST_F(FaultInjectionTest, ConcurrentQueriesSurviveProbabilisticRefitFaults) {
  EngineOptions options;
  options.reestimate_after_updates = 2;
  options.quarantine_after_refit_failures = 3;
  auto engine = MakeEngine(options);
  // Half of all refit attempts fail, deterministically seeded; readers race
  // with the writer and with each other's refit/failure publications.
  failpoint::Enable(kFailpointEngineRefit,
                    failpoint::Policy::WithProbability(0.5, /*seed=*/7));

  const std::vector<NodeId> bases = engine->graph().base_nodes();
  const std::size_t num_nodes = engine->graph().num_nodes();
  std::atomic<int> bad_status{0};

  std::thread writer([&] {
    for (int period = 0; period < 12; ++period) {
      const std::int64_t t =
          engine->snapshot()->graph->series(bases[0]).end_time();
      for (std::size_t i = 0; i < bases.size(); ++i) {
        if (!engine->InsertFact(bases[i], t, 10.0 + static_cast<double>(i))
                 .ok()) {
          ++bad_status;
        }
      }
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < 80; ++i) {
        const NodeId node = static_cast<NodeId>((r * 31 + i) % num_nodes);
        auto forecast = engine->ForecastNode(node, 2);
        if (!forecast.ok()) ++bad_status;
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();

  // The race decides how many refits the readers attempt, possibly none
  // (they can finish before the second advance invalidates a model). A
  // sweep over every node after the joins attempts each model that is
  // still invalid; a model that is not was refit, or failed, after its
  // last invalidation. Either way the failpoint is evaluated at least
  // once, and seed 7's first draw fires.
  for (NodeId node = 0; node < num_nodes; ++node) {
    if (!engine->ForecastNode(node, 2).ok()) ++bad_status;
  }

  EXPECT_EQ(bad_status.load(), 0);
  // The injected failures were recorded through the copy-on-write path.
  EXPECT_GT(failpoint::Triggers(kFailpointEngineRefit), 0u);
}

}  // namespace
}  // namespace f2db
