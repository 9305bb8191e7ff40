// Concurrency stress test for the snapshot-isolated engine core.
//
// N reader threads issue ForecastNode / ExecuteSql / interval queries while
// one writer thread streams full InsertFact batches. Verified invariants:
//   - no torn reads: every forecast a reader computes is exactly the
//     forecast implied by ONE published snapshot (scheme sources, weight,
//     and model states all from the same state);
//   - snapshot frontiers only move forward, and within any snapshot all
//     base series share one frontier (batched advance is atomic);
//   - pinned snapshots give repeatable reads while the writer runs;
//   - the final stats counters add up to exactly the work performed.
//
// The test is also the ThreadSanitizer workload (see the `tsan` CMake
// preset); it deliberately exercises the lazy re-estimation publish race
// via a small re-estimation threshold.

#include <stdlib.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "baselines/advisor_builder.h"
#include "data/datasets.h"
#include "engine/engine.h"
#include "testing/crash.h"
#include "testing/test_cubes.h"

namespace f2db {
namespace {

constexpr int kReaders = 4;
constexpr int kReaderIterations = 120;
constexpr int kWriterPeriods = 24;

/// Recomputes a node's forecast straight from one pinned snapshot: sum of
/// the scheme sources' model forecasts times the snapshot weight. Any model
/// flagged invalid is skipped by the caller (the engine may refit), so this
/// is only called for fully valid schemes.
std::vector<double> SnapshotForecast(const EngineSnapshot& snap, NodeId node,
                                     std::size_t horizon) {
  std::vector<double> combined(horizon, 0.0);
  for (NodeId source : snap.schemes[node]) {
    const ModelView live = snap.models.Find(source);
    const std::vector<double> forecast =
        live.model->Forecast(live.state, horizon);
    for (std::size_t h = 0; h < horizon; ++h) combined[h] += forecast[h];
  }
  const double weight = snap.Weight(snap.schemes[node], node);
  for (double& v : combined) v *= weight;
  return combined;
}

/// True when every scheme source of `node` carries a currently valid model.
bool AllSourcesValid(const EngineSnapshot& snap, NodeId node) {
  for (NodeId source : snap.schemes[node]) {
    const ModelView live = snap.models.Find(source);
    if (!live || live.record->invalid) return false;
  }
  return true;
}

class ConcurrentEngineTest : public ::testing::Test {
 protected:
  ConcurrentEngineTest()
      : evaluator_graph_(testing::MakeFigure2Cube(60, 0.05)),
        evaluator_(evaluator_graph_, 0.8),
        factory_(ModelSpec::TripleExponentialSmoothing(12)) {
    AdvisorOptions advisor_options;
    advisor_options.models_per_iteration = 4;
    advisor_options.stop.max_iterations = 12;
    AdvisorBuilder builder(advisor_options);
    auto outcome = builder.Build(evaluator_, factory_);
    EXPECT_TRUE(outcome.ok());
    config_ = std::move(outcome.value().configuration);
  }

  /// Builds a loaded engine with the given knobs.
  std::unique_ptr<F2dbEngine> MakeEngine(EngineOptions options) {
    auto engine = std::make_unique<F2dbEngine>(
        testing::MakeFigure2Cube(60, 0.05), options);
    EXPECT_TRUE(engine->LoadConfiguration(config_, evaluator_).ok());
    return engine;
  }

  TimeSeriesGraph evaluator_graph_;
  ConfigurationEvaluator evaluator_;
  ModelFactory factory_;
  ModelConfiguration config_;
};

TEST_F(ConcurrentEngineTest, ReadersNeverSeeTornStateUnderInsertLoad) {
  EngineOptions options;
  options.reestimate_after_updates = 4;  // exercise the refit publish race
  auto engine = MakeEngine(options);

  const std::vector<NodeId> bases = engine->graph().base_nodes();
  const NodeId top = engine->graph().top_node();
  const std::size_t num_nodes = engine->graph().num_nodes();

  std::atomic<bool> writer_done{false};
  std::atomic<std::size_t> reader_queries{0};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    for (int period = 0; period < kWriterPeriods; ++period) {
      const std::int64_t t =
          engine->snapshot()->graph->series(bases[0]).end_time();
      for (std::size_t i = 0; i < bases.size(); ++i) {
        const double value = 10.0 + static_cast<double>(period + 1) +
                             static_cast<double>(i);
        if (!engine->InsertFact(bases[i], t, value).ok()) ++failures;
      }
    }
    writer_done = true;
  });

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::int64_t last_frontier = 0;
      for (int i = 0; i < kReaderIterations; ++i) {
        const NodeId node =
            static_cast<NodeId>((r * 31 + i * 7) % num_nodes);

        // Plain query: must succeed and be finite.
        auto forecast = engine->ForecastNode(node, 2);
        if (!forecast.ok()) {
          ++failures;
          continue;
        }
        ++reader_queries;
        for (double v : forecast.value()) {
          if (!std::isfinite(v)) ++failures;
        }

        // Snapshot-consistency: pin a snapshot and check (a) repeatable
        // reads through the engine, (b) the engine result equals the
        // forecast recomputed by hand from that snapshot alone.
        const SnapshotPtr snap = engine->snapshot();
        if (snap->graph->series(bases[0]).end_time() < last_frontier) {
          ++failures;  // published frontiers must be monotone
        }
        last_frontier = snap->graph->series(bases[0]).end_time();
        for (NodeId base : bases) {
          if (snap->graph->series(base).end_time() != last_frontier) {
            ++failures;  // torn advance: bases must share one frontier
          }
        }
        if (AllSourcesValid(*snap, node)) {
          auto pinned = engine->ForecastNode(snap, node, 2);
          if (!pinned.ok()) {
            ++failures;
            continue;
          }
          ++reader_queries;
          const std::vector<double> manual =
              SnapshotForecast(*snap, node, 2);
          for (std::size_t h = 0; h < 2; ++h) {
            if (std::abs(pinned.value()[h] - manual[h]) > 1e-9) ++failures;
          }
        }

        // Occasionally go through the SQL front end as well.
        if (i % 16 == 0) {
          auto result = engine->ExecuteSql(
              "SELECT time, SUM(sales) FROM facts GROUP BY time "
              "AS OF now() + '2'");
          if (result.ok()) {
            ++reader_queries;
          } else {
            ++failures;
          }
        }
      }
    });
  }

  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_TRUE(writer_done.load());
  EXPECT_EQ(failures.load(), 0);

  // Counters add up exactly: every reader query and writer insert counted.
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.queries, reader_queries.load());
  EXPECT_EQ(stats.inserts, bases.size() * kWriterPeriods);
  EXPECT_EQ(stats.time_advances, static_cast<std::size_t>(kWriterPeriods));
  EXPECT_EQ(engine->pending_inserts(), 0u);
  EXPECT_EQ(engine->graph().series(top).end_time(),
            60 + static_cast<std::int64_t>(kWriterPeriods));
}

TEST_F(ConcurrentEngineTest, IntervalQueriesRaceWithParallelMaintenance) {
  EngineOptions options;
  options.reestimate_after_updates = 3;
  options.maintenance_threads = 2;  // writer fans updates out over the pool
  auto engine = MakeEngine(options);

  const std::vector<NodeId> bases = engine->graph().base_nodes();
  const NodeId top = engine->graph().top_node();
  std::atomic<int> failures{0};
  std::atomic<std::size_t> reader_queries{0};

  std::thread writer([&] {
    for (int period = 0; period < kWriterPeriods; ++period) {
      const std::int64_t t =
          engine->snapshot()->graph->series(bases[0]).end_time();
      for (std::size_t i = 0; i < bases.size(); ++i) {
        if (!engine->InsertFact(bases[i], t, 12.0 + double(i)).ok()) {
          ++failures;
        }
      }
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < kReaderIterations; ++i) {
        auto intervals = engine->ForecastNodeWithIntervals(top, 2, 0.9);
        if (!intervals.ok()) {
          ++failures;
          continue;
        }
        ++reader_queries;
        for (const ForecastInterval& interval : intervals.value()) {
          if (!(interval.lower <= interval.point &&
                interval.point <= interval.upper)) {
            ++failures;  // a torn read would scramble the moments
          }
        }
      }
    });
  }

  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine->stats().queries, reader_queries.load());
  EXPECT_EQ(engine->stats().inserts, bases.size() * kWriterPeriods);
}


/// True when `a` and `b` hold the same doubles, bit for bit.
bool SameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(ConcurrentEngineAdvanceTest, BitIdenticalOnOneOrManyMaintenanceThreads) {
  // An advance writes the successor's rows and steps its models in one
  // fan-out over the maintenance pool. However the pool splits that work,
  // the rows (checked against the graph advanced in place), the history
  // sums (old sum plus the period's column) and every model state and
  // record must equal the inline advance's, bit for bit. GenX-1000 gives
  // the fan-out dozens of row ranges; 70 periods on a 60-period history
  // pack the panel on the first advance and regrow it once.
  constexpr std::size_t kHistory = 60;
  constexpr int kPeriods = 70;
  auto generated = MakeGenX(1000, 4, kHistory + kPeriods);
  ASSERT_TRUE(generated.ok()) << generated.status().message();
  const TimeSeriesGraph& full = generated.value().graph;
  TimeSeriesGraph reference = full;
  for (NodeId node : reference.base_nodes()) {
    ASSERT_TRUE(
        reference.SetBaseSeries(node, full.series(node).Head(kHistory)).ok());
  }
  ASSERT_TRUE(reference.BuildAggregates().ok());
  ConfigurationEvaluator evaluator(reference, 0.8);
  ModelFactory factory(ModelSpec::TripleExponentialSmoothing(12));
  AdvisorOptions advisor_options;
  advisor_options.seed = 2013;
  advisor_options.models_per_iteration = 8;
  advisor_options.stop.max_iterations = 8;
  advisor_options.count_models_as_cost = true;
  AdvisorBuilder builder(advisor_options);
  auto outcome = builder.Build(evaluator, factory);
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();

  EngineOptions inline_options;
  inline_options.maintenance_threads = 1;
  inline_options.reestimate_after_updates = 5;
  EngineOptions pool_options = inline_options;
  pool_options.maintenance_threads = 4;
  F2dbEngine inline_engine(reference, inline_options);
  F2dbEngine pool_engine(reference, pool_options);
  for (F2dbEngine* engine : {&inline_engine, &pool_engine}) {
    ASSERT_TRUE(
        engine->LoadConfiguration(outcome.value().configuration, evaluator)
            .ok());
  }
  ASSERT_GT(inline_engine.num_models(), 0u);
  const std::vector<NodeId>& bases = reference.base_nodes();
  const std::size_t num_nodes = reference.num_nodes();
  const SnapshotPtr initial = inline_engine.snapshot();
  std::vector<double> sums(initial->history_sums.begin(),
                           initial->history_sums.end());
  std::vector<double> values(bases.size());
  std::vector<double> column;
  for (int period = 0; period < kPeriods; ++period) {
    const auto t = static_cast<std::int64_t>(kHistory) + period;
    for (std::size_t i = 0; i < bases.size(); ++i) {
      values[i] = full.series(bases[i])[kHistory + period];
      ASSERT_TRUE(inline_engine.InsertFact(bases[i], t, values[i]).ok());
      ASSERT_TRUE(pool_engine.InsertFact(bases[i], t, values[i]).ok());
    }
    ASSERT_TRUE(reference.AdvanceTime(values, &column).ok());
    const SnapshotPtr one = inline_engine.snapshot();
    const SnapshotPtr many = pool_engine.snapshot();
    for (NodeId node = 0; node < num_nodes; ++node) {
      ASSERT_TRUE(SameBits(one->graph->series(node).values(),
                           reference.series(node).values()))
          << "period " << period << " node " << node;
      ASSERT_TRUE(SameBits(many->graph->series(node).values(),
                           reference.series(node).values()))
          << "period " << period << " node " << node;
    }
    for (NodeId node = 0; node < num_nodes; ++node) {
      sums[node] += column[node];
    }
    ASSERT_TRUE(SameBits(sums, {one->history_sums.data(), num_nodes}))
        << "period " << period;
    ASSERT_TRUE(SameBits(sums, {many->history_sums.data(), num_nodes}))
        << "period " << period;
    ASSERT_EQ(one->models.size(), many->models.size());
    for (std::size_t slot = 0; slot < one->models.size(); ++slot) {
      const ModelView a = one->models.At(slot);
      const ModelView b = many->models.At(slot);
      ASSERT_EQ(a.node, b.node);
      ASSERT_TRUE(SameBits(a.state, b.state))
          << "period " << period << " slot " << slot;
      ASSERT_EQ(a.record->updates_since_estimate,
                b.record->updates_since_estimate);
      ASSERT_EQ(a.record->invalid, b.record->invalid);
      ASSERT_EQ(a.record->generation, b.record->generation);
    }
  }
}

TEST_F(ConcurrentEngineTest, PinnedSnapshotsStayBitIdenticalThroughAdvanceAndRetention) {
  // Successive snapshots share their series panel and model parameters:
  // each advance appends in place past the pinned snapshots' lengths (and
  // regrows the panel when a row fills), steps a copy of the flat model
  // states, retention moves the successor's windows forward, and lazy
  // refits install fresh parameters. None of it may change what a pinned
  // snapshot shows: its series and its forecasts stay bit-identical.
  char tmpl[] = "/tmp/f2db_pinned_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  EngineOptions options;
  options.data_dir = tmpl;
  options.retention_window = 16;
  options.maintenance_threads = 2;
  options.disk_probe_interval_seconds = 0.0;
  options.reestimate_after_updates = 4;  // refits install while pinned
  auto opened = F2dbEngine::Open(testing::MakeFigure2Cube(60, 0.05), options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<F2dbEngine> engine = std::move(opened).value();
  ASSERT_TRUE(engine->LoadConfiguration(config_, evaluator_).ok());

  constexpr int kPeriods = 64;
  constexpr int kCompactEvery = 8;
  constexpr std::size_t kHorizon = 3;
  const std::vector<NodeId> bases = engine->graph().base_nodes();
  const std::size_t num_nodes = engine->graph().num_nodes();
  const auto value_at = [](int period, std::size_t base) {
    return 20.0 + 0.25 * static_cast<double>(period) +
           static_cast<double>(base);
  };

  /// Everything a pinned snapshot shows, copied out.
  struct View {
    SnapshotPtr snap;
    std::vector<std::int64_t> starts;
    std::vector<std::vector<double>> series;
    std::vector<std::vector<double>> forecasts;
  };
  const auto capture = [&](SnapshotPtr snap) {
    View view;
    view.snap = std::move(snap);
    for (NodeId node = 0; node < num_nodes; ++node) {
      const TimeSeries& series = view.snap->graph->series(node);
      view.starts.push_back(series.start_time());
      view.series.push_back(series.ToVector());
      auto forecast = engine->ForecastNode(view.snap, node, kHorizon);
      view.forecasts.push_back(forecast.ok() ? forecast.value()
                                             : std::vector<double>{});
    }
    return view;
  };
  const auto unchanged = [&](const View& view) {
    for (NodeId node = 0; node < num_nodes; ++node) {
      const TimeSeries& series = view.snap->graph->series(node);
      if (series.start_time() != view.starts[node] ||
          series.ToVector() != view.series[node]) {
        return false;
      }
      auto forecast = engine->ForecastNode(view.snap, node, kHorizon);
      if (!forecast.ok() || forecast.value() != view.forecasts[node]) {
        return false;
      }
    }
    return true;
  };

  const View first = capture(engine->snapshot());
  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (int period = 0; period < kPeriods; ++period) {
      const std::int64_t t =
          engine->snapshot()->graph->series(bases[0]).end_time();
      for (std::size_t i = 0; i < bases.size(); ++i) {
        if (!engine->InsertFact(bases[i], t, value_at(period, i)).ok()) {
          ++failures;
        }
      }
      if ((period + 1) % kCompactEvery == 0 && !engine->CompactNow().ok()) {
        ++failures;
      }
    }
    writer_done = true;
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      // Each reader also pins snapshots mid-stream and re-checks them
      // while later advances and retention passes land.
      std::vector<View> pinned;
      while (!writer_done.load()) {
        if (!unchanged(first)) ++failures;
        for (const View& view : pinned) {
          if (!unchanged(view)) ++failures;
        }
        if (pinned.size() < 4) pinned.push_back(capture(engine->snapshot()));
        std::this_thread::yield();
      }
      for (const View& view : pinned) {
        if (!unchanged(view)) ++failures;
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(unchanged(first));
  // Retention really ran, and the retained history is exactly what was
  // inserted.
  EXPECT_GT(engine->stats().retention_records_dropped, 0u);
  const SnapshotPtr last = engine->snapshot();
  for (std::size_t i = 0; i < bases.size(); ++i) {
    const TimeSeries& series = last->graph->series(bases[i]);
    ASSERT_EQ(series.end_time(), 60 + kPeriods);
    ASSERT_GT(series.start_time(), 0);
    ASSERT_GE(series.size(), options.retention_window);
    for (std::int64_t t = std::max<std::int64_t>(series.start_time(), 60);
         t < series.end_time(); ++t) {
      ASSERT_EQ(series.AtTime(t), value_at(static_cast<int>(t - 60), i));
    }
  }

  // A refit that starts on a pinned pre-advance snapshot carries that
  // snapshot's generation stamp; after the advance it must be discarded,
  // while the same refit on the current snapshot is installed — and the
  // pinned snapshots still show what they showed.
  const auto advance = [&](int period) {
    const std::int64_t t =
        engine->snapshot()->graph->series(bases[0]).end_time();
    for (std::size_t i = 0; i < bases.size(); ++i) {
      ASSERT_TRUE(engine->InsertFact(bases[i], t, value_at(period, i)).ok());
    }
  };
  for (int period = kPeriods; period < kPeriods + 4; ++period) {
    advance(period);  // four updates without queries invalidate every model
  }
  const NodeId top = engine->graph().top_node();
  const SnapshotPtr stale = engine->snapshot();
  advance(kPeriods + 4);
  const SnapshotPtr current = engine->snapshot();
  ASSERT_NE(current, stale);
  const NodeId source = current->schemes[top].front();
  ASSERT_TRUE(current->models.Find(source).record->invalid);
  const std::size_t reestimates = engine->stats().reestimates;
  const View stale_view = capture(stale);  // refits on the pinned snapshot
  EXPECT_GT(engine->stats().reestimates, reestimates);  // the fits ran...
  EXPECT_EQ(engine->snapshot(), current);  // ...and none was installed
  EXPECT_TRUE(unchanged(stale_view));
  ASSERT_TRUE(engine->ForecastNode(top, kHorizon).ok());
  const SnapshotPtr refitted = engine->snapshot();
  EXPECT_GT(refitted->version, current->version);
  EXPECT_FALSE(refitted->models.Find(source).record->invalid);
  EXPECT_TRUE(current->models.Find(source).record->invalid);
  EXPECT_TRUE(unchanged(stale_view));
  EXPECT_TRUE(unchanged(first));
  engine.reset();
  testing::RemoveDirectoryTree(tmpl);
}

}  // namespace
}  // namespace f2db
