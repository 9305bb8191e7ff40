// Micro-benchmarks (google-benchmark) for the engine's hot paths: query
// parsing, node resolution, scheme-based forecasting, incremental model
// updates, and graph time advance. These complement the figure benches
// with statistically robust per-operation latencies.

#include <benchmark/benchmark.h>

#include <cmath>
#include <string>

#include "baselines/advisor_builder.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "engine/engine.h"
#include "ts/exponential_smoothing.h"

namespace f2db::bench {
namespace {

/// Engine loaded with an advisor configuration over a Gen1000 cube; built
/// once and shared across benchmarks.
F2dbEngine& SharedEngine() {
  static F2dbEngine* engine = [] {
    auto data = MakeGenX(1000, 4, 48);
    ConfigurationEvaluator evaluator(data.value().graph, 0.8);
    ModelFactory factory(ModelSpec::TripleExponentialSmoothing(12));
    AdvisorBuilder advisor(BenchAdvisorOptions());
    auto built = advisor.Build(evaluator, factory);
    auto engine_data = MakeGenX(1000, 4, 48);
    auto* e = new F2dbEngine(std::move(engine_data.value().graph));
    const Status loaded =
        e->LoadConfiguration(built.value().configuration, evaluator);
    (void)loaded;
    return e;
  }();
  return *engine;
}

void BM_ParseForecastQuery(benchmark::State& state) {
  const std::string sql =
      "SELECT time, SUM(sales) FROM facts WHERE level1 = 'L1_3' GROUP BY "
      "time AS OF now() + '5'";
  for (auto _ : state) {
    auto query = ParseForecastQuery(sql);
    benchmark::DoNotOptimize(query);
  }
}
BENCHMARK(BM_ParseForecastQuery);

/// Resolves a base (level-0) member: the arg is its index among the
/// cube's 1,000 level-0 members, swept over the first, middle and last.
void BM_ResolveNode(benchmark::State& state) {
  F2dbEngine& engine = SharedEngine();
  const std::vector<DimensionFilter> filters{
      {"level0", "L0_" + std::to_string(state.range(0))}};
  for (auto _ : state) {
    auto node = engine.ResolveNode(filters);
    benchmark::DoNotOptimize(node);
  }
}
BENCHMARK(BM_ResolveNode)->Arg(0)->Arg(500)->Arg(999);

void BM_ForecastQuery(benchmark::State& state) {
  F2dbEngine& engine = SharedEngine();
  Rng rng(5);
  const std::size_t n = engine.graph().num_nodes();
  for (auto _ : state) {
    const NodeId node = static_cast<NodeId>(
        rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
    auto forecast = engine.ForecastNode(node, 1);
    benchmark::DoNotOptimize(forecast);
  }
}
BENCHMARK(BM_ForecastQuery);

void BM_ForecastQueryHorizon(benchmark::State& state) {
  F2dbEngine& engine = SharedEngine();
  const NodeId top = engine.graph().top_node();
  for (auto _ : state) {
    auto forecast = engine.ForecastNode(top, static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(forecast);
  }
}
BENCHMARK(BM_ForecastQueryHorizon)->Arg(1)->Arg(12)->Arg(96);

void BM_ModelIncrementalUpdate(benchmark::State& state) {
  auto model = ExponentialSmoothingModel::HoltWintersAdditive(12);
  std::vector<double> history(120);
  for (std::size_t i = 0; i < history.size(); ++i) {
    history[i] = 100.0 + 10.0 * std::sin(static_cast<double>(i) / 12.0);
  }
  const Status fitted = model->Fit(TimeSeries(history));
  (void)fitted;
  double value = 100.0;
  for (auto _ : state) {
    model->Update(value);
    value += 0.1;
  }
}
BENCHMARK(BM_ModelIncrementalUpdate);

void BM_GraphAdvanceTime(benchmark::State& state) {
  auto data = MakeGenX(static_cast<std::size_t>(state.range(0)), 4, 48);
  TimeSeriesGraph graph = std::move(data.value().graph);
  const std::vector<double> values(graph.num_base_nodes(), 1.0);
  std::vector<double> column;
  for (auto _ : state) {
    const Status advanced = graph.AdvanceTime(values, &column);
    benchmark::DoNotOptimize(advanced);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(graph.num_nodes()));
}
BENCHMARK(BM_GraphAdvanceTime)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace f2db::bench

BENCHMARK_MAIN();
