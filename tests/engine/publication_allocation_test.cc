// The publication allocation budget, enforced: a time advance publishes a
// successor snapshot that shares the graph structure, the series buffers
// and the untouched tables with its predecessor. Its heap allocations must
// therefore scale with the number of models (each is cloned and
// re-published), not with the number of graph nodes. Global operator
// new/new[] overrides count every allocation while armed, around the
// closing insert of each period only.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "baselines/advisor_builder.h"
#include "data/datasets.h"
#include "engine/engine.h"

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

TEST(PublicationAllocationTest, ChainedPublicationAllocatesPerModelNotPerNode) {
  constexpr std::size_t kHistory = 48;
  constexpr std::size_t kAdvances = 256;
  auto generated = MakeGenX(1000, 4, kHistory + kAdvances);
  ASSERT_TRUE(generated.ok()) << generated.status().message();
  const TimeSeriesGraph& full = generated.value().graph;

  // The engine starts on the first kHistory observations, configured by
  // the advisor on that same prefix. Each advance still re-publishes every
  // model (clone, seasonal state, entry, control block: four allocations
  // each), so the advisor is capped at 16 iterations, which leaves 43
  // models on 1,034 nodes: a per-node cost of even a quarter allocation
  // would break the bound.
  TimeSeriesGraph prefix = full;
  for (NodeId node : prefix.base_nodes()) {
    ASSERT_TRUE(
        prefix.SetBaseSeries(node, full.series(node).Head(kHistory)).ok());
  }
  ASSERT_TRUE(prefix.BuildAggregates().ok());
  ConfigurationEvaluator evaluator(prefix, 0.8);
  ModelFactory factory(ModelSpec::TripleExponentialSmoothing(12));
  AdvisorOptions advisor_options;
  advisor_options.seed = 2013;
  advisor_options.num_threads = 2;
  advisor_options.models_per_iteration = 8;
  advisor_options.stop.max_iterations = 16;
  advisor_options.count_models_as_cost = true;
  AdvisorBuilder builder(advisor_options);
  auto outcome = builder.Build(evaluator, factory);
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  EngineOptions options;
  options.maintenance_threads = 2;
  F2dbEngine engine(prefix, options);
  ASSERT_TRUE(
      engine.LoadConfiguration(outcome.value().configuration, evaluator).ok());

  const std::vector<NodeId>& bases = full.base_nodes();
  const std::size_t num_nodes = full.num_nodes();
  const std::size_t num_models = engine.num_models();
  ASSERT_GT(num_models, 0u);
  std::size_t total = 0;
  for (std::size_t p = 0; p < kAdvances; ++p) {
    const auto t = static_cast<std::int64_t>(kHistory + p);
    for (std::size_t i = 0; i + 1 < bases.size(); ++i) {
      ASSERT_TRUE(
          engine.InsertFact(bases[i], t, full.series(bases[i])[kHistory + p])
              .ok());
    }
    // The closing insert completes the period and publishes.
    const SnapshotPtr before = engine.snapshot();
    g_allocations.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_relaxed);
    const Status closed = engine.InsertFact(
        bases.back(), t, full.series(bases.back())[kHistory + p]);
    g_armed.store(false, std::memory_order_relaxed);
    ASSERT_TRUE(closed.ok()) << closed.message();
    ASSERT_GT(engine.snapshot()->version, before->version);
    total += g_allocations.load(std::memory_order_relaxed);
  }

  // Every advance really appended: the published series equal the source.
  const SnapshotPtr last = engine.snapshot();
  for (NodeId node = 0; node < num_nodes; ++node) {
    const TimeSeries& series = last->graph->series(node);
    ASSERT_EQ(series.size(), kHistory + kAdvances);
    for (std::size_t i = 0; i < series.size(); ++i) {
      ASSERT_EQ(series[i], full.series(node)[i]) << "node " << node;
    }
  }

  const double mean = static_cast<double>(total) / kAdvances;
  RecordProperty("mean_allocations_per_advance", std::to_string(mean));
  EXPECT_LT(mean, static_cast<double>(num_nodes) / 4.0)
      << num_models << " models, " << num_nodes << " nodes";
}

}  // namespace
}  // namespace f2db
