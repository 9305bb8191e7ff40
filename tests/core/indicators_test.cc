#include "core/indicators.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "testing/test_cubes.h"

namespace f2db {
namespace {

TEST(Indicators, SelfIndicatorIsZero) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40, 1.0);
  ConfigurationEvaluator evaluator(graph, 0.8);
  IndicatorComputer computer(evaluator, IndicatorOptions{});
  EXPECT_DOUBLE_EQ(computer.Indicate(0, 0), 0.0);
}

TEST(Indicators, LowForDerivableHighForNot) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40, 0.0);
  ConfigurationEvaluator evaluator(graph, 0.8);
  IndicatorComputer computer(evaluator, IndicatorOptions{});
  // Proportional series: derivation is near perfect.
  EXPECT_LT(computer.Indicate(graph.top_node(), graph.base_nodes()[0]), 0.05);
}

TEST(Indicators, AblationWeightsRespected) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40, 2.0);
  ConfigurationEvaluator evaluator(graph, 0.8);
  IndicatorOptions history_only;
  history_only.similarity_weight = 0.0;
  IndicatorOptions similarity_only;
  similarity_only.historical_weight = 0.0;
  similarity_only.similarity_weight = 1.0;
  IndicatorComputer hist(evaluator, history_only);
  IndicatorComputer sim(evaluator, similarity_only);
  IndicatorComputer both(evaluator, IndicatorOptions{});

  const NodeId s = graph.top_node();
  const NodeId t = graph.base_nodes()[1];
  EXPECT_NEAR(both.Indicate(s, t),
              hist.Indicate(s, t) + 0.5 * sim.Indicate(s, t), 1e-12);
}

TEST(Indicators, LocalIncludesSelfAtZero) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40, 1.0);
  ConfigurationEvaluator evaluator(graph, 0.8);
  IndicatorComputer computer(evaluator, IndicatorOptions{});
  const LocalIndicator local = computer.ComputeLocal(graph.top_node(), 3);
  ASSERT_EQ(local.entries.size(), 4u);  // self + 3 nearest
  bool found_self = false;
  for (const auto& [target, value] : local.entries) {
    if (target == graph.top_node()) {
      found_self = true;
      EXPECT_DOUBLE_EQ(value, 0.0);
    }
  }
  EXPECT_TRUE(found_self);
}

TEST(Indicators, LocalSizeClampedToGraph) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40, 1.0);
  ConfigurationEvaluator evaluator(graph, 0.8);
  IndicatorComputer computer(evaluator, IndicatorOptions{});
  const LocalIndicator local = computer.ComputeLocal(0, 1000);
  EXPECT_EQ(local.entries.size(), graph.num_nodes());
}

TEST(GlobalIndicator, DefaultsToUncovered) {
  GlobalIndicator global(4);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(global.value(static_cast<NodeId>(i)),
                     kUncoveredIndicator);
  }
  EXPECT_DOUBLE_EQ(global.Mean(), kUncoveredIndicator);
  EXPECT_DOUBLE_EQ(global.StdDev(), 0.0);
}

TEST(GlobalIndicator, MergeTakesElementwiseMin) {
  GlobalIndicator global(3);
  LocalIndicator a;
  a.source = 0;
  a.entries = {{0, 0.0}, {1, 0.5}};
  global.Merge(a);
  LocalIndicator b;
  b.source = 1;
  b.entries = {{1, 0.2}, {2, 0.9}};
  global.Merge(b);
  EXPECT_DOUBLE_EQ(global.value(0), 0.0);
  EXPECT_DOUBLE_EQ(global.value(1), 0.2);
  EXPECT_DOUBLE_EQ(global.value(2), 0.9);
}

TEST(GlobalIndicator, RebuildResetsFirst) {
  GlobalIndicator global(2);
  LocalIndicator a;
  a.source = 0;
  a.entries = {{0, 0.1}, {1, 0.1}};
  global.Merge(a);
  LocalIndicator b;
  b.source = 1;
  b.entries = {{1, 0.3}};
  global.Rebuild({&b});
  EXPECT_DOUBLE_EQ(global.value(0), kUncoveredIndicator);  // a gone
  EXPECT_DOUBLE_EQ(global.value(1), 0.3);
}

TEST(GlobalIndicator, MeanAndStdDev) {
  GlobalIndicator global(2);
  LocalIndicator a;
  a.source = 0;
  a.entries = {{0, 0.0}, {1, 1.0}};
  global.Merge(a);
  EXPECT_DOUBLE_EQ(global.Mean(), 0.5);
  EXPECT_DOUBLE_EQ(global.StdDev(), 0.5);
}

// Random Merge/Rebuild sequences over locals with tied values and
// uncovered entries: after every step the kept (minimum, second minimum)
// equals a brute force over the locals merged so far, and the owner is the
// local holding the minimum wherever that is unique.
TEST(GlobalIndicator, SecondMinimumMatchesBruteForce) {
  constexpr std::size_t kNodes = 24;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    // One local per source; values come from a few levels so ties are
    // common, and about a third of the targets stay uncovered.
    std::vector<LocalIndicator> locals(kNodes);
    for (NodeId source = 0; source < kNodes; ++source) {
      locals[source].source = source;
      locals[source].entries.emplace_back(source, 0.0);
      for (NodeId target = 0; target < kNodes; ++target) {
        if (target == source || rng.UniformInt(0, 2) == 0) continue;
        locals[source].entries.emplace_back(
            target, 0.25 * static_cast<double>(rng.UniformInt(0, 8)));
      }
      std::sort(locals[source].entries.begin(), locals[source].entries.end());
    }

    GlobalIndicator global(kNodes);
    std::vector<const LocalIndicator*> merged;
    for (int step = 0; step < 40; ++step) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step);
      if (rng.UniformInt(0, 7) == 0) {
        // Rebuild from a random subset of the merged locals.
        std::vector<const LocalIndicator*> kept;
        for (const LocalIndicator* local : merged) {
          if (rng.UniformInt(0, 1) == 0) kept.push_back(local);
        }
        merged = kept;
        global.Rebuild(merged);
      } else {
        const LocalIndicator* next =
            &locals[static_cast<std::size_t>(rng.UniformInt(0, kNodes - 1))];
        if (std::find(merged.begin(), merged.end(), next) != merged.end()) {
          continue;  // a source is merged at most once
        }
        merged.push_back(next);
        global.Merge(*next);
      }
      for (NodeId t = 0; t < kNodes; ++t) {
        // The multiset starts with two uncovered defaults.
        std::vector<double> values{kUncoveredIndicator, kUncoveredIndicator};
        for (const LocalIndicator* local : merged) {
          for (const auto& [target, value] : local->entries) {
            if (target == t) values.push_back(value);
          }
        }
        std::sort(values.begin(), values.end());
        EXPECT_EQ(global.value(t), values[0]) << "target " << t;
        EXPECT_EQ(global.second(t), values[1]) << "target " << t;
        // The sources holding the minimum (exactly one where it is below
        // the second minimum); the owner is one of them.
        std::vector<NodeId> holders;
        for (const LocalIndicator* local : merged) {
          for (const auto& [target, value] : local->entries) {
            if (target == t && value == values[0]) {
              holders.push_back(local->source);
            }
          }
        }
        if (values[0] == kUncoveredIndicator) {
          EXPECT_EQ(global.owner(t), GlobalIndicator::kNoOwner);
        } else {
          EXPECT_NE(std::find(holders.begin(), holders.end(), global.owner(t)),
                    holders.end())
              << "target " << t;
        }
      }
    }
  }
}

TEST(Indicators, UncoveredDominatesAnyComputedValue) {
  // historical <= 1 and similarity term <= similarity_weight, so any
  // computed indicator stays below the uncovered default.
  const TimeSeriesGraph graph = testing::MakeRegionCube(40, 5.0);
  ConfigurationEvaluator evaluator(graph, 0.8);
  IndicatorComputer computer(evaluator, IndicatorOptions{});
  for (NodeId s = 0; s < graph.num_nodes(); ++s) {
    for (NodeId t = 0; t < graph.num_nodes(); ++t) {
      EXPECT_LT(computer.Indicate(s, t), kUncoveredIndicator);
    }
  }
}

// The fused Indicate kernel equals its two evaluator components combined,
// bit for bit, over every (source, target) pair: zero-valued source steps
// (skipped weights), a zero history sum, fewer than two weights, sign
// changes, and the ablation weights.
TEST(Indicators, FusedKernelMatchesComponentsBitForBit) {
  const IndicatorOptions weightings[] = {
      {}, {0.0, 1.0}, {1.0, 0.0}, {0.7, 0.3}};
  for (const TimeSeriesGraph& graph :
       {testing::MakeZeroStepCube(), testing::MakeFigure2Cube(60),
        testing::MakeRegionCube(40, 2.0)}) {
    ConfigurationEvaluator evaluator(graph, 0.8);
    for (const IndicatorOptions& options : weightings) {
      IndicatorComputer computer(evaluator, options);
      for (NodeId s = 0; s < graph.num_nodes(); ++s) {
        for (NodeId t = 0; t < graph.num_nodes(); ++t) {
          const double expected =
              s == t ? 0.0
                     : options.historical_weight *
                               evaluator.HistoricalError(s, t) +
                           options.similarity_weight *
                               std::min(1.0, evaluator.WeightInstability(s, t));
          EXPECT_EQ(computer.Indicate(s, t), expected)
              << "source " << s << " target " << t;
        }
      }
    }
  }
}

// ComputeLocalInto computes its targets two at a time, one per SIMD lane;
// every entry must equal the scalar Indicate bit for bit. The cubes hit the
// kernel's edge cases (zero SMAPE denominators, skipped weight steps, fewer
// than two weights, sign changes), the local sizes give odd and even
// target counts, and cube lengths 1, 2 and 3 give training lengths 0, 1
// and 2.
TEST(Indicators, PairedKernelMatchesScalarBitForBit) {
  const IndicatorOptions weightings[] = {
      {}, {0.0, 1.0}, {1.0, 0.0}, {0.7, 0.3}};
  for (const std::size_t length :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{60}}) {
    for (const TimeSeriesGraph& graph :
         {testing::MakeZeroStepCube(length), testing::MakeFigure2Cube(length),
          testing::MakeRegionCube(length, 2.0)}) {
      ConfigurationEvaluator evaluator(graph, 0.8);
      const std::size_t n = graph.num_nodes();
      TimeSeriesGraph::NearestScratch scratch(n);
      LocalIndicator local;
      for (const IndicatorOptions& options : weightings) {
        IndicatorComputer computer(evaluator, options);
        for (NodeId s = 0; s < n; ++s) {
          for (const std::size_t size :
               {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
                std::size_t{5}, std::size_t{12}, std::size_t{13}, n - 2,
                n - 1}) {
            SCOPED_TRACE(::testing::Message()
                         << "nodes " << n << " length " << length
                         << " source " << s << " size " << size);
            computer.ComputeLocalInto(s, size, scratch, &local);
            ASSERT_EQ(local.entries.size(), std::min(size, n - 1) + 1);
            for (const auto& [target, value] : local.entries) {
              EXPECT_EQ(value, computer.Indicate(s, target))
                  << "target " << target;
            }
          }
        }
      }
    }
  }
}

TEST(Indicators, ComputeLocalIntoReusesScratchAndBuffer) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60);
  ConfigurationEvaluator evaluator(graph, 0.8);
  IndicatorComputer computer(evaluator, IndicatorOptions{});
  TimeSeriesGraph::NearestScratch scratch(graph.num_nodes());
  LocalIndicator local;
  local.entries.reserve(13);
  const auto* buffer = local.entries.data();
  for (NodeId node = 0; node < graph.num_nodes(); ++node) {
    computer.ComputeLocalInto(node, 12, scratch, &local);
    const LocalIndicator fresh = computer.ComputeLocal(node, 12);
    EXPECT_EQ(local.source, node);
    EXPECT_EQ(local.entries, fresh.entries);
    EXPECT_EQ(local.entries.data(), buffer);  // filled in place
  }
}

}  // namespace
}  // namespace f2db
