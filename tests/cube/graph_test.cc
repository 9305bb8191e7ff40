#include "cube/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <set>

#include "data/datasets.h"
#include "testing/test_cubes.h"

namespace f2db {
namespace {

TEST(CubeSchema, AddAndFind) {
  CubeSchema schema;
  ASSERT_TRUE(schema.AddHierarchy(Hierarchy::Flat("a", {"x", "y"})).ok());
  ASSERT_TRUE(schema.AddHierarchy(Hierarchy::Flat("b", {"p"})).ok());
  EXPECT_EQ(schema.num_dimensions(), 2u);
  EXPECT_EQ(schema.FindDimension("b").value(), 1u);
  EXPECT_FALSE(schema.FindDimension("c").ok());
  EXPECT_EQ(schema.NumBaseCells(), 2u);
}

TEST(CubeSchema, RejectsDuplicateAndUnfinalized) {
  CubeSchema schema;
  ASSERT_TRUE(schema.AddHierarchy(Hierarchy::Flat("a", {"x"})).ok());
  EXPECT_FALSE(schema.AddHierarchy(Hierarchy::Flat("a", {"y"})).ok());
  Hierarchy unfinalized("u");
  ASSERT_TRUE(unfinalized.AddLevel("l", {"v"}).ok());
  EXPECT_FALSE(schema.AddHierarchy(std::move(unfinalized)).ok());
}

TEST(CubeSchema, FindLevelAnywhere) {
  CubeSchema schema;
  ASSERT_TRUE(schema.AddHierarchy(Hierarchy::Flat("prod", {"p1"})).ok());
  ASSERT_TRUE(schema.AddHierarchy(Hierarchy::Flat("city", {"c1"})).ok());
  auto hit = schema.FindLevelAnywhere("city");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value().first, 1u);
  EXPECT_EQ(hit.value().second, 0u);
  EXPECT_FALSE(schema.FindLevelAnywhere("nope").ok());
}

TEST(Graph, NodeCountMatchesSlotProduct) {
  // Figure 2 cube: location slots = 4 cities + 2 regions + ALL = 7;
  // product slots = 2 + ALL = 3; total 21 nodes, 8 base.
  const TimeSeriesGraph graph = testing::MakeFigure2Cube();
  EXPECT_EQ(graph.num_nodes(), 21u);
  EXPECT_EQ(graph.num_base_nodes(), 8u);
}

TEST(Graph, AddressRoundTrip) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube();
  for (NodeId node = 0; node < graph.num_nodes(); ++node) {
    const NodeAddress address = graph.AddressOf(node);
    const auto back = graph.NodeFor(address);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), node);
  }
}

TEST(Graph, NodeForValidatesRanges) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube();
  NodeAddress bad;
  bad.coords = {{9, 0}, {0, 0}};
  EXPECT_FALSE(graph.NodeFor(bad).ok());
  bad.coords = {{0, 99}, {0, 0}};
  EXPECT_FALSE(graph.NodeFor(bad).ok());
  bad.coords = {{0, 0}};
  EXPECT_FALSE(graph.NodeFor(bad).ok());  // wrong dimensionality
}

TEST(Graph, TopNodeIsAllEverywhere) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube();
  const NodeAddress top = graph.AddressOf(graph.top_node());
  EXPECT_EQ(top.coords[0].level, 2u);  // ALL of location
  EXPECT_EQ(top.coords[1].level, 1u);  // ALL of product
  EXPECT_FALSE(graph.IsBaseNode(graph.top_node()));
}

TEST(Graph, BaseNodesAreLevelZero) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube();
  for (NodeId node : graph.base_nodes()) {
    EXPECT_TRUE(graph.IsBaseNode(node));
    EXPECT_EQ(graph.LevelSum(node), 0u);
  }
}

TEST(Graph, ChildrenRespectFunctionalDependency) {
  // Children of (region=R2, product=P2) along location are exactly
  // (C3, P2) and (C4, P2) — C1/C2 belong to R1 (paper property 3).
  const TimeSeriesGraph graph = testing::MakeFigure2Cube();
  NodeAddress address;
  address.coords = {{1, 1}, {0, 1}};  // R2, P2
  const NodeId node = graph.NodeFor(address).value();
  const auto children = graph.Children(node, 0);
  ASSERT_EQ(children.size(), 2u);
  for (NodeId child : children) {
    const NodeAddress ca = graph.AddressOf(child);
    EXPECT_EQ(ca.coords[0].level, 0u);
    EXPECT_GE(ca.coords[0].value, 2u);  // C3 or C4
    EXPECT_EQ(ca.coords[1].value, 1u);  // product preserved
  }
}

TEST(Graph, ParentRoundTrip) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube();
  const NodeId base = graph.base_nodes()[0];
  const auto parent = graph.Parent(base, 0);
  ASSERT_TRUE(parent.ok());
  const auto children = graph.Children(parent.value(), 0);
  EXPECT_NE(std::find(children.begin(), children.end(), base), children.end());
}

TEST(Graph, ParentOfAllFails) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube();
  EXPECT_FALSE(graph.Parent(graph.top_node(), 0).ok());
  EXPECT_FALSE(graph.Parent(graph.top_node(), 1).ok());
}

TEST(Graph, ANodeContributesToMultipleAggregates) {
  // Paper property 2: C1R1P2 can aggregate to C1*P2-style nodes along
  // either dimension.
  const TimeSeriesGraph graph = testing::MakeFigure2Cube();
  NodeAddress address;
  address.coords = {{0, 0}, {0, 1}};  // C1, P2
  const NodeId node = graph.NodeFor(address).value();
  const auto p0 = graph.Parent(node, 0);
  const auto p1 = graph.Parent(node, 1);
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p1.ok());
  EXPECT_NE(p0.value(), p1.value());
}

TEST(Graph, ChildSetsCoverAllAggregatedDimensions) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube();
  const auto sets = graph.ChildSets(graph.top_node());
  EXPECT_EQ(sets.size(), 2u);
  const NodeId base = graph.base_nodes()[0];
  EXPECT_TRUE(graph.ChildSets(base).empty());
}

TEST(Graph, AggregationIsExactSum) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube();
  // Every non-base node equals the sum of its children along any dimension.
  for (NodeId node = 0; node < graph.num_nodes(); ++node) {
    for (const auto& [dim, children] : graph.ChildSets(node)) {
      for (std::size_t t = 0; t < graph.series_length(); ++t) {
        double sum = 0.0;
        for (NodeId child : children) sum += graph.series(child)[t];
        EXPECT_NEAR(graph.series(node)[t], sum, 1e-9)
            << graph.NodeName(node) << " dim " << dim << " t=" << t;
      }
    }
  }
}

TEST(Graph, TopEqualsSumOfAllBase) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube();
  for (std::size_t t = 0; t < graph.series_length(); ++t) {
    double sum = 0.0;
    for (NodeId base : graph.base_nodes()) sum += graph.series(base)[t];
    EXPECT_NEAR(graph.series(graph.top_node())[t], sum, 1e-9);
  }
}

TEST(Graph, DistanceProperties) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube();
  const NodeId a = graph.base_nodes()[0];
  const NodeId b = graph.base_nodes()[1];
  EXPECT_EQ(graph.Distance(a, a), 0u);
  EXPECT_EQ(graph.Distance(a, b), graph.Distance(b, a));
  // Base to its location-parent: one step.
  EXPECT_EQ(graph.Distance(a, graph.Parent(a, 0).value()), 1u);
  // Top is location-levels + product-levels away from any base: 2 + 1.
  EXPECT_EQ(graph.Distance(a, graph.top_node()), 3u);
}

TEST(Graph, DistanceThroughCommonAncestor) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube();
  // C1P1 and C2P1 share region R1: distance 2 (up + down).
  NodeAddress a1{{{0, 0}, {0, 0}}};
  NodeAddress a2{{{0, 1}, {0, 0}}};
  EXPECT_EQ(graph.Distance(graph.NodeFor(a1).value(),
                           graph.NodeFor(a2).value()),
            2u);
  // C1P1 and C3P1 only share ALL: distance 4.
  NodeAddress a3{{{0, 2}, {0, 0}}};
  EXPECT_EQ(graph.Distance(graph.NodeFor(a1).value(),
                           graph.NodeFor(a3).value()),
            4u);
}

TEST(Graph, NearestNodesBfsOrder) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube();
  const NodeId base = graph.base_nodes()[0];
  const auto near = graph.NearestNodes(base, 5);
  ASSERT_EQ(near.size(), 5u);
  // No duplicates, does not include the start node.
  std::set<NodeId> unique(near.begin(), near.end());
  EXPECT_EQ(unique.size(), near.size());
  EXPECT_EQ(unique.count(base), 0u);
  // Distances are non-decreasing along the result.
  for (std::size_t i = 1; i < near.size(); ++i) {
    EXPECT_LE(graph.Distance(base, near[i - 1]),
              graph.Distance(base, near[i]));
  }
}

TEST(Graph, NearestNodesCoversWholeGraph) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube();
  const auto all = graph.NearestNodes(graph.top_node(), 1000);
  EXPECT_EQ(all.size(), graph.num_nodes() - 1);
}

// The NearestNodes search before neighbour lists were precomputed: BFS
// over Children/Parent, one sorted level at a time. Also reports the BFS
// level of every returned node.
std::vector<NodeId> ReferenceNearest(const TimeSeriesGraph& graph, NodeId node,
                                     std::size_t k,
                                     std::vector<std::size_t>* levels) {
  std::vector<NodeId> out;
  if (k == 0) return out;
  std::vector<bool> visited(graph.num_nodes(), false);
  visited[node] = true;
  std::vector<NodeId> frontier{node};
  for (std::size_t level = 1; !frontier.empty() && out.size() < k; ++level) {
    std::vector<NodeId> next;
    for (NodeId cur : frontier) {
      for (std::size_t d = 0; d < graph.schema().num_dimensions(); ++d) {
        for (NodeId child : graph.Children(cur, d)) {
          if (!visited[child]) {
            visited[child] = true;
            next.push_back(child);
          }
        }
        const auto parent = graph.Parent(cur, d);
        if (parent.ok() && !visited[parent.value()]) {
          visited[parent.value()] = true;
          next.push_back(parent.value());
        }
      }
    }
    std::sort(next.begin(), next.end());
    for (NodeId id : next) {
      if (out.size() >= k) break;
      out.push_back(id);
      levels->push_back(level);
    }
    frontier = std::move(next);
  }
  return out;
}

/// Three dimensions of unequal depth: city -> region -> country, item ->
/// category, and a flat channel. 11 * 6 * 3 = 198 nodes.
TimeSeriesGraph MakeThreeDimensionalGraph() {
  Hierarchy location("location");
  Status s = location.AddLevel("city", {"C1", "C2", "C3", "C4", "C5"});
  s = location.AddLevel("region", {"R1", "R2", "R3"});
  s = location.AddLevel("country", {"N1", "N2"});
  const ValueIndex city_region[] = {0, 0, 1, 2, 2};
  for (ValueIndex c = 0; c < 5; ++c) {
    s = location.SetParent(0, c, city_region[c]);
  }
  s = location.SetParent(1, 0, 0);
  s = location.SetParent(1, 1, 0);
  s = location.SetParent(1, 2, 1);
  s = location.Finalize();

  Hierarchy product("product");
  s = product.AddLevel("item", {"I1", "I2", "I3"});
  s = product.AddLevel("category", {"K1", "K2"});
  s = product.SetParent(0, 0, 0);
  s = product.SetParent(0, 1, 0);
  s = product.SetParent(0, 2, 1);
  s = product.Finalize();

  CubeSchema schema;
  s = schema.AddHierarchy(std::move(location));
  s = schema.AddHierarchy(std::move(product));
  s = schema.AddHierarchy(Hierarchy::Flat("channel", {"web", "store"}));
  (void)s;
  return std::move(TimeSeriesGraph::Create(std::move(schema))).value();
}

// Compares NearestNodes and NearestNodesInto with ReferenceNearest for
// every source of `graph` at each `k`.
void ExpectNearestMatchesReference(const TimeSeriesGraph& graph,
                                   const std::vector<std::size_t>& ks) {
  const std::size_t n = graph.num_nodes();
  // One scratch across every search, as a worker thread reuses it.
  TimeSeriesGraph::NearestScratch scratch(n);
  for (NodeId node = 0; node < n; ++node) {
    for (std::size_t k : ks) {
      std::vector<std::size_t> levels;
      const std::vector<NodeId> expected =
          ReferenceNearest(graph, node, k, &levels);
      EXPECT_EQ(graph.NearestNodes(node, k), expected)
          << "node " << node << " k " << k;
      EXPECT_EQ(graph.NearestNodesInto(node, k, scratch), expected)
          << "node " << node << " k " << k;
      // The BFS level of a node is its graph distance.
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(graph.Distance(node, expected[i]), levels[i]);
      }
    }
  }
}

TEST(Graph, NearestNodesMatchesReferenceBfs) {
  for (const TimeSeriesGraph& graph :
       {testing::MakeFigure2Cube(), MakeThreeDimensionalGraph()}) {
    const std::size_t n = graph.num_nodes();
    ExpectNearestMatchesReference(graph, {0, 1, 2, 5, 13, n - 1, n + 7});
  }
  // The advisor's shape: GenX-1000 (1,034 nodes, fan-out 32). From a base
  // node, k = 16 and k = 1024 both end inside a BFS level that holds more
  // nodes than still fit, so only part of that level is kept.
  auto genx = MakeGenX(1000, 4, 8);
  ASSERT_TRUE(genx.ok()) << genx.status().ToString();
  ExpectNearestMatchesReference(genx.value().graph, {16, 1024});
}

TEST(Graph, NearestScratchSurvivesStampWraparound) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube();
  TimeSeriesGraph::NearestScratch scratch(graph.num_nodes());
  const NodeId node = graph.base_nodes()[0];
  const std::vector<NodeId> expected = graph.NearestNodes(node, 20);
  EXPECT_EQ(graph.NearestNodesInto(node, 20, scratch), expected);
  scratch.stamp = std::numeric_limits<std::uint32_t>::max();
  EXPECT_EQ(graph.NearestNodesInto(node, 20, scratch), expected);
  EXPECT_EQ(graph.NearestNodesInto(node, 20, scratch), expected);
  // A default-constructed scratch is sized on first use.
  TimeSeriesGraph::NearestScratch empty;
  EXPECT_EQ(graph.NearestNodesInto(node, 20, empty), expected);
}

TEST(Graph, SetBaseSeriesValidation) {
  TimeSeriesGraph graph = testing::MakeFigure2Cube();
  EXPECT_FALSE(graph.SetBaseSeries(graph.top_node(), TimeSeries({1})).ok());
  EXPECT_FALSE(graph.SetBaseSeries(999999, TimeSeries({1})).ok());
}

TEST(Graph, BuildAggregatesRejectsMisalignedBase) {
  TimeSeriesGraph graph = testing::MakeFigure2Cube();
  ASSERT_TRUE(
      graph.SetBaseSeries(graph.base_nodes()[0], TimeSeries({1, 2})).ok());
  EXPECT_FALSE(graph.BuildAggregates().ok());
}

TEST(Graph, AdvanceTimeAppendsEverywhere) {
  TimeSeriesGraph graph = testing::MakeFigure2Cube(24);
  const std::size_t before = graph.series_length();
  std::vector<double> values(graph.num_base_nodes(), 2.0);
  std::vector<double> column;
  ASSERT_TRUE(graph.AdvanceTime(values, &column).ok());
  EXPECT_EQ(graph.series_length(), before + 1);
  const TimeSeries& top = graph.series(graph.top_node());
  EXPECT_NEAR(top[top.size() - 1], 2.0 * graph.num_base_nodes(), 1e-9);
  // The column holds exactly the value appended to every row.
  ASSERT_EQ(column.size(), graph.num_nodes());
  for (NodeId node = 0; node < graph.num_nodes(); ++node) {
    const TimeSeries& series = graph.series(node);
    EXPECT_EQ(column[node], series[series.size() - 1]) << "node " << node;
  }
}

TEST(Graph, AdvanceTimeValidatesInput) {
  TimeSeriesGraph graph = testing::MakeFigure2Cube(24);
  std::vector<double> column;
  EXPECT_FALSE(graph.AdvanceTime({1.0}, &column).ok());
}

TEST(Graph, AdvanceTimeRegrowsThePanelWhenARowCannotAppend) {
  // Two copies of one packed graph share its panel. The first copy to
  // advance claims the panel's next column (and, the panel being full,
  // regrows); the second cannot claim it and must regrow its own panel.
  // Neither copy, nor the untouched original, sees the other's values.
  const TimeSeriesGraph original = testing::MakeFigure2Cube(24);
  TimeSeriesGraph a = original;
  TimeSeriesGraph b = original;
  std::vector<double> column;
  for (int period = 0; period < 20; ++period) {
    ASSERT_TRUE(
        a.AdvanceTime(std::vector<double>(a.num_base_nodes(), 1.0), &column)
            .ok());
    ASSERT_TRUE(
        b.AdvanceTime(std::vector<double>(b.num_base_nodes(), 2.0), &column)
            .ok());
  }
  const std::size_t n = original.series_length();
  for (NodeId node = 0; node < original.num_nodes(); ++node) {
    ASSERT_EQ(original.series(node).size(), n);
    ASSERT_EQ(a.series(node).size(), n + 20);
    ASSERT_EQ(b.series(node).size(), n + 20);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(a.series(node)[i], original.series(node)[i]);
      ASSERT_EQ(b.series(node)[i], original.series(node)[i]);
    }
    const double leaves = a.series(node)[n];  // base nodes under `node`
    for (std::size_t i = n; i < n + 20; ++i) {
      ASSERT_EQ(a.series(node)[i], leaves);
      ASSERT_EQ(b.series(node)[i], 2.0 * leaves);
    }
  }
}

TEST(Graph, ADiscardedSuccessorsClaimMakesTheNextOneRegrowBitIdentically) {
  // A successor that claimed the column and was dropped unwritten leaves
  // the column taken: the next successor packs its rows into a fresh panel
  // and must still equal, bit for bit, the graph advanced in place.
  TimeSeriesGraph graph = testing::MakeFigure2Cube(24);
  std::vector<double> column;
  ASSERT_TRUE(graph
                  .AdvanceTime(std::vector<double>(graph.num_base_nodes(), 1.5),
                               &column)
                  .ok());  // packed, with spare columns
  std::vector<double> base_values(graph.num_base_nodes());
  for (std::size_t i = 0; i < base_values.size(); ++i) {
    base_values[i] = 0.1 * static_cast<double>(i) + 1.0 / 3.0;
  }
  {
    auto discarded = graph.BeginSuccessor(base_values, &column);
    ASSERT_TRUE(discarded.ok());
  }
  std::vector<double> successor_column;
  auto successor = graph.BeginSuccessor(base_values, &successor_column);
  ASSERT_TRUE(successor.ok());
  TimeSeriesGraph& next = successor.value();
  graph.WriteSuccessorRows(next, successor_column, 0, graph.num_nodes());

  TimeSeriesGraph reference = graph;
  std::vector<double> reference_column;
  ASSERT_TRUE(reference.AdvanceTime(base_values, &reference_column).ok());
  ASSERT_EQ(successor_column, reference_column);
  const std::size_t n = graph.series_length();
  for (NodeId node = 0; node < graph.num_nodes(); ++node) {
    const TimeSeries& row = next.series(node);
    // Regrown: the row lives in another panel than the graph's.
    ASSERT_NE(row.values().data(), graph.series(node).values().data());
    ASSERT_EQ(row.size(), n + 1);
    ASSERT_EQ(graph.series(node).size(), n);
    ASSERT_EQ(row.ToVector(), reference.series(node).ToVector()) << node;
  }
}

TEST(Graph, SeriesCopiedOutOfAGraphOutliveItAndItsSuccessors) {
  // A graph's rows borrow its panel; a series copied out of one takes a
  // reference of its own. Under AddressSanitizer a copy that did not would
  // read freed panel blocks here, once every graph holding the panel (the
  // original, a copy and a successor) is gone.
  auto graph = std::make_unique<TimeSeriesGraph>(testing::MakeFigure2Cube(24));
  std::vector<double> column;
  const std::vector<double> ones(graph->num_base_nodes(), 1.0);
  ASSERT_TRUE(graph->AdvanceTime(ones, &column).ok());  // packed
  const NodeId top = graph->top_node();
  const NodeId base = graph->base_nodes()[0];
  TimeSeries from_graph = graph->series(top);
  const std::vector<double> top_values = from_graph.ToVector();

  auto copy = std::make_unique<TimeSeriesGraph>(*graph);
  auto successor = graph->BeginSuccessor(ones, &column);
  ASSERT_TRUE(successor.ok());
  auto next = std::make_unique<TimeSeriesGraph>(std::move(successor).value());
  graph->WriteSuccessorRows(*next, column, 0, graph->num_nodes());
  const TimeSeries from_successor = next->series(base);
  const std::vector<double> base_values = from_successor.ToVector();
  ASSERT_EQ(base_values.size(), graph->series_length() + 1);

  graph.reset();
  copy.reset();
  next.reset();
  EXPECT_EQ(from_graph.ToVector(), top_values);
  EXPECT_EQ(from_successor.ToVector(), base_values);
  from_graph.Append(7.0);  // copies out of the dead panel's block
  EXPECT_EQ(from_graph[from_graph.size() - 1], 7.0);
}

TEST(Graph, NodeNameIsHumanReadable) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube();
  const std::string name = graph.NodeName(graph.base_nodes()[0]);
  EXPECT_NE(name.find("city="), std::string::npos);
  EXPECT_NE(name.find("product="), std::string::npos);
}

TEST(Graph, RejectsEmptySchema) {
  EXPECT_FALSE(TimeSeriesGraph::Create(CubeSchema()).ok());
}

}  // namespace
}  // namespace f2db
