#include "cube/hierarchy.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cube/cube_schema.h"
#include "cube/graph.h"
#include "data/datasets.h"

namespace f2db {
namespace {

Hierarchy MakeLocation() {
  Hierarchy h("location");
  EXPECT_TRUE(h.AddLevel("city", {"C1", "C2", "C3", "C4"}).ok());
  EXPECT_TRUE(h.AddLevel("region", {"R1", "R2"}).ok());
  EXPECT_TRUE(h.SetParent(0, 0, 0).ok());
  EXPECT_TRUE(h.SetParent(0, 1, 0).ok());
  EXPECT_TRUE(h.SetParent(0, 2, 1).ok());
  EXPECT_TRUE(h.SetParent(0, 3, 1).ok());
  EXPECT_TRUE(h.Finalize().ok());
  return h;
}

TEST(Hierarchy, LevelAndValueCounts) {
  const Hierarchy h = MakeLocation();
  EXPECT_EQ(h.num_levels(), 2u);
  EXPECT_EQ(h.num_values(0), 4u);
  EXPECT_EQ(h.num_values(1), 2u);
  EXPECT_EQ(h.num_values(2), 1u);  // ALL
}

TEST(Hierarchy, Names) {
  const Hierarchy h = MakeLocation();
  EXPECT_EQ(h.level_name(0), "city");
  EXPECT_EQ(h.level_name(2), "ALL");
  EXPECT_EQ(h.value_name(0, 2), "C3");
  EXPECT_EQ(h.value_name(2, 0), "*");
}

TEST(Hierarchy, ParentsEncodeFunctionalDependency) {
  const Hierarchy h = MakeLocation();
  EXPECT_EQ(h.parent_value(0, 0), 0u);  // C1 -> R1
  EXPECT_EQ(h.parent_value(0, 3), 1u);  // C4 -> R2
  EXPECT_EQ(h.parent_value(1, 1), 0u);  // R2 -> ALL
}

TEST(Hierarchy, ChildValues) {
  const Hierarchy h = MakeLocation();
  EXPECT_EQ(h.child_values(1, 0), (std::vector<ValueIndex>{0, 1}));
  EXPECT_EQ(h.child_values(1, 1), (std::vector<ValueIndex>{2, 3}));
  EXPECT_EQ(h.child_values(2, 0), (std::vector<ValueIndex>{0, 1}));  // ALL
}

TEST(Hierarchy, FindLevelAndValue) {
  const Hierarchy h = MakeLocation();
  EXPECT_EQ(h.FindLevel("region").value(), 1u);
  EXPECT_EQ(h.FindLevel("ALL").value(), 2u);
  EXPECT_FALSE(h.FindLevel("country").ok());
  EXPECT_EQ(h.FindValue(0, "C2").value(), 1u);
  EXPECT_EQ(h.FindValue(2, "*").value(), 0u);
  EXPECT_FALSE(h.FindValue(0, "C9").ok());
  EXPECT_FALSE(h.FindValue(2, "C9").ok());
}

// Checks that every member of every level of `h` resolves to its own index.
void ExpectEveryMemberFound(const Hierarchy& h) {
  for (LevelIndex level = 0; level <= h.num_levels(); ++level) {
    for (ValueIndex v = 0; v < h.num_values(level); ++v) {
      const auto found = h.FindValue(level, h.value_name(level, v));
      ASSERT_TRUE(found.ok()) << found.status().message();
      ASSERT_EQ(found.value(), v) << h.value_name(level, v);
    }
  }
}

TEST(Hierarchy, FindValueMatchesEveryMember) {
  // GenX-5000: level 0 holds L0_0..L0_4999, whose name order ("L0_10" <
  // "L0_2") differs from their index order.
  auto genx = MakeGenX(5000, 4, 24);
  ASSERT_TRUE(genx.ok()) << genx.status().message();
  const TimeSeriesGraph& graph = genx.value().graph;
  const Hierarchy& h = graph.schema().hierarchy(0);
  ASSERT_EQ(h.num_values(0), 5000u);
  ExpectEveryMemberFound(h);

  // Misses keep the NotFound status and its message.
  for (const std::string miss : {"L0_5000", "", "l0_1", "L0_"}) {
    const auto found = h.FindValue(0, miss);
    ASSERT_FALSE(found.ok()) << miss;
    EXPECT_EQ(found.status().code(), StatusCode::kNotFound);
    EXPECT_EQ(found.status().message(),
              "no value '" + miss + "' at level 'level0'");
  }
  const auto all_miss = h.FindValue(static_cast<LevelIndex>(h.num_levels()),
                                    "L0_1");
  EXPECT_EQ(all_miss.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(all_miss.status().message(), "ALL level has only '*'");

  // The member index survives copies and moves of the schema and graph.
  CubeSchema schema_copy = graph.schema();
  ExpectEveryMemberFound(schema_copy.hierarchy(0));
  const CubeSchema schema_moved = std::move(schema_copy);
  ExpectEveryMemberFound(schema_moved.hierarchy(0));
  TimeSeriesGraph graph_copy = graph;
  ExpectEveryMemberFound(graph_copy.schema().hierarchy(0));
  const TimeSeriesGraph graph_moved = std::move(graph_copy);
  ExpectEveryMemberFound(graph_moved.schema().hierarchy(0));
}

TEST(Hierarchy, RejectsDuplicateMemberName) {
  Hierarchy h("location");
  const Status status = h.AddLevel("city", {"C2", "C1", "C3", "C1"});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("duplicate value 'C1'"), std::string::npos)
      << status.message();
  EXPECT_EQ(h.num_levels(), 0u);
}

TEST(Hierarchy, RejectsDuplicateLevelName) {
  Hierarchy h("location");
  ASSERT_TRUE(h.AddLevel("city", {"C1", "C2"}).ok());
  const Status status = h.AddLevel("city", {"R1"});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("level 'city'"), std::string::npos)
      << status.message();
  EXPECT_EQ(h.num_levels(), 1u);
  // The same member name on different levels stays legal.
  EXPECT_TRUE(h.AddLevel("region", {"C1"}).ok());
}

TEST(Hierarchy, FlatFactory) {
  const Hierarchy h = Hierarchy::Flat("product", {"P1", "P2"});
  EXPECT_TRUE(h.finalized());
  EXPECT_EQ(h.num_levels(), 1u);
  EXPECT_EQ(h.child_values(1, 0).size(), 2u);
  EXPECT_EQ(h.parent_value(0, 1), 0u);  // directly under ALL
}

TEST(Hierarchy, RejectsEmptyLevel) {
  Hierarchy h("x");
  EXPECT_FALSE(h.AddLevel("lvl", {}).ok());
}

TEST(Hierarchy, RejectsFinalizeWithoutLevels) {
  Hierarchy h("x");
  EXPECT_FALSE(h.Finalize().ok());
}

TEST(Hierarchy, SetParentValidatesRanges) {
  Hierarchy h("x");
  ASSERT_TRUE(h.AddLevel("a", {"a1", "a2"}).ok());
  ASSERT_TRUE(h.AddLevel("b", {"b1"}).ok());
  EXPECT_FALSE(h.SetParent(1, 0, 0).ok());  // topmost level has no parent level
  EXPECT_FALSE(h.SetParent(0, 5, 0).ok());  // child out of range
  EXPECT_FALSE(h.SetParent(0, 0, 5).ok());  // parent out of range
}

TEST(Hierarchy, FinalizeRejectsChildlessParent) {
  Hierarchy h("x");
  ASSERT_TRUE(h.AddLevel("a", {"a1", "a2"}).ok());
  ASSERT_TRUE(h.AddLevel("b", {"b1", "b2"}).ok());
  // Both children map to b1; b2 ends up childless.
  ASSERT_TRUE(h.SetParent(0, 0, 0).ok());
  ASSERT_TRUE(h.SetParent(0, 1, 0).ok());
  EXPECT_FALSE(h.Finalize().ok());
}

TEST(Hierarchy, MutationAfterFinalizeRejected) {
  Hierarchy h = MakeLocation();
  EXPECT_FALSE(h.AddLevel("country", {"X"}).ok());
  EXPECT_FALSE(h.SetParent(0, 0, 1).ok());
}

TEST(Hierarchy, ThreeLevelChain) {
  Hierarchy h("geo");
  ASSERT_TRUE(h.AddLevel("city", {"c1", "c2", "c3", "c4"}).ok());
  ASSERT_TRUE(h.AddLevel("state", {"s1", "s2"}).ok());
  ASSERT_TRUE(h.AddLevel("country", {"x"}).ok());
  for (ValueIndex v = 0; v < 4; ++v) {
    ASSERT_TRUE(h.SetParent(0, v, v / 2).ok());
  }
  ASSERT_TRUE(h.SetParent(1, 0, 0).ok());
  ASSERT_TRUE(h.SetParent(1, 1, 0).ok());
  ASSERT_TRUE(h.Finalize().ok());
  EXPECT_EQ(h.num_levels(), 3u);
  EXPECT_EQ(h.child_values(2, 0).size(), 2u);
  EXPECT_EQ(h.child_values(3, 0).size(), 1u);  // ALL covers one country
}

}  // namespace
}  // namespace f2db
