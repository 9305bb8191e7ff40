#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/csv.h"
#include "data/cube_io.h"
#include "data/datasets.h"
#include "data/sarima_generator.h"
#include "math/stats.h"
#include "testing/test_cubes.h"

namespace f2db {
namespace {

TEST(SarimaGenerator, DeterministicForSeed) {
  SarimaProcess process;
  process.order.p = 1;
  process.phi = {0.5};
  Rng a(1), b(1);
  const TimeSeries s1 = SimulateSarima(process, 50, a);
  const TimeSeries s2 = SimulateSarima(process, 50, b);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_DOUBLE_EQ(s1[i], s2[i]);
  }
}

TEST(SarimaGenerator, Ar1HasExpectedAutocorrelation) {
  SarimaProcess process;
  process.order.p = 1;
  process.phi = {0.8};
  Rng rng(2);
  const TimeSeries series = SimulateSarima(process, 5000, rng);
  const auto acf = Autocorrelation(series.ToVector(), 2);
  EXPECT_NEAR(acf[1], 0.8, 0.05);
  EXPECT_NEAR(acf[2], 0.64, 0.08);
}

TEST(SarimaGenerator, SeasonalDifferencingCreatesSeasonality) {
  SarimaProcess process;
  process.order.sd = 1;
  process.order.season = 12;
  process.noise_stddev = 0.1;
  Rng rng(3);
  const TimeSeries series = SimulateSarima(process, 600, rng);
  const auto acf = Autocorrelation(series.ToVector(), 12);
  EXPECT_GT(acf[12], 0.5) << "seasonal integration implies high lag-12 ACF";
}

TEST(SarimaGenerator, IntegrationProducesTrendingSeries) {
  SarimaProcess process;
  process.order.d = 1;
  process.mean = 1.0;  // drift
  process.noise_stddev = 0.1;
  Rng rng(4);
  const TimeSeries series = SimulateSarima(process, 200, rng);
  EXPECT_GT(series[199] - series[0], 150.0);
}

TEST(GenXLevels, FollowsPaperRule) {
  EXPECT_EQ(GenXLevels(100), 3u);
  EXPECT_EQ(GenXLevels(999), 3u);
  EXPECT_EQ(GenXLevels(1000), 4u);
  EXPECT_EQ(GenXLevels(9999), 4u);
  EXPECT_EQ(GenXLevels(10000), 5u);
  EXPECT_EQ(GenXLevels(99999), 5u);
  EXPECT_EQ(GenXLevels(100000), 6u);
}

TEST(GenX, GraphShapeMatchesRule) {
  auto data = MakeGenX(100, 1, 30);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value().graph.num_base_nodes(), 100u);
  // 3 levels total: base + one intermediate + ALL = 2 declared levels.
  EXPECT_EQ(data.value().graph.schema().hierarchy(0).num_levels(), 2u);

  auto big = MakeGenX(1000, 1, 10);
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big.value().graph.schema().hierarchy(0).num_levels(), 3u);
}

TEST(GenX, SeriesArePositiveAndAggregatesBuilt) {
  auto data = MakeGenX(50, 2, 40);
  ASSERT_TRUE(data.ok());
  const TimeSeriesGraph& graph = data.value().graph;
  EXPECT_EQ(graph.series_length(), 40u);
  for (NodeId node = 0; node < graph.num_nodes(); ++node) {
    for (std::size_t t = 0; t < graph.series_length(); ++t) {
      EXPECT_GT(graph.series(node)[t], 0.0);
    }
  }
}

TEST(GenX, RejectsDegenerateSize) {
  EXPECT_FALSE(MakeGenX(1).ok());
}

TEST(Datasets, TourismShape) {
  auto data = MakeTourism();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value().graph.num_base_nodes(), 32u);  // 4 purposes x 8 states
  EXPECT_EQ(data.value().graph.series_length(), 32u);   // quarterly 2004-2011
  EXPECT_EQ(data.value().season, 4u);
  EXPECT_EQ(data.value().graph.num_nodes(), 45u);
}

TEST(Datasets, SalesShape) {
  auto data = MakeSales();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value().graph.num_base_nodes(), 27u);  // 9 products x 3 countries
  EXPECT_EQ(data.value().graph.series_length(), 72u);   // monthly 2004-2009
  EXPECT_EQ(data.value().season, 12u);
}

TEST(Datasets, EnergyShape) {
  auto data = MakeEnergy(3, 240);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value().graph.num_base_nodes(), 86u);
  EXPECT_EQ(data.value().graph.series_length(), 240u);
  EXPECT_EQ(data.value().season, 24u);
}

TEST(Datasets, DeterministicForSeed) {
  auto a = MakeSales(5);
  auto b = MakeSales(5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const NodeId node = a.value().graph.base_nodes()[3];
  for (std::size_t t = 0; t < a.value().graph.series_length(); ++t) {
    EXPECT_DOUBLE_EQ(a.value().graph.series(node)[t],
                     b.value().graph.series(node)[t]);
  }
}

TEST(Datasets, EnergyHasDailySeasonality) {
  auto data = MakeEnergy(3, 480);
  ASSERT_TRUE(data.ok());
  const TimeSeries& top =
      data.value().graph.series(data.value().graph.top_node());
  const auto acf = Autocorrelation(top.ToVector(), 24);
  EXPECT_GT(acf[24], 0.5);
}

TEST(CubeIo, SaveLoadRoundTrip) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(20, 0.1);
  const std::string path =
      (std::filesystem::temp_directory_path() / "f2db_facts_test.csv")
          .string();
  ASSERT_TRUE(SaveFactsCsv(graph, path).ok());

  // Rebuild the same schema and load.
  const TimeSeriesGraph empty = testing::MakeFigure2Cube(20, 0.1);
  auto loaded = LoadFactsCsv(empty.schema(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().series_length(), 20u);
  for (NodeId node = 0; node < graph.num_nodes(); ++node) {
    for (std::size_t t = 0; t < 20; ++t) {
      EXPECT_NEAR(loaded.value().series(node)[t], graph.series(node)[t], 1e-6);
    }
  }
  std::remove(path.c_str());
}

TEST(CubeIo, LoadRejectsIncompleteCoverage) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(10, 0.1);
  const std::string path =
      (std::filesystem::temp_directory_path() / "f2db_facts_partial.csv")
          .string();
  ASSERT_TRUE(SaveFactsCsv(graph, path).ok());
  // Truncate: drop the last line (one missing observation).
  auto doc = ReadCsvFile(path, true);
  ASSERT_TRUE(doc.ok());
  doc.value().rows.pop_back();
  ASSERT_TRUE(WriteCsvFile(path, doc.value()).ok());

  auto loaded = LoadFactsCsv(graph.schema(), path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(CubeIo, LoadRejectsDuplicateFacts) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(5, 0.1);
  const std::string path =
      (std::filesystem::temp_directory_path() / "f2db_facts_dup.csv").string();
  ASSERT_TRUE(SaveFactsCsv(graph, path).ok());
  auto doc = ReadCsvFile(path, true);
  ASSERT_TRUE(doc.ok());
  doc.value().rows.push_back(doc.value().rows.front());
  ASSERT_TRUE(WriteCsvFile(path, doc.value()).ok());
  EXPECT_FALSE(LoadFactsCsv(graph.schema(), path).ok());
  std::remove(path.c_str());
}

TEST(CubeIo, LoadRejectsUnknownValues) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(5, 0.1);
  const std::string path =
      (std::filesystem::temp_directory_path() / "f2db_facts_unknown.csv")
          .string();
  ASSERT_TRUE(SaveFactsCsv(graph, path).ok());
  auto doc = ReadCsvFile(path, true);
  ASSERT_TRUE(doc.ok());
  doc.value().rows[0][0] = "C99";
  ASSERT_TRUE(WriteCsvFile(path, doc.value()).ok());
  EXPECT_FALSE(LoadFactsCsv(graph.schema(), path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace f2db
