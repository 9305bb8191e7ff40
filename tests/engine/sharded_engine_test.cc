// ShardedEngine unit tests: hash partitioning, ancestor-closure shard
// schemas, single-shard routing, scatter-gather merge additivity,
// cross-shard configuration rejection, per-shard durability, the
// per-shard Prometheus exposition, and the rule by which each counter of
// the facade's stats() merges its shards.

#include "engine/sharded_engine.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/wal.h"
#include "testing/crash.h"
#include "testing/test_cubes.h"

namespace f2db {
namespace {

/// The four Figure 2 cities (dimension 0, level 0) — the partitioning key.
const std::vector<std::string> kCities = {"C1", "C2", "C3", "C4"};
/// The two Figure 2 products (dimension 1, level 0).
const std::vector<std::string> kProducts = {"P1", "P2"};

ShardedEngineOptions MakeOptions(std::size_t num_shards) {
  ShardedEngineOptions options;
  options.num_shards = num_shards;
  options.engine.maintenance_threads = 1;
  return options;
}

Result<std::unique_ptr<ShardedEngine>> OpenFigure2(std::size_t num_shards) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(48, 0.05);
  return ShardedEngine::Open(graph, MakeOptions(num_shards));
}

/// Loads the canonical shard-safe configuration (one model per base cell,
/// covering schemes) into an engine pair over the same cube.
ModelSpec MeanSpec() {
  ModelSpec spec;
  spec.type = ModelType::kSes;
  spec.period = 1;
  return spec;
}

ForecastQuery AllQuery(std::size_t horizon) {
  ForecastQuery query;
  query.measure = "sales";
  query.aggregate = true;
  query.horizon = horizon;
  return query;
}

ForecastQuery CityQuery(const std::string& city, std::size_t horizon) {
  ForecastQuery query = AllQuery(horizon);
  query.filters.push_back({"city", city});
  return query;
}

/// Inserts one full round (every base cell) at the cube frontier.
void InsertRound(ShardedEngine& sharded, std::int64_t time, double value) {
  for (const std::string& city : kCities) {
    for (const std::string& product : kProducts) {
      const Status status =
          sharded.InsertFact({city, product}, time, value);
      ASSERT_TRUE(status.ok()) << city << "/" << product << ": "
                               << status.ToString();
    }
  }
}

TEST(ShardedEngineTest, PartitionOfIsDeterministicAndBounded) {
  for (const std::string& city : kCities) {
    for (std::size_t m = 1; m <= 9; ++m) {
      const std::size_t p = ShardedEngine::PartitionOf(city, m);
      EXPECT_LT(p, m);
      EXPECT_EQ(p, ShardedEngine::PartitionOf(city, m));
    }
    EXPECT_EQ(ShardedEngine::PartitionOf(city, 1), 0u);
  }
  // FNV-1a actually separates the palette somewhere: not every M maps all
  // four cities to one partition.
  bool separated = false;
  for (std::size_t m = 2; m <= 9 && !separated; ++m) {
    for (const std::string& city : kCities) {
      separated = separated || ShardedEngine::PartitionOf(city, m) !=
                                   ShardedEngine::PartitionOf(kCities[0], m);
    }
  }
  EXPECT_TRUE(separated);
}

TEST(ShardedEngineTest, RejectsTwoPredicatesOnOneDimension) {
  auto sharded = OpenFigure2(2);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ForecastQuery query = CityQuery("C1", 2);
  query.filters.push_back({"region", "R2"});
  const auto result = sharded.value()->Execute(query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.status().message(),
            "more than one WHERE predicate on dimension 'location'");
  const auto explained = sharded.value()->Explain(query);
  ASSERT_FALSE(explained.ok());
  EXPECT_EQ(explained.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardedEngineTest, OpenPartitionsEveryBaseCellExactlyOnce) {
  for (const std::size_t m : {1u, 2u, 3u, 7u, 64u}) {
    auto sharded = OpenFigure2(m);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    EXPECT_EQ(sharded.value()->num_shards(), m);
    EXPECT_GE(sharded.value()->num_active_shards(), 1u);
    // At most one active partition per distinct city.
    EXPECT_LE(sharded.value()->num_active_shards(), kCities.size());
    std::size_t base_cells = 0;
    for (const std::size_t p : sharded.value()->active_partitions()) {
      const F2dbEngine* shard = sharded.value()->shard(p);
      ASSERT_NE(shard, nullptr);
      base_cells += shard->graph().base_nodes().size();
    }
    EXPECT_EQ(base_cells, 8u) << "m=" << m;  // 4 cities x 2 products
  }
}

TEST(ShardedEngineTest, EmptyPartitionsRunNoEngine) {
  auto sharded = OpenFigure2(64);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  std::size_t empty = 0;
  for (std::size_t p = 0; p < 64; ++p) {
    if (sharded.value()->shard(p) == nullptr) ++empty;
  }
  EXPECT_EQ(empty, 64 - sharded.value()->num_active_shards());
  EXPECT_GE(empty, 60u);  // at most 4 cities occupy partitions
}

TEST(ShardedEngineTest, ScatterGatherMatchesUnshardedForecasts) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(48, 0.05);
  auto config = BuildShardableConfiguration(graph, MeanSpec(), 1.0);
  ASSERT_TRUE(config.ok()) << config.status().ToString();

  F2dbEngine unsharded(testing::MakeFigure2Cube(48, 0.05),
                       MakeOptions(1).engine);
  const ConfigurationEvaluator evaluator(unsharded.graph(), 1.0);
  ASSERT_TRUE(unsharded.LoadConfiguration(config.value(), evaluator).ok());

  for (const std::size_t m : {1u, 2u, 3u, 7u}) {
    auto sharded = ShardedEngine::Open(graph, MakeOptions(m));
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ASSERT_TRUE(sharded.value()->LoadConfiguration(config.value(), 1.0).ok());

    std::vector<ForecastQuery> queries = {AllQuery(3), CityQuery("C1", 2),
                                          CityQuery("C4", 4)};
    {
      ForecastQuery region = AllQuery(3);
      region.filters.push_back({"region", "R2"});  // C3 + C4
      queries.push_back(region);
    }
    for (const ForecastQuery& query : queries) {
      const auto want = unsharded.Execute(query);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      const auto got = sharded.value()->Execute(query);
      ASSERT_TRUE(got.ok()) << "m=" << m << ": " << got.status().ToString();
      EXPECT_EQ(got.value().node_name, want.value().node_name);
      EXPECT_EQ(got.value().degradation, DegradationLevel::kNone)
          << got.value().degradation_reason;
      ASSERT_EQ(got.value().rows.size(), want.value().rows.size());
      for (std::size_t h = 0; h < want.value().rows.size(); ++h) {
        EXPECT_EQ(got.value().rows[h].time, want.value().rows[h].time);
        EXPECT_NEAR(got.value().rows[h].value, want.value().rows[h].value,
                    1e-6 * std::abs(want.value().rows[h].value) + 1e-9)
            << "m=" << m << " h=" << h;
      }
    }
  }
}

TEST(ShardedEngineTest, LoadConfigurationRejectsCrossShardModels) {
  // Find a shard count that separates C1 and C2 — then a model at their
  // common region R1 spans partitions and must be rejected.
  std::size_t m = 0;
  for (std::size_t candidate = 2; candidate <= 16; ++candidate) {
    if (ShardedEngine::PartitionOf("C1", candidate) !=
        ShardedEngine::PartitionOf("C2", candidate)) {
      m = candidate;
      break;
    }
  }
  ASSERT_NE(m, 0u);

  const TimeSeriesGraph graph = testing::MakeFigure2Cube(48, 0.05);
  auto config = BuildShardableConfiguration(graph, MeanSpec(), 1.0);
  ASSERT_TRUE(config.ok());

  // Relocate one model to the R1 x ALL aggregate.
  NodeAddress r1;
  r1.coords = {{1, 0}, {1, 0}};  // region R1, product ALL
  auto r1_node = graph.NodeFor(r1);
  ASSERT_TRUE(r1_node.ok());
  ModelConfiguration bad(graph.num_nodes());
  ModelEntry entry;
  const ModelSpec spec = MeanSpec();
  auto fitted = ModelFactory(spec).CreateAndFit(graph.series(r1_node.value()));
  ASSERT_TRUE(fitted.ok());
  entry.model = std::move(fitted.value());
  bad.AddModel(r1_node.value(), std::move(entry));

  auto sharded = ShardedEngine::Open(graph, MakeOptions(m));
  ASSERT_TRUE(sharded.ok());
  const Status loaded = sharded.value()->LoadConfiguration(bad, 1.0);
  EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument)
      << loaded.ToString();
  EXPECT_NE(loaded.message().find("spans multiple shards"),
            std::string::npos)
      << loaded.ToString();
}

TEST(ShardedEngineTest, InsertRoutesToOwningShardAndRoundsAdvanceAll) {
  auto sharded = OpenFigure2(3);
  ASSERT_TRUE(sharded.ok());
  ShardedEngine& engine = *sharded.value();
  const std::int64_t frontier = 48;

  // A single fact buffers on exactly the owning shard.
  ASSERT_TRUE(engine.InsertFact({"C1", "P1"}, frontier, 5.0).ok());
  EXPECT_EQ(engine.pending_inserts(), 1u);
  const std::size_t owner = ShardedEngine::PartitionOf("C1", 3);
  EXPECT_EQ(engine.shard(owner)->pending_inserts(), 1u);

  // Unknown city: rejected without touching any shard (the same kNotFound
  // the unsharded name-routed insert reports).
  EXPECT_EQ(engine.InsertFact({"C9", "P1"}, frontier, 5.0).code(),
            StatusCode::kNotFound);
  // Wrong arity: rejected up front.
  EXPECT_EQ(engine.InsertFact({"C1"}, frontier, 5.0).code(),
            StatusCode::kInvalidArgument);

  // Completing the round advances every shard exactly once.
  for (const std::string& city : kCities) {
    for (const std::string& product : kProducts) {
      if (city == "C1" && product == "P1") continue;  // already inserted
      ASSERT_TRUE(engine.InsertFact({city, product}, frontier, 5.0).ok());
    }
  }
  EXPECT_EQ(engine.pending_inserts(), 0u);
  for (const std::size_t p : engine.active_partitions()) {
    EXPECT_EQ(engine.shard(p)->stats().time_advances, 1u) << "shard " << p;
  }
  // Behind the advanced frontier: rejected by the owning shard.
  EXPECT_EQ(engine.InsertFact({"C1", "P1"}, frontier, 5.0).code(),
            StatusCode::kOutOfRange);
  // A duplicate buffered at the new frontier: kAlreadyExists.
  ASSERT_TRUE(engine.InsertFact({"C1", "P1"}, frontier + 1, 5.0).ok());
  EXPECT_EQ(engine.InsertFact({"C1", "P1"}, frontier + 1, 5.0).code(),
            StatusCode::kAlreadyExists);
}

TEST(ShardedEngineTest, MisalignedShardFrontiersFailCrossShardQueries) {
  // Separate C1 from some other city, then advance only C1's shard.
  std::size_t m = 0;
  for (std::size_t candidate = 2; candidate <= 16; ++candidate) {
    bool separated = false;
    for (const std::string& city : kCities) {
      separated = separated || ShardedEngine::PartitionOf(city, candidate) !=
                                   ShardedEngine::PartitionOf("C1", candidate);
    }
    if (separated) {
      m = candidate;
      break;
    }
  }
  ASSERT_NE(m, 0u);

  const TimeSeriesGraph graph = testing::MakeFigure2Cube(48, 0.05);
  auto config = BuildShardableConfiguration(graph, MeanSpec(), 1.0);
  ASSERT_TRUE(config.ok());
  auto sharded = ShardedEngine::Open(graph, MakeOptions(m));
  ASSERT_TRUE(sharded.ok());
  ShardedEngine& engine = *sharded.value();
  ASSERT_TRUE(engine.LoadConfiguration(config.value(), 1.0).ok());

  const std::size_t c1_partition = ShardedEngine::PartitionOf("C1", m);
  for (const std::string& city : kCities) {
    if (ShardedEngine::PartitionOf(city, m) != c1_partition) continue;
    for (const std::string& product : kProducts) {
      ASSERT_TRUE(engine.InsertFact({city, product}, 48, 5.0).ok());
    }
  }
  ASSERT_EQ(engine.shard(c1_partition)->stats().time_advances, 1u);

  const auto result = engine.Execute(AllQuery(2));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("misaligned"), std::string::npos)
      << result.status().ToString();

  // A query confined to the advanced shard still serves.
  const auto city_result = engine.Execute(CityQuery("C1", 2));
  EXPECT_TRUE(city_result.ok()) << city_result.status().ToString();
}

TEST(ShardedEngineTest, StatsAggregateAndPrometheusCarryShardLabels) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(48, 0.05);
  auto config = BuildShardableConfiguration(graph, MeanSpec(), 1.0);
  ASSERT_TRUE(config.ok());
  auto sharded = ShardedEngine::Open(graph, MakeOptions(2));
  ASSERT_TRUE(sharded.ok());
  ShardedEngine& engine = *sharded.value();
  ASSERT_TRUE(engine.LoadConfiguration(config.value(), 1.0).ok());

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.Execute(AllQuery(1)).ok());
  }
  std::size_t per_shard_queries = 0;
  for (const std::size_t p : engine.active_partitions()) {
    per_shard_queries += engine.shard(p)->stats().queries;
  }
  EXPECT_EQ(engine.stats().queries, per_shard_queries);

  const std::string text = engine.StatsPrometheusText();
  for (const std::size_t p : engine.active_partitions()) {
    EXPECT_NE(
        text.find("f2db_queries_total{shard=\"" + std::to_string(p) + "\"}"),
        std::string::npos)
        << text;
  }
  // The unlabeled aggregate line is still present for existing dashboards.
  EXPECT_NE(text.find("\nf2db_queries_total "), std::string::npos) << text;
}

TEST(ShardedEngineTest, DurableShardsCheckpointAndRecoverIndependently) {
  char tmpl[] = "/tmp/f2db_sharded_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;

  ShardedEngineOptions options = MakeOptions(3);
  options.engine.data_dir = dir;
  options.engine.fsync_policy = FsyncPolicy::kAlways;
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(48, 0.05);
  {
    auto sharded = ShardedEngine::Open(graph, options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    EXPECT_TRUE(sharded.value()->durable());
    InsertRound(*sharded.value(), 48, 7.0);
    ASSERT_TRUE(sharded.value()->CompactNow().ok());
    InsertRound(*sharded.value(), 49, 8.0);  // WAL tail past the cut
  }
  {
    auto sharded = ShardedEngine::Open(graph, options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    const EngineStats stats = sharded.value()->stats();
    EXPECT_EQ(stats.inserts, 16u);
    EXPECT_EQ(sharded.value()->pending_inserts(), 0u);
    // Every shard restored its own sealed history from its own cut.
    EXPECT_GT(stats.segment_records_recovered, 0u);
    for (const std::size_t p : sharded.value()->active_partitions()) {
      EXPECT_EQ(sharded.value()->shard(p)->stats().time_advances, 2u)
          << "shard " << p;
      EXPECT_GT(sharded.value()->shard(p)->stats().segment_records_recovered,
                0u)
          << "shard " << p;
      // Shard data lives under its own subdirectory.
      EXPECT_EQ(::access((dir + "/shard-" + std::to_string(p)).c_str(), F_OK),
                0);
    }
  }
  f2db::testing::RemoveDirectoryTree(dir);
}

TEST(ShardedEngineTest, StatsMergeRulesPerFamily) {
  char tmpl[] = "/tmp/f2db_sharded_merge_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  ShardedEngineOptions options = MakeOptions(2);
  options.engine.data_dir = dir;
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(48, 0.05);
  auto config = BuildShardableConfiguration(graph, MeanSpec(), 1.0);
  ASSERT_TRUE(config.ok());
  {
    // A first life leaves a WAL for every shard to replay.
    auto first = ShardedEngine::Open(graph, options);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(first.value()->LoadConfiguration(config.value(), 1.0).ok());
    InsertRound(*first.value(), 48, 7.0);
  }
  auto sharded = ShardedEngine::Open(graph, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ShardedEngine& engine = *sharded.value();
  const std::vector<std::size_t> parts = engine.active_partitions();
  ASSERT_GE(parts.size(), 2u);

  // Recovery ran in parallel: the facade reports the slowest shard's.
  double slowest = 0.0;
  for (const std::size_t p : parts) {
    const double ms = engine.shard(p)->stats().recovery_duration_ms;
    EXPECT_GT(ms, 0.0) << "shard " << p;
    slowest = std::max(slowest, ms);
  }
  EXPECT_EQ(engine.stats().recovery_duration_ms, slowest);

  // Only the facade's plan cache sees statement text; a shard's own cache,
  // driven directly, stays out of the total.
  const std::string sql =
      "SELECT time, SUM(sales) FROM facts GROUP BY time AS OF now() + '2'";
  ASSERT_TRUE(engine.ParsePlan(sql).ok());
  ASSERT_TRUE(engine.ParsePlan(sql).ok());
  F2dbEngine& first_shard = *engine.shard(parts[0]);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(first_shard.ParsePlan(sql).ok());
  }
  EXPECT_EQ(first_shard.stats().plan_cache_hits, 2u);
  EXPECT_EQ(first_shard.stats().plan_cache_misses, 1u);
  EXPECT_GT(first_shard.stats().plan_cache_invalidations, 0u);
  const EngineStats plans = engine.stats();
  EXPECT_EQ(plans.plan_cache_hits, 1u);
  EXPECT_EQ(plans.plan_cache_misses, 1u);
  EXPECT_EQ(plans.plan_cache_size, 1u);
  EXPECT_EQ(plans.plan_cache_evictions, 0u);
  EXPECT_EQ(plans.plan_cache_invalidations, 0u);

  // Deadline rejections: each shard counts what reached it, and the facade
  // adds the cross-shard queries it rejected before fan-out.
  const auto expired = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  ForecastQuery city = CityQuery("C1", 1);
  city.deadline = expired;
  EXPECT_EQ(engine.Execute(city).status().code(),
            StatusCode::kDeadlineExceeded);
  ForecastQuery all = AllQuery(1);
  all.deadline = expired;
  EXPECT_EQ(engine.Execute(all).status().code(),
            StatusCode::kDeadlineExceeded);
  std::size_t shard_rejections = 0;
  for (const std::size_t p : parts) {
    shard_rejections += engine.shard(p)->stats().deadline_expired_queries;
  }
  EXPECT_EQ(shard_rejections, 1u);
  EXPECT_EQ(engine.stats().deadline_expired_queries, 2u);

  // Compaction age: -1 until every shard has compacted, then the stalest
  // shard's age.
  EXPECT_LT(engine.stats().last_compaction_age_seconds, 0.0);
  ASSERT_TRUE(first_shard.CompactNow().ok());
  EXPECT_GE(first_shard.stats().last_compaction_age_seconds, 0.0);
  EXPECT_LT(engine.stats().last_compaction_age_seconds, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (std::size_t i = 1; i < parts.size(); ++i) {
    ASSERT_TRUE(engine.shard(parts[i])->CompactNow().ok());
  }
  const double stalest_before = first_shard.stats().last_compaction_age_seconds;
  const double merged = engine.stats().last_compaction_age_seconds;
  const double stalest_after = first_shard.stats().last_compaction_age_seconds;
  EXPECT_LE(stalest_before, merged);
  EXPECT_LE(merged, stalest_after);
  for (std::size_t i = 1; i < parts.size(); ++i) {
    EXPECT_LT(engine.shard(parts[i])->stats().last_compaction_age_seconds,
              stalest_before);
  }

  sharded.value().reset();
  f2db::testing::RemoveDirectoryTree(dir);
}

TEST(ShardedEngineTest, TornTailGaugeIsMaxMergedAcrossShards) {
  char tmpl[] = "/tmp/f2db_sharded_torn_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  ShardedEngineOptions options = MakeOptions(2);
  options.engine.data_dir = dir;
  options.engine.fsync_policy = FsyncPolicy::kAlways;
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(48, 0.05);
  std::vector<std::size_t> parts;
  {
    auto first = ShardedEngine::Open(graph, options);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    parts = first.value()->active_partitions();
    InsertRound(*first.value(), 48, 7.0);
  }
  ASSERT_GE(parts.size(), 2u);
  // Tear the final WAL record of two shards.
  for (std::size_t i = 0; i < 2; ++i) {
    const std::string shard_dir = dir + "/shard-" + std::to_string(parts[i]);
    auto epochs = ListWalEpochs(shard_dir);
    ASSERT_TRUE(epochs.ok());
    const std::string last = WalPath(shard_dir, epochs.value().back());
    auto segment = ReadWalSegment(last);
    ASSERT_TRUE(segment.ok());
    ASSERT_EQ(::truncate(last.c_str(),
                         static_cast<off_t>(segment.value().valid_bytes - 3)),
              0);
  }
  {
    auto sharded = ShardedEngine::Open(graph, options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(sharded.value()->shard(parts[i])->stats().torn_tail_detected,
                1u);
    }
    // A 0/1 gauge: two torn shards still read 1.
    EXPECT_EQ(sharded.value()->stats().torn_tail_detected, 1u);
    EXPECT_NE(sharded.value()->StatsPrometheusText().find(
                  "\nf2db_torn_tail_detected 1\n"),
              std::string::npos);
  }
  f2db::testing::RemoveDirectoryTree(dir);
}

TEST(ShardedEngineTest, ExplainMergesCrossShardPlans) {
  std::size_t m = 0;
  for (std::size_t candidate = 2; candidate <= 16; ++candidate) {
    for (const std::string& city : kCities) {
      if (ShardedEngine::PartitionOf(city, candidate) !=
          ShardedEngine::PartitionOf("C1", candidate)) {
        m = candidate;
        break;
      }
    }
    if (m != 0) break;
  }
  ASSERT_NE(m, 0u);

  const TimeSeriesGraph graph = testing::MakeFigure2Cube(48, 0.05);
  auto config = BuildShardableConfiguration(graph, MeanSpec(), 1.0);
  ASSERT_TRUE(config.ok());
  auto sharded = ShardedEngine::Open(graph, MakeOptions(m));
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE(sharded.value()->LoadConfiguration(config.value(), 1.0).ok());

  const auto plan = sharded.value()->Explain(AllQuery(1));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  bool mentions_shard = false;
  for (const std::string& line : plan.value().source_models) {
    mentions_shard = mentions_shard || line.rfind("shard ", 0) == 0;
  }
  EXPECT_TRUE(mentions_shard);
}

}  // namespace
}  // namespace f2db
