// ShardedEngine: hash-partitioned facade over independent F2dbEngine
// shards with scatter-gather queries (DESIGN.md §11).
//
// The cube is partitioned along dimension 0: every level-0 value of the
// first hierarchy hashes (FNV-1a) to one of M partitions, and each
// non-empty partition becomes an independent F2dbEngine over the
// ancestor-closure restriction of the global schema — the partition's
// level-0 values, every coarser dimension-0 value with at least one kept
// child, and all other dimensions in full. Level and value NAMES are
// preserved, so a ForecastQuery resolves unchanged against any shard that
// contains its dimension-0 coordinate.
//
// Routing:
//   - an insert is addressed by level-0 value names; names[0] picks the
//     shard, which buffers and advances independently;
//   - a query whose dimension-0 coordinate rolls up level-0 values of a
//     single partition routes to that shard untouched;
//   - a query spanning several partitions fans out: each contributing
//     shard answers against its own pinned snapshot, and the results merge
//     by summation. The merged result carries the WORST DegradationLevel
//     of any contributing shard, interval half-widths combine in
//     quadrature (sources independent), and the shards' forecast origins
//     must agree — misaligned shard frontiers fail the query with
//     kFailedPrecondition instead of silently summing different periods.
//
// Durability: each shard logs and compacts under
// `<data_dir>/shard-<partition>`, with its own WAL epoch chain, segment
// chain and compaction cadence. Open() recovers all shards in parallel;
// CompactNow() compacts every shard (the server's drain path).
//
// Configuration: shards are independent, so a model must not be placed at
// a node whose dimension-0 coordinate spans partitions —
// LoadConfiguration rejects such placements with kInvalidArgument.
// BuildShardableConfiguration() constructs the canonical shard-safe
// layout: one model per base cell plus covering derivation schemes
// (sources = all covered base cells), whose derivation weight is exactly
// 1 both globally and per shard, so the scatter-gather sum reproduces the
// unsharded answer.

#ifndef F2DB_ENGINE_SHARDED_ENGINE_H_
#define F2DB_ENGINE_SHARDED_ENGINE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/concurrent.h"
#include "common/status.h"
#include "core/configuration.h"
#include "cube/graph.h"
#include "engine/engine.h"
#include "ts/model_factory.h"

namespace f2db {

/// Tuning knobs for a sharded engine.
struct ShardedEngineOptions {
  /// Number of hash partitions M. Partitions that receive no dimension-0
  /// value run no engine; num_shards may exceed the value count.
  std::size_t num_shards = 1;
  /// Per-shard engine options. A non-empty data_dir is the ROOT: shard k
  /// logs and compacts under `<data_dir>/shard-<k>`.
  EngineOptions engine;
};

/// Facade that partitions one cube across M independent F2dbEngine shards.
class ShardedEngine : public EngineInterface {
 public:
  /// Builds the partition schemas from `global_graph`, copies each
  /// partition's base series, and opens every shard — recovering durable
  /// shards from their per-shard directories in parallel. The global
  /// graph is retained (structure only) for query routing and node
  /// naming; its series are NOT advanced by inserts.
  static Result<std::unique_ptr<ShardedEngine>> Open(
      const TimeSeriesGraph& global_graph, ShardedEngineOptions options);

  /// The partition a dimension-0 level-0 value name hashes to (FNV-1a 64).
  static std::size_t PartitionOf(std::string_view value_name,
                                 std::size_t num_shards);

  /// Splits a global configuration into per-shard configurations and
  /// loads each shard (building a per-shard ConfigurationEvaluator with
  /// `train_fraction`). Every model must sit at a node owned by exactly
  /// one partition (kInvalidArgument otherwise), and every non-empty
  /// partition must receive at least one model. Schemes are restricted
  /// per shard: a target keeps the sources that exist in that shard.
  Status LoadConfiguration(const ModelConfiguration& config,
                           double train_fraction);

  // ---------------------------------------------------- EngineInterface

  /// A single-partition query runs on its shard unchanged. A cross-shard
  /// query with decline_refit set is declined before fan-out, so no shard
  /// counts a query that will be run again.
  Result<QueryResult> Execute(const ForecastQuery& query) const override;
  Result<ExplainResult> Explain(const ForecastQuery& query) const override;
  /// Plan-cached parse at the facade: repeat statement shapes skip the
  /// lexer/parser. No node is pre-resolved — routing re-resolves against
  /// the global schema on every execution, so an EXECUTE feeds the exact
  /// same ForecastQuery into Execute() as a raw QUERY would and
  /// scatter-gathers identically (inherits the default ExecutePlanInto).
  Result<PlanPtr> ParsePlan(const std::string& sql) const override;
  Status InsertFact(const std::vector<std::string>& base_values,
                    std::int64_t time, double value) override;
  std::size_t pending_inserts() const override;
  /// Aggregated across shards, each series by its MergeRule in
  /// F2DB_ENGINE_METRICS.
  EngineStats stats() const override;
  std::string StatsPrometheusText() const override;
  bool durable() const override;
  /// Worst disk health across shards: one read-only shard already rejects
  /// a slice of the keyspace, so the facade reports it.
  DiskHealthState disk_health() const;
  /// Compacts every shard (seal + manifest commit + WAL truncation +
  /// retention); attempts all and returns the first error.
  Status CompactNow() override;

  // ------------------------------------------------------- introspection

  /// Configured partition count M (including empty partitions).
  std::size_t num_shards() const { return options_.num_shards; }
  /// Partitions that actually run an engine.
  std::size_t num_active_shards() const { return shards_.size(); }
  /// The engine of one partition; nullptr when the partition is empty.
  F2dbEngine* shard(std::size_t partition);
  const F2dbEngine* shard(std::size_t partition) const;
  /// Ascending partition indices that run an engine.
  std::vector<std::size_t> active_partitions() const;
  /// The retained global graph (routing structure; series not advanced).
  const TimeSeriesGraph& global_graph() const { return *global_graph_; }

 private:
  struct Shard {
    std::size_t partition = 0;
    std::unique_ptr<F2dbEngine> engine;
    /// local_node[global node id] = shard node id, or kNoNode when the
    /// global node does not exist in this shard.
    std::vector<NodeId> local_node;
  };
  static constexpr NodeId kNoNode = static_cast<NodeId>(-1);

  ShardedEngine(ShardedEngineOptions options,
                std::shared_ptr<const TimeSeriesGraph> global_graph);

  /// The partitions whose base cells a dimension-0 coordinate rolls up.
  const std::vector<std::size_t>& PartitionsOfCoord(LevelIndex level,
                                                    ValueIndex value) const;

  const Shard& ShardForPartition(std::size_t partition) const {
    return shards_[slot_of_partition_[partition]];
  }

  const ShardedEngineOptions options_;
  /// Facade-level plan cache behind ParsePlan; shard engines' own caches
  /// sit idle because the facade hands them parsed queries, not text.
  mutable PlanCache plan_cache_;
  /// Queries whose deadline expired before the scatter-gather fan-out
  /// (facade-level; no shard counted them). Summed into stats().
  mutable RelaxedCounter fanout_deadline_expired_;
  std::shared_ptr<const TimeSeriesGraph> global_graph_;
  std::vector<Shard> shards_;
  /// partition -> index into shards_, or SIZE_MAX for empty partitions.
  std::vector<std::size_t> slot_of_partition_;
  /// partition_of_value_[v] = partition of dimension-0 level-0 value v.
  std::vector<std::size_t> partition_of_value_;
  /// partitions_of_coord_[level][value] = sorted partitions under that
  /// dimension-0 coordinate; index num_levels() holds the ALL row.
  std::vector<std::vector<std::vector<std::size_t>>> partitions_of_coord_;
};

/// Builds the canonical shard-safe configuration for a graph: one model
/// of `spec` fit on each base cell's training prefix (falling back to
/// kMean when the fit fails), plus a covering derivation scheme at every
/// node (sources = all covered base cells; weight exactly 1). Loadable
/// into both an unsharded engine and any ShardedEngine over the same
/// graph — the pair produces identical forecasts up to summation order.
Result<ModelConfiguration> BuildShardableConfiguration(
    const TimeSeriesGraph& graph, const ModelSpec& spec,
    double train_fraction);

}  // namespace f2db

#endif  // F2DB_ENGINE_SHARDED_ENGINE_H_
