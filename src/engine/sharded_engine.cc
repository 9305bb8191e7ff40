#include "engine/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <utility>

#include "core/evaluator.h"
#include "cube/cube_schema.h"
#include "cube/hierarchy.h"
#include "engine/stats_export.h"
#include "storage/fsio.h"

namespace f2db {
namespace {

/// Rebuilds one hierarchy verbatim from its read API (for the dimensions
/// a partition keeps in full).
Result<Hierarchy> CopyHierarchy(const Hierarchy& source) {
  Hierarchy copy(source.name());
  const std::size_t levels = source.num_levels();
  for (std::size_t l = 0; l < levels; ++l) {
    std::vector<std::string> names;
    names.reserve(source.num_values(l));
    for (ValueIndex v = 0; v < source.num_values(l); ++v) {
      names.push_back(source.value_name(l, v));
    }
    F2DB_RETURN_IF_ERROR(copy.AddLevel(source.level_name(l), std::move(names)));
  }
  for (std::size_t l = 0; l + 1 < levels; ++l) {
    for (ValueIndex v = 0; v < source.num_values(l); ++v) {
      F2DB_RETURN_IF_ERROR(copy.SetParent(l, v, source.parent_value(l, v)));
    }
  }
  F2DB_RETURN_IF_ERROR(copy.Finalize());
  return copy;
}

/// The ancestor-closure restriction of one partition: kept[l] lists the
/// GLOBAL dimension-0 value indices present at level l (ascending), and
/// local_of[l] maps global value index -> local index (or -1).
struct DimZeroRestriction {
  std::vector<std::vector<ValueIndex>> kept;
  std::vector<std::vector<std::int64_t>> local_of;
};

DimZeroRestriction RestrictDimZero(const Hierarchy& dim0,
                                   const std::vector<std::size_t>& partition_of,
                                   std::size_t partition) {
  const std::size_t levels = dim0.num_levels();
  DimZeroRestriction out;
  out.kept.resize(levels);
  out.local_of.resize(levels);
  for (ValueIndex v = 0; v < dim0.num_values(0); ++v) {
    if (partition_of[v] == partition) out.kept[0].push_back(v);
  }
  for (std::size_t l = 1; l < levels; ++l) {
    std::vector<ValueIndex>& level = out.kept[l];
    for (const ValueIndex child : out.kept[l - 1]) {
      level.push_back(dim0.parent_value(l - 1, child));
    }
    std::sort(level.begin(), level.end());
    level.erase(std::unique(level.begin(), level.end()), level.end());
  }
  for (std::size_t l = 0; l < levels; ++l) {
    out.local_of[l].assign(dim0.num_values(l), -1);
    for (std::size_t i = 0; i < out.kept[l].size(); ++i) {
      out.local_of[l][out.kept[l][i]] = static_cast<std::int64_t>(i);
    }
  }
  return out;
}

/// Builds the partition's restricted dimension-0 hierarchy: same level and
/// value names, parents remapped to local indices.
Result<Hierarchy> BuildRestrictedDimZero(const Hierarchy& dim0,
                                         const DimZeroRestriction& r) {
  Hierarchy restricted(dim0.name());
  const std::size_t levels = dim0.num_levels();
  for (std::size_t l = 0; l < levels; ++l) {
    std::vector<std::string> names;
    names.reserve(r.kept[l].size());
    for (const ValueIndex v : r.kept[l]) {
      names.push_back(dim0.value_name(l, v));
    }
    F2DB_RETURN_IF_ERROR(
        restricted.AddLevel(dim0.level_name(l), std::move(names)));
  }
  for (std::size_t l = 0; l + 1 < levels; ++l) {
    for (std::size_t i = 0; i < r.kept[l].size(); ++i) {
      const ValueIndex parent = dim0.parent_value(l, r.kept[l][i]);
      restricted.SetParent(l, static_cast<ValueIndex>(i),
                           static_cast<ValueIndex>(r.local_of[l + 1][parent]));
    }
  }
  F2DB_RETURN_IF_ERROR(restricted.Finalize());
  return restricted;
}

DegradationLevel Worse(DegradationLevel a, DegradationLevel b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

/// The GLOBAL value index of `value`'s ancestor at `level` (walking the
/// parent chain from level 0). `level` == num_levels() means ALL.
ValueIndex AncestorAt(const Hierarchy& hierarchy, ValueIndex value,
                      LevelIndex level) {
  ValueIndex v = value;
  for (LevelIndex l = 0; l < level; ++l) v = hierarchy.parent_value(l, v);
  return v;
}

}  // namespace

std::size_t ShardedEngine::PartitionOf(std::string_view value_name,
                                       std::size_t num_shards) {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a 64 offset basis
  for (const char c : value_name) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;  // FNV-1a 64 prime
  }
  return num_shards == 0 ? 0 : static_cast<std::size_t>(hash % num_shards);
}

ShardedEngine::ShardedEngine(
    ShardedEngineOptions options,
    std::shared_ptr<const TimeSeriesGraph> global_graph)
    : options_(std::move(options)),
      plan_cache_(options_.engine.plan_cache_capacity),
      global_graph_(std::move(global_graph)) {}

Result<PlanPtr> ShardedEngine::ParsePlan(const std::string& sql) const {
  const std::string key = NormalizeStatementText(sql);
  if (PlanPtr cached = plan_cache_.Lookup(key)) return cached;
  auto plan = std::make_shared<CachedPlan>();
  F2DB_ASSIGN_OR_RETURN(plan->tmpl, ParseStatementTemplate(sql));
  PlanPtr shared = std::move(plan);
  plan_cache_.Insert(key, shared);
  return shared;
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Open(
    const TimeSeriesGraph& global_graph, ShardedEngineOptions options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be at least 1");
  }
  const CubeSchema& schema = global_graph.schema();
  if (schema.num_dimensions() == 0) {
    return Status::InvalidArgument("sharded engine needs a dimensional cube");
  }
  const Hierarchy& dim0 = schema.hierarchy(0);

  // Retain a structural copy of the global graph for routing and naming.
  F2DB_ASSIGN_OR_RETURN(CubeSchema global_schema_copy, [&]() -> Result<CubeSchema> {
    CubeSchema copy;
    for (std::size_t d = 0; d < schema.num_dimensions(); ++d) {
      F2DB_ASSIGN_OR_RETURN(Hierarchy h, CopyHierarchy(schema.hierarchy(d)));
      F2DB_RETURN_IF_ERROR(copy.AddHierarchy(std::move(h)));
    }
    return copy;
  }());
  F2DB_ASSIGN_OR_RETURN(TimeSeriesGraph global_copy,
                        TimeSeriesGraph::Create(std::move(global_schema_copy)));
  for (const NodeId base : global_copy.base_nodes()) {
    const NodeAddress address = global_copy.AddressOf(base);
    F2DB_ASSIGN_OR_RETURN(const NodeId source, global_graph.NodeFor(address));
    F2DB_RETURN_IF_ERROR(
        global_copy.SetBaseSeries(base, global_graph.series(source)));
  }
  F2DB_RETURN_IF_ERROR(global_copy.BuildAggregates());

  auto engine = std::unique_ptr<ShardedEngine>(new ShardedEngine(
      options,
      std::make_shared<const TimeSeriesGraph>(std::move(global_copy))));
  const TimeSeriesGraph& graph = *engine->global_graph_;
  const std::size_t shards = options.num_shards;

  engine->partition_of_value_.resize(dim0.num_values(0));
  for (ValueIndex v = 0; v < dim0.num_values(0); ++v) {
    engine->partition_of_value_[v] = PartitionOf(dim0.value_name(0, v), shards);
  }

  // partitions_of_coord_[l][v]: level 0 is the hash itself; level l unions
  // its children's rows; the extra ALL row unions everything.
  const std::size_t levels = dim0.num_levels();
  engine->partitions_of_coord_.resize(levels + 1);
  engine->partitions_of_coord_[0].resize(dim0.num_values(0));
  for (ValueIndex v = 0; v < dim0.num_values(0); ++v) {
    engine->partitions_of_coord_[0][v] = {engine->partition_of_value_[v]};
  }
  for (std::size_t l = 1; l <= levels; ++l) {
    const std::size_t width = l == levels ? 1 : dim0.num_values(l);
    engine->partitions_of_coord_[l].resize(width);
    const std::size_t child_width = dim0.num_values(l - 1);
    for (ValueIndex child = 0; child < child_width; ++child) {
      const ValueIndex parent =
          l == levels ? 0 : dim0.parent_value(l - 1, child);
      auto& row = engine->partitions_of_coord_[l][parent];
      const auto& child_row = engine->partitions_of_coord_[l - 1][child];
      row.insert(row.end(), child_row.begin(), child_row.end());
    }
    for (auto& row : engine->partitions_of_coord_[l]) {
      std::sort(row.begin(), row.end());
      row.erase(std::unique(row.begin(), row.end()), row.end());
    }
  }

  engine->slot_of_partition_.assign(shards, static_cast<std::size_t>(-1));

  const bool durable = !options.engine.data_dir.empty();
  if (durable) {
    // Shard directories hang off the root; the per-shard recovery path
    // creates each shard's own directory.
    F2DB_RETURN_IF_ERROR(storage::EnsureDir(options.engine.data_dir));
  }

  // Build every non-empty partition's graph, then open all shards in
  // parallel — per-shard recovery (segment load + WAL replay) is the
  // expensive part and the shards are fully independent.
  struct PendingShard {
    std::size_t partition;
    DimZeroRestriction restriction;
    TimeSeriesGraph graph;
    EngineOptions engine_options;
  };
  std::vector<PendingShard> pending;
  for (std::size_t p = 0; p < shards; ++p) {
    DimZeroRestriction restriction =
        RestrictDimZero(dim0, engine->partition_of_value_, p);
    if (restriction.kept[0].empty()) continue;  // empty partition: no engine

    F2DB_ASSIGN_OR_RETURN(Hierarchy restricted,
                          BuildRestrictedDimZero(dim0, restriction));
    CubeSchema shard_schema;
    F2DB_RETURN_IF_ERROR(shard_schema.AddHierarchy(std::move(restricted)));
    for (std::size_t d = 1; d < schema.num_dimensions(); ++d) {
      F2DB_ASSIGN_OR_RETURN(Hierarchy h, CopyHierarchy(schema.hierarchy(d)));
      F2DB_RETURN_IF_ERROR(shard_schema.AddHierarchy(std::move(h)));
    }
    F2DB_ASSIGN_OR_RETURN(TimeSeriesGraph shard_graph,
                          TimeSeriesGraph::Create(std::move(shard_schema)));
    for (const NodeId base : shard_graph.base_nodes()) {
      NodeAddress address = shard_graph.AddressOf(base);
      address.coords[0].value = restriction.kept[0][address.coords[0].value];
      F2DB_ASSIGN_OR_RETURN(const NodeId global_node, graph.NodeFor(address));
      F2DB_RETURN_IF_ERROR(
          shard_graph.SetBaseSeries(base, graph.series(global_node)));
    }
    F2DB_RETURN_IF_ERROR(shard_graph.BuildAggregates());

    EngineOptions shard_options = options.engine;
    if (durable) {
      shard_options.data_dir =
          options.engine.data_dir + "/shard-" + std::to_string(p);
    }
    pending.push_back(PendingShard{p, std::move(restriction),
                                   std::move(shard_graph),
                                   std::move(shard_options)});
  }

  std::vector<std::unique_ptr<F2dbEngine>> opened(pending.size());
  std::vector<Status> open_status(pending.size());
  {
    std::vector<std::thread> threads;
    threads.reserve(pending.size());
    for (std::size_t i = 0; i < pending.size(); ++i) {
      threads.emplace_back([&, i] {
        Result<std::unique_ptr<F2dbEngine>> result = F2dbEngine::Open(
            std::move(pending[i].graph), pending[i].engine_options);
        if (result.ok()) {
          opened[i] = std::move(result).value();
        } else {
          open_status[i] = result.status();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (std::size_t i = 0; i < pending.size(); ++i) {
    if (!open_status[i].ok()) {
      return Status(open_status[i].code(),
                    "shard " + std::to_string(pending[i].partition) + ": " +
                        open_status[i].message());
    }
  }

  // Node translation tables: global node id -> shard node id. A global
  // node exists in a shard iff its dimension-0 value survives the
  // restriction; every other coordinate carries over unchanged.
  engine->shards_.reserve(pending.size());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    Shard shard;
    shard.partition = pending[i].partition;
    shard.engine = std::move(opened[i]);
    shard.local_node.assign(graph.num_nodes(), kNoNode);
    const TimeSeriesGraph& shard_graph = shard.engine->graph();
    const DimZeroRestriction& r = pending[i].restriction;
    for (NodeId node = 0; node < graph.num_nodes(); ++node) {
      NodeAddress address = graph.AddressOf(node);
      const auto [level, value] = address.coords[0];
      if (level < levels) {
        const std::int64_t local = r.local_of[level][value];
        if (local < 0) continue;
        address.coords[0].value = static_cast<ValueIndex>(local);
      }
      Result<NodeId> local = shard_graph.NodeFor(address);
      if (!local.ok()) {
        return Status::Internal("shard node translation failed for " +
                                graph.NodeName(node));
      }
      shard.local_node[node] = local.value();
    }
    engine->slot_of_partition_[shard.partition] = engine->shards_.size();
    engine->shards_.push_back(std::move(shard));
  }
  return engine;
}

Status ShardedEngine::LoadConfiguration(const ModelConfiguration& config,
                                        double train_fraction) {
  const TimeSeriesGraph& graph = *global_graph_;
  if (config.num_nodes() != graph.num_nodes()) {
    return Status::InvalidArgument(
        "configuration sized for a different graph");
  }
  const std::size_t levels = graph.schema().hierarchy(0).num_levels();

  // Every model must live inside exactly one partition: shards maintain
  // their models independently, so a model at a cross-shard aggregate
  // could not be updated by any single shard's time advance.
  for (const NodeId node : config.model_nodes()) {
    const auto [level, value] = graph.AddressOf(node).coords[0];
    const auto& parts = partitions_of_coord_[level][level < levels ? value : 0];
    if (parts.size() != 1) {
      return Status::InvalidArgument(
          "model at " + graph.NodeName(node) +
          " spans multiple shards; place models at single-shard nodes "
          "(see BuildShardableConfiguration)");
    }
  }

  for (Shard& shard : shards_) {
    const TimeSeriesGraph& shard_graph = shard.engine->graph();
    ModelConfiguration shard_config(shard_graph.num_nodes());
    for (const NodeId node : config.model_nodes()) {
      const NodeId local = shard.local_node[node];
      if (local == kNoNode) continue;
      const auto [level, value] = graph.AddressOf(node).coords[0];
      const auto& parts =
          partitions_of_coord_[level][level < levels ? value : 0];
      if (parts[0] != shard.partition) continue;
      const ModelEntry* source = config.entry(node);
      ModelEntry entry;
      entry.model = source->model->Clone();
      entry.creation_seconds = source->creation_seconds;
      entry.test_forecast = source->test_forecast;
      for (const NodeId covered : source->coverage) {
        if (shard.local_node[covered] != kNoNode) {
          entry.coverage.push_back(shard.local_node[covered]);
        }
      }
      shard_config.AddModel(local, std::move(entry));
    }
    if (shard_config.num_models() == 0) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(shard.partition) +
          " received no models; every non-empty partition needs at least "
          "one");
    }
    for (NodeId node = 0; node < graph.num_nodes(); ++node) {
      const NodeId local = shard.local_node[node];
      if (local == kNoNode) continue;
      const NodeAssignment& assignment = config.assignment(node);
      if (assignment.scheme.IsEmpty()) continue;
      NodeAssignment shard_assignment;
      shard_assignment.error = assignment.error;
      std::vector<NodeId> sources;
      for (const NodeId source : assignment.scheme.sources) {
        if (shard.local_node[source] != kNoNode) {
          sources.push_back(shard.local_node[source]);
        }
      }
      if (sources.empty()) continue;  // engine assigns its fallback scheme
      shard_assignment.scheme = DerivationScheme::Multi(std::move(sources));
      shard_config.set_assignment(local, shard_assignment);
    }
    const ConfigurationEvaluator evaluator(shard_graph, train_fraction);
    F2DB_RETURN_IF_ERROR(
        shard.engine->LoadConfiguration(shard_config, evaluator));
  }
  plan_cache_.Invalidate();  // same conservative rule as F2dbEngine
  return Status::OK();
}

const std::vector<std::size_t>& ShardedEngine::PartitionsOfCoord(
    LevelIndex level, ValueIndex value) const {
  const std::size_t levels =
      global_graph_->schema().hierarchy(0).num_levels();
  return partitions_of_coord_[level][level < levels ? value : 0];
}

Result<QueryResult> ShardedEngine::Execute(const ForecastQuery& query) const {
  F2DB_ASSIGN_OR_RETURN(const NodeId global_node,
                        ResolveFilters(*global_graph_, query.filters));
  const auto [level, value] = global_graph_->AddressOf(global_node).coords[0];
  const std::vector<std::size_t>& parts = PartitionsOfCoord(level, value);

  if (parts.size() == 1) {
    // The coordinate rolls up base cells of one partition: level and value
    // names are preserved there, so the query routes through unchanged.
    F2DB_ASSIGN_OR_RETURN(QueryResult result,
                          ShardForPartition(parts[0]).engine->Execute(query));
    result.node = global_node;
    return result;
  }

  // A query that declines refits declines every scatter-gather before
  // fan-out: a shard that declined after its siblings answered would have
  // them count the query twice once the caller reruns it.
  if (query.decline_refit) {
    QueryResult declined;
    declined.refit_declined = true;
    return declined;
  }

  // Deadline gate before fan-out: a cross-shard query multiplies its work
  // by the number of contributing shards, so an expired budget is checked
  // here once instead of discovered M times inside the shards. (The
  // single-partition path above inherits the engine-entry check.)
  if (query.deadline != ForecastQuery::kNoDeadline &&
      std::chrono::steady_clock::now() >= query.deadline) {
    fanout_deadline_expired_.Add();
    return Status::DeadlineExceeded(
        "query deadline expired before scatter-gather fan-out across " +
        std::to_string(parts.size()) + " shards");
  }

  // Scatter-gather: every contributing shard answers against its own
  // pinned snapshot; the pieces sum into the global answer.
  std::vector<std::pair<std::size_t, QueryResult>> pieces;
  pieces.reserve(parts.size());
  for (const std::size_t p : parts) {
    F2DB_ASSIGN_OR_RETURN(QueryResult piece,
                          ShardForPartition(p).engine->Execute(query));
    pieces.emplace_back(p, std::move(piece));
  }

  const std::vector<ForecastRow>& first = pieces.front().second.rows;
  for (const auto& [p, piece] : pieces) {
    if (piece.rows.size() != first.size() ||
        (!first.empty() && piece.rows[0].time != first[0].time)) {
      return Status::FailedPrecondition(
          "cross-shard query over misaligned shard frontiers: shard " +
          std::to_string(p) + " is at a different forecast origin than "
          "shard " + std::to_string(pieces.front().first) +
          "; complete the pending insert round first");
    }
  }

  QueryResult merged;
  merged.node = global_node;
  merged.node_name = global_graph_->NodeName(global_node);
  merged.rows.resize(first.size());
  for (std::size_t h = 0; h < first.size(); ++h) {
    ForecastRow& row = merged.rows[h];
    row.time = first[h].time;
    row.has_interval = true;
    double lower_sq = 0.0;
    double upper_sq = 0.0;
    for (const auto& [p, piece] : pieces) {
      const ForecastRow& src = piece.rows[h];
      row.value += src.value;
      row.degradation = Worse(row.degradation, src.degradation);
      if (!src.has_interval) row.has_interval = false;
      lower_sq += (src.value - src.lower) * (src.value - src.lower);
      upper_sq += (src.upper - src.value) * (src.upper - src.value);
    }
    if (row.has_interval) {
      // Shards are independent, so half-widths combine in quadrature.
      row.lower = row.value - std::sqrt(lower_sq);
      row.upper = row.value + std::sqrt(upper_sq);
    }
  }
  for (const auto& [p, piece] : pieces) {
    merged.degradation = Worse(merged.degradation, piece.degradation);
    if (!piece.degradation_reason.empty()) {
      if (!merged.degradation_reason.empty()) {
        merged.degradation_reason += "; ";
      }
      merged.degradation_reason +=
          "shard " + std::to_string(p) + ": " + piece.degradation_reason;
    }
  }
  return merged;
}

Result<ExplainResult> ShardedEngine::Explain(const ForecastQuery& query) const {
  F2DB_ASSIGN_OR_RETURN(const NodeId global_node,
                        ResolveFilters(*global_graph_, query.filters));
  const auto [level, value] = global_graph_->AddressOf(global_node).coords[0];
  const std::vector<std::size_t>& parts = PartitionsOfCoord(level, value);

  if (parts.size() == 1) {
    F2DB_ASSIGN_OR_RETURN(ExplainResult result,
                          ShardForPartition(parts[0]).engine->Explain(query));
    result.node = global_node;
    return result;
  }

  // A cross-shard plan has no single stored scheme; summarize the
  // per-shard plans. The effective scatter-gather weight is 1 (shards sum
  // directly).
  ExplainResult merged;
  merged.node = global_node;
  merged.node_name = global_graph_->NodeName(global_node);
  merged.horizon = query.horizon;
  merged.weight = 1.0;
  for (const std::size_t p : parts) {
    F2DB_ASSIGN_OR_RETURN(ExplainResult piece,
                          ShardForPartition(p).engine->Explain(query));
    const std::string prefix = "shard " + std::to_string(p) + ": ";
    for (const std::string& line : piece.source_models) {
      merged.source_models.push_back(prefix + line);
    }
  }
  return merged;
}

Status ShardedEngine::InsertFact(const std::vector<std::string>& base_values,
                                 std::int64_t time, double value) {
  const CubeSchema& schema = global_graph_->schema();
  if (base_values.size() != schema.num_dimensions()) {
    return Status::InvalidArgument(
        "expected " + std::to_string(schema.num_dimensions()) +
        " base values, got " + std::to_string(base_values.size()));
  }
  F2DB_ASSIGN_OR_RETURN(const ValueIndex v,
                        schema.hierarchy(0).FindValue(0, base_values[0]));
  return ShardForPartition(partition_of_value_[v])
      .engine->InsertFact(base_values, time, value);
}

std::size_t ShardedEngine::pending_inserts() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.engine->pending_inserts();
  }
  return total;
}

namespace {

/// One series of the facade's total under `rule` (MergeRule), from the
/// shards' snapshots and the facade's own value.
template <MergeRule rule, typename T>
T MergeSeries(const std::vector<EngineStats>& shards, T facade,
              T EngineStats::*field) {
  if constexpr (rule == MergeRule::kFacade) {
    return facade;
  } else if constexpr (rule == MergeRule::kStalest) {
    T stalest = shards.empty() ? -1 : 0;
    for (const EngineStats& s : shards) {
      if (s.*field < 0) return -1;
      stalest = std::max(stalest, s.*field);
    }
    return stalest;
  } else {
    for (const EngineStats& s : shards) {
      facade = rule == MergeRule::kSum ? facade + s.*field
                                       : std::max(facade, s.*field);
    }
    return facade;
  }
}

}  // namespace

/// A row's facade value: the facade-only rows read the facade's own plan
/// cache, the only one that sees statement text; the others start at 0.
#define F2DB_FACADE_kFacade(source, field) \
  F2DB_METRIC_VALUE_##source(stats_, field)
#define F2DB_FACADE_kSum(...) 0
#define F2DB_FACADE_kMax(...) 0
#define F2DB_FACADE_kStalest(...) 0
#define F2DB_MERGE_ROW(field, ctype, source, merge)             \
  total.field = MergeSeries<MergeRule::merge>(                  \
      shards, ctype(F2DB_FACADE_##merge(source, field)), &EngineStats::field);
#define F2DB_MERGE_METRIC(field, ctype, source, type, name, help, merge) \
  F2DB_MERGE_ROW(field, ctype, source, merge)
#define F2DB_MERGE_SAMPLE(field, ctype, source, label_value, merge) \
  F2DB_MERGE_ROW(field, ctype, source, merge)

EngineStats ShardedEngine::ReadStats(std::vector<EngineStats>* read) const {
  for (const Shard& shard : shards_) read->push_back(shard.engine->stats());
  const std::vector<EngineStats>& shards = *read;
  const PlanCache::Counters plan = plan_cache_.counters();
  EngineStats total;
  F2DB_ENGINE_METRICS(F2DB_MERGE_METRIC, F2DB_METRIC_SWALLOW,
                      F2DB_MERGE_SAMPLE)
  // Queries rejected before fan-out belong to the total: no shard saw them.
  total.deadline_expired_queries += fanout_deadline_expired_.Load();
  return total;
}

EngineStats ShardedEngine::stats() const {
  std::vector<EngineStats> shards;
  return ReadStats(&shards);
}

std::string ShardedEngine::StatsPrometheusText() const {
  // The total merges exactly the shard samples printed above it.
  std::vector<EngineStats> shards;
  const EngineStats total = ReadStats(&shards);
  std::vector<std::pair<std::string, EngineStats>> per_shard;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    per_shard.emplace_back(std::to_string(shards_[i].partition), shards[i]);
  }
  return ShardedEngineStatsPrometheusText(per_shard, total);
}

bool ShardedEngine::durable() const {
  return !shards_.empty() && shards_.front().engine->durable();
}

DiskHealthState ShardedEngine::disk_health() const {
  DiskHealthState worst = DiskHealthState::kOk;
  for (const Shard& shard : shards_) {
    worst = std::max(worst, shard.engine->disk_health());
  }
  return worst;
}

Status ShardedEngine::CompactNow() {
  Status first_error = Status::OK();
  for (Shard& shard : shards_) {
    const Status status = shard.engine->CompactNow();
    if (!status.ok() && first_error.ok()) {
      first_error = Status(status.code(), "shard " +
                                              std::to_string(shard.partition) +
                                              ": " + status.message());
    }
  }
  return first_error;
}

F2dbEngine* ShardedEngine::shard(std::size_t partition) {
  if (partition >= slot_of_partition_.size() ||
      slot_of_partition_[partition] == static_cast<std::size_t>(-1)) {
    return nullptr;
  }
  return shards_[slot_of_partition_[partition]].engine.get();
}

const F2dbEngine* ShardedEngine::shard(std::size_t partition) const {
  return const_cast<ShardedEngine*>(this)->shard(partition);
}

std::vector<std::size_t> ShardedEngine::active_partitions() const {
  std::vector<std::size_t> out;
  out.reserve(shards_.size());
  for (const Shard& shard : shards_) out.push_back(shard.partition);
  return out;
}

Result<ModelConfiguration> BuildShardableConfiguration(
    const TimeSeriesGraph& graph, const ModelSpec& spec,
    double train_fraction) {
  const ConfigurationEvaluator evaluator(graph, train_fraction);
  const std::size_t train = evaluator.train_length();
  ModelConfiguration config(graph.num_nodes());

  const ModelFactory factory(spec);
  ModelSpec mean_spec;
  mean_spec.type = ModelType::kMean;
  mean_spec.period = 1;
  const ModelFactory mean_factory(mean_spec);
  for (const NodeId base : graph.base_nodes()) {
    const TimeSeries history = graph.series(base).Head(train);
    Result<std::unique_ptr<ForecastModel>> fitted =
        factory.CreateAndFit(history);
    std::unique_ptr<ForecastModel> model;
    if (fitted.ok()) {
      model = std::move(fitted).value();
    } else {
      F2DB_ASSIGN_OR_RETURN(model, mean_factory.CreateAndFit(history));
    }
    ModelEntry entry;
    entry.model = std::move(model);
    entry.coverage.push_back(base);
    config.AddModel(base, std::move(entry));
  }

  // Covering schemes: each node derives from ALL base cells it rolls up,
  // so the derivation weight h_t / sum h_s is exactly 1 — globally and
  // within any shard's restriction of the scheme.
  const CubeSchema& schema = graph.schema();
  for (NodeId node = 0; node < graph.num_nodes(); ++node) {
    const NodeAddress address = graph.AddressOf(node);
    std::vector<NodeId> sources;
    for (const NodeId base : graph.base_nodes()) {
      const NodeAddress base_address = graph.AddressOf(base);
      bool covered = true;
      for (std::size_t d = 0; d < schema.num_dimensions(); ++d) {
        const Hierarchy& hierarchy = schema.hierarchy(d);
        const auto [level, value] = address.coords[d];
        if (level >= hierarchy.num_levels()) continue;  // ALL covers all
        if (AncestorAt(hierarchy, base_address.coords[d].value, level) !=
            value) {
          covered = false;
          break;
        }
      }
      if (covered) sources.push_back(base);
    }
    NodeAssignment assignment;
    assignment.error = 0.5;
    assignment.scheme = DerivationScheme::Multi(std::move(sources));
    config.set_assignment(node, assignment);
  }
  return config;
}

}  // namespace f2db
