#include "engine/engine.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "engine/recovery.h"
#include "storage/fsio.h"
#include "ts/model_factory.h"
#include "ts/naive_models.h"

namespace f2db {

const char* DegradationLevelName(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kNone:
      return "NONE";
    case DegradationLevel::kStaleModel:
      return "STALE_MODEL";
    case DegradationLevel::kDerivedFallback:
      return "DERIVED_FALLBACK";
    case DegradationLevel::kNaiveFallback:
      return "NAIVE_FALLBACK";
    case DegradationLevel::kUnavailable:
      return "UNAVAILABLE";
  }
  return "UNKNOWN";
}

namespace {

/// Derived-fallback recursion bound: a source that fell back to its own
/// scheme may hit sources that are themselves degraded; beyond this depth
/// the ladder skips to the naive rung instead of walking the graph.
constexpr std::size_t kMaxDerivationDepth = 4;

/// The answer to a query that declined a re-estimation: no rows, nothing
/// counted (ForecastQuery::decline_refit).
Status Declined(QueryResult* out) {
  out->refit_declined = true;
  return Status::OK();
}

/// Evaluates `model` from `state` into a DegradedForecast tagged with
/// `level`/`reason`. Fails with kUnimplemented when variances are requested
/// but unsupported.
Result<DegradedForecast> ForecastFromModel(const ForecastModel& model,
                                           std::span<const double> state,
                                           NodeId source, std::size_t horizon,
                                           bool want_variance,
                                           DegradationLevel level,
                                           std::string reason) {
  DegradedForecast out;
  out.values = model.Forecast(state, horizon);
  if (want_variance) {
    out.variances = model.ForecastVariance(state, horizon);
    if (out.variances.size() != horizon) {
      return Status::Unimplemented("model at node " + std::to_string(source) +
                                   " does not support interval forecasts");
    }
  }
  out.level = level;
  out.reason = std::move(reason);
  return out;
}

}  // namespace

Result<NodeId> ResolveFilters(const TimeSeriesGraph& graph,
                              const std::vector<DimensionFilter>& filters) {
  const CubeSchema& schema = graph.schema();
  // Reused across calls: bound-filter EXECUTEs resolve per request, and
  // the hot path must not pay a coords allocation each time.
  thread_local NodeAddress address;
  thread_local std::vector<bool> constrained;
  address.coords.clear();
  address.coords.resize(schema.num_dimensions());
  constrained.assign(schema.num_dimensions(), false);
  for (std::size_t d = 0; d < schema.num_dimensions(); ++d) {
    address.coords[d] = {
        static_cast<LevelIndex>(schema.hierarchy(d).num_levels()), 0};  // ALL
  }
  for (const DimensionFilter& filter : filters) {
    F2DB_ASSIGN_OR_RETURN(auto hit, schema.FindLevelAnywhere(filter.level));
    const auto [dim, level] = hit;
    if (constrained[dim]) {
      return Status::InvalidArgument(
          "more than one WHERE predicate on dimension '" +
          schema.hierarchy(dim).name() + "'");
    }
    constrained[dim] = true;
    F2DB_ASSIGN_OR_RETURN(ValueIndex value,
                          schema.hierarchy(dim).FindValue(level, filter.value));
    address.coords[dim] = {level, value};
  }
  return graph.NodeFor(address);
}

Result<PlanPtr> EngineInterface::ParsePlan(const std::string& sql) const {
  auto plan = std::make_shared<CachedPlan>();
  F2DB_ASSIGN_OR_RETURN(plan->tmpl, ParseStatementTemplate(sql));
  return PlanPtr(std::move(plan));
}

Status EngineInterface::ExecutePlanInto(const CachedPlan& plan,
                                        const ForecastQuery& query,
                                        QueryResult* out) const {
  (void)plan;
  F2DB_ASSIGN_OR_RETURN(*out, Execute(query));
  return Status::OK();
}

F2dbEngine::F2dbEngine(TimeSeriesGraph graph, EngineOptions options)
    : options_(options), plan_cache_(options.plan_cache_capacity) {
  auto owned = std::make_shared<TimeSeriesGraph>(std::move(graph));
  base_slot_.assign(owned->num_nodes(), kNoBaseSlot);
  for (std::size_t i = 0; i < owned->base_nodes().size(); ++i) {
    base_slot_[owned->base_nodes()[i]] = static_cast<std::uint32_t>(i);
  }
  auto initial = std::make_shared<EngineSnapshot>();
  initial->schemes =
      SharedTable<std::vector<NodeId>>(std::vector<std::vector<NodeId>>(
          owned->num_nodes()));
  std::vector<double> sums(owned->num_nodes(), 0.0);
  for (NodeId node = 0; node < owned->num_nodes(); ++node) {
    sums[node] = owned->series(node).Sum();
  }
  initial->history_sums = SharedTable<double>(std::move(sums));
  initial->models = ModelTable(owned->num_nodes());
  initial->graph = std::move(owned);
  snapshot_.store(std::move(initial), std::memory_order_release);
}

F2dbEngine::~F2dbEngine() {
  if (compaction_thread_.joinable() || probe_thread_.joinable() ||
      scrub_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(background_mutex_);
      stopping_ = true;
    }
    background_cv_.notify_all();
    if (compaction_thread_.joinable()) compaction_thread_.join();
    if (probe_thread_.joinable()) probe_thread_.join();
    if (scrub_thread_.joinable()) scrub_thread_.join();
  }
  if (wal_) {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    wal_->Close();
  }
}

Result<std::unique_ptr<F2dbEngine>> F2dbEngine::Open(TimeSeriesGraph graph,
                                                     EngineOptions options) {
  auto engine = std::make_unique<F2dbEngine>(std::move(graph), options);
  if (options.data_dir.empty()) return engine;

  // Recovery runs single-threaded: the engine exists but no other thread
  // can reach it yet, so the replay callbacks use the regular maintenance
  // paths (with logging suppressed — replayed records are already logged).
  RecoveryCallbacks callbacks;
  callbacks.apply_segments = [&engine](
                                 const storage::ManifestData& manifest,
                                 std::vector<storage::SegmentData>&& chain) {
    return engine->ApplySegmentState(manifest, std::move(chain));
  };
  callbacks.apply_record = [&engine](const WalRecord& record) {
    return engine->ApplyWalRecord(record);
  };
  F2DB_ASSIGN_OR_RETURN(RecoveryInfo info,
                        RunRecovery(options.data_dir, callbacks));
  engine->PublishBookkeepingRun();
  engine->recovery_ = info;
  engine->reseal_segments_ = info.segment_fallback;

  auto writer =
      info.create_segment
          ? WalWriter::Create(options.data_dir, info.append_epoch,
                              options.fsync_policy, options.wal_batch_records)
          : WalWriter::Reopen(options.data_dir, info.append_epoch,
                              info.append_valid_bytes, options.fsync_policy,
                              options.wal_batch_records);
  if (!writer.ok()) return writer.status();
  engine->wal_ = std::make_unique<WalWriter>(std::move(writer.value()));

  // The segment store opens AFTER recovery: recovery reads the manifest
  // and chain straight from disk, then the store cleans up whatever a
  // crash orphaned (half-written segments, retention leftovers).
  F2DB_ASSIGN_OR_RETURN(engine->store_,
                        storage::SegmentStore::Open(options.data_dir));

  if (options.compaction_interval_seconds > 0.0) {
    engine->compaction_thread_ =
        std::thread([raw = engine.get()] { raw->CompactionLoop(); });
  }
  if (options.disk_probe_interval_seconds > 0.0) {
    engine->probe_thread_ =
        std::thread([raw = engine.get()] { raw->ProbeLoop(); });
  }
  if (options.scrub_interval_seconds > 0.0) {
    engine->scrub_thread_ =
        std::thread([raw = engine.get()] { raw->ScrubLoop(); });
  }
  return engine;
}

const TimeSeriesGraph& F2dbEngine::graph() const {
  return *LoadSnapshot()->graph;
}

EngineStats F2dbEngine::stats() const {
  const PlanCache::Counters plan = plan_cache_.counters();
  const DiskHealthCounters disk = disk_health_.counters();
  EngineStats out;
  F2DB_ENGINE_METRICS(F2DB_METRIC_COPY_ROW, F2DB_METRIC_SWALLOW,
                      F2DB_METRIC_COPY_ROW)
  return out;
}

double F2dbEngine::LastCompactionAgeSeconds() const {
  const double last = last_compaction_seconds_.load(std::memory_order_relaxed);
  return last < 0.0 ? -1.0 : uptime_.ElapsedSeconds() - last;
}

void F2dbEngine::Publish(std::shared_ptr<EngineSnapshot> next) const {
  snapshot_.store(std::move(next), std::memory_order_release);
}

ThreadPool* F2dbEngine::MaintenancePool() const {
  if (options_.maintenance_threads == 1) return nullptr;
  std::call_once(pool_once_, [this] {
    const std::size_t threads = options_.maintenance_threads == 0
                                    ? ThreadPool::DefaultConcurrency()
                                    : options_.maintenance_threads;
    pool_ = std::make_unique<ThreadPool>(threads);
  });
  return pool_.get();
}

Status F2dbEngine::LoadConfiguration(const ModelConfiguration& config,
                                     const ConfigurationEvaluator& evaluator) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const SnapshotPtr cur = LoadSnapshot();
  const TimeSeriesGraph& graph = *cur->graph;
  if (config.num_nodes() != graph.num_nodes()) {
    return Status::InvalidArgument(
        "configuration and engine graph have different node counts");
  }
  const std::vector<NodeId> model_nodes = config.model_nodes();
  if (model_nodes.empty()) {
    return Status::FailedPrecondition("configuration contains no models");
  }

  auto next = cur->CopyForWrite();

  // Install models: clone the advisor's fitted model (trained on the
  // training prefix) and catch it up to the full stored history through
  // incremental updates — exactly the maintenance path. Catch-up is
  // per-model independent and fans out across the maintenance pool.
  const std::size_t train_length = evaluator.train_length();
  std::vector<ModelTable::Entry> built(model_nodes.size());
  const auto catch_up = [&](std::size_t i) {
    const NodeId node = model_nodes[i];
    const ModelEntry* entry = config.entry(node);
    std::unique_ptr<ForecastModel> model = entry->model->Clone();
    const TimeSeries& series = graph.series(node);
    for (std::size_t t = train_length; t < series.size(); ++t) {
      model->Update(series[t]);
    }
    built[i].node = node;
    built[i].model = std::move(model);
    built[i].record.creation_seconds = entry->creation_seconds;
  };
  if (ThreadPool* pool = MaintenancePool()) {
    pool->ParallelFor(model_nodes.size(), catch_up);
  } else {
    for (std::size_t i = 0; i < model_nodes.size(); ++i) catch_up(i);
  }
  next->models.Assign(std::move(built));

  // Install schemes; uncovered nodes fall back to their nearest model node.
  std::vector<std::vector<NodeId>>& schemes = next->schemes.Mutable();
  for (NodeId node = 0; node < graph.num_nodes(); ++node) {
    const NodeAssignment& assignment = config.assignment(node);
    if (!assignment.scheme.IsEmpty()) {
      schemes[node] = assignment.scheme.sources;
      continue;
    }
    NodeId best = model_nodes.front();
    std::size_t best_distance = std::numeric_limits<std::size_t>::max();
    for (NodeId m : model_nodes) {
      const std::size_t distance = graph.Distance(node, m);
      if (distance < best_distance) {
        best_distance = distance;
        best = m;
      }
    }
    schemes[node] = {best};
  }
  // Log the configuration before it becomes visible: a crash after the
  // append replays into this exact state (the caught-up models included),
  // a crash before it leaves the previous state — either way WAL and
  // published state agree.
  F2DB_RETURN_IF_ERROR(WalAppendLocked(
      WalRecord::Catalog(CatalogFromSnapshot(*next).SerializeToString())));
  Publish(std::move(next));
  // Conservative: plans pre-resolve against graph structure only (which a
  // configuration install never changes today), but dropping the cache on
  // every configuration-bearing install keeps that reasoning local.
  plan_cache_.Invalidate();
  return Status::OK();
}

Status F2dbEngine::LoadCatalog(const ConfigurationCatalog& catalog) {
  return LoadCatalogImpl(catalog, /*log=*/true);
}

Status F2dbEngine::LoadCatalogImpl(const ConfigurationCatalog& catalog,
                                   bool log) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const SnapshotPtr cur = LoadSnapshot();
  auto next = cur->CopyForWrite();
  std::vector<std::vector<NodeId>>& schemes = next->schemes.Mutable();
  for (auto& scheme : schemes) scheme.clear();
  std::vector<ModelTable::Entry> models;
  models.reserve(catalog.model_table().size());
  for (const ModelRow& row : catalog.model_table()) {
    // Per-row injection point: any row failing must abort the whole load
    // with the previous state still published (transactional contract).
    F2DB_INJECT_FAILPOINT(kFailpointCatalogDecode);
    if (row.node >= cur->graph->num_nodes()) {
      return Status::OutOfRange("model row references unknown node");
    }
    F2DB_ASSIGN_OR_RETURN(std::unique_ptr<ForecastModel> model,
                          ModelFactory::DeserializeModel(row.payload));
    ModelTable::Entry& entry = models.emplace_back();
    entry.node = row.node;
    entry.model = std::move(model);
    entry.record.creation_seconds = row.creation_seconds;
  }
  next->models.Assign(std::move(models));  // a later row for a node wins
  for (const SchemeRow& row : catalog.scheme_table()) {
    if (row.target >= cur->graph->num_nodes()) {
      return Status::OutOfRange("scheme row references unknown node");
    }
    for (NodeId s : row.sources) {
      if (s >= cur->graph->num_nodes()) {
        return Status::OutOfRange("scheme source references unknown node");
      }
    }
    schemes[row.target] = row.sources;
  }
  // A scheme source needs either a stored model or a derivation scheme of
  // its own (the query path serves the latter through the degraded-fallback
  // ladder). Validated after both tables are installed because a source's
  // scheme row may follow the row that references it.
  for (const SchemeRow& row : catalog.scheme_table()) {
    for (NodeId s : row.sources) {
      if (!next->models.Find(s) && schemes[s].empty()) {
        return Status::InvalidArgument(
            "scheme source " + std::to_string(s) +
            " has neither a stored model nor a derivation scheme");
      }
    }
  }
  // All rows validated — log, then only now does the state become visible.
  if (log) {
    F2DB_RETURN_IF_ERROR(
        WalAppendLocked(WalRecord::Catalog(catalog.SerializeToString())));
  }
  Publish(std::move(next));
  plan_cache_.Invalidate();  // same conservative rule as LoadConfiguration
  return Status::OK();
}

ConfigurationCatalog F2dbEngine::CatalogFromSnapshot(const EngineSnapshot& snap) {
  ConfigurationCatalog catalog;
  for (NodeId node = 0; node < snap.graph->num_nodes(); ++node) {
    if (snap.schemes[node].empty()) continue;
    SchemeRow row;
    row.target = node;
    row.sources = snap.schemes[node];
    row.weight = snap.Weight(row.sources, node);
    catalog.scheme_table().push_back(std::move(row));
  }
  for (const ModelView live : snap.models) {  // slots are in node order
    ModelRow row;
    row.node = live.node;
    row.payload = ModelFactory::SerializeModel(*live.model, live.state);
    row.creation_seconds = live.record->creation_seconds;
    catalog.model_table().push_back(std::move(row));
  }
  return catalog;
}

Result<ConfigurationCatalog> F2dbEngine::ExportCatalog() const {
  return CatalogFromSnapshot(*LoadSnapshot());
}

Result<QueryResult> F2dbEngine::ExecuteSql(const std::string& sql) const {
  F2DB_ASSIGN_OR_RETURN(ForecastQuery query, ParseForecastQuery(sql));
  return Execute(query);
}

Status F2dbEngine::CheckQueryDeadline(const ForecastQuery& query) const {
  // Deadline gate: a query whose budget is already spent answers
  // kDeadlineExceeded before any node resolution or forecast work — dead
  // work never reaches a model.
  if (query.deadline != ForecastQuery::kNoDeadline &&
      std::chrono::steady_clock::now() >= query.deadline) {
    stats_.deadline_expired_queries.Add();
    return Status::DeadlineExceeded("query deadline expired before execution");
  }
  return Status::OK();
}

Result<QueryResult> F2dbEngine::Execute(const ForecastQuery& query) const {
  QueryResult result;
  F2DB_RETURN_IF_ERROR(ExecuteInto(query, &result));
  return result;
}

Status F2dbEngine::ExecuteInto(const ForecastQuery& query,
                               QueryResult* out) const {
  F2DB_RETURN_IF_ERROR(CheckQueryDeadline(query));
  const SnapshotPtr snap = LoadSnapshot();
  F2DB_ASSIGN_OR_RETURN(NodeId node,
                        ResolveFilters(*snap->graph, query.filters));
  out->node = node;
  snap->graph->NodeNameInto(node, &out->node_name);
  return ForecastIntoResult(snap, node, query, out);
}

Result<PlanPtr> F2dbEngine::ParsePlan(const std::string& sql) const {
  const std::string key = NormalizeStatementText(sql);
  if (PlanPtr cached = plan_cache_.Lookup(key)) return cached;
  auto plan = std::make_shared<CachedPlan>();
  F2DB_ASSIGN_OR_RETURN(plan->tmpl, ParseStatementTemplate(sql));
  if (plan->tmpl.statement.kind != Statement::Kind::kInsert) {
    // Pre-resolve the node unless a filter value arrives at bind time.
    // Resolution is a pure function of graph STRUCTURE, which is fixed for
    // this engine's lifetime — so the resolved id stays valid across every
    // snapshot install (the insert → refit → execute property suites pin
    // this). An unresolvable filter is a real error and fails here, at
    // PREPARE time, exactly like the unprepared path fails at QUERY time.
    bool binds_filters = false;
    for (const BindSlot& slot : plan->tmpl.slots) {
      binds_filters |= slot.kind == BindSlot::Kind::kFilterValue;
    }
    if (!binds_filters) {
      const SnapshotPtr snap = LoadSnapshot();
      F2DB_ASSIGN_OR_RETURN(
          plan->resolved_node,
          ResolveFilters(*snap->graph, plan->tmpl.statement.forecast.filters));
      plan->node_name = snap->graph->NodeName(plan->resolved_node);
    }
  }
  PlanPtr shared = std::move(plan);
  plan_cache_.Insert(key, shared);
  return shared;
}

Status F2dbEngine::ExecutePlanInto(const CachedPlan& plan,
                                   const ForecastQuery& query,
                                   QueryResult* out) const {
  F2DB_RETURN_IF_ERROR(CheckQueryDeadline(query));
  const SnapshotPtr snap = LoadSnapshot();
  NodeId node;
  if (plan.has_resolved_node()) {
    node = plan.resolved_node;
    out->node = node;
    out->node_name.assign(plan.node_name);  // reuses the buffer's capacity
  } else {
    F2DB_ASSIGN_OR_RETURN(node, ResolveFilters(*snap->graph, query.filters));
    out->node = node;
    snap->graph->NodeNameInto(node, &out->node_name);
  }
  return ForecastIntoResult(snap, node, query, out);
}

Status F2dbEngine::ForecastIntoResult(const SnapshotPtr& snap, NodeId node,
                                      const ForecastQuery& query,
                                      QueryResult* out) const {
  StopWatch watch;
  out->rows.clear();
  out->degradation = DegradationLevel::kNone;
  out->degradation_reason.clear();
  out->refit_declined = false;
  if (node >= snap->graph->num_nodes()) {
    return Status::OutOfRange("node id out of range");
  }
  const std::int64_t now = snap->graph->series(node).end_time();
  const std::size_t horizon = query.horizon;
  // A read-only engine serves queries like a brownout: refits are skipped
  // (they could not be WAL-logged anyway) and rows carry the annotation.
  const RefitMode mode =
      query.brownout || (wal_ != nullptr && disk_health_.read_only())
          ? RefitMode::kSkip
          : (query.decline_refit ? RefitMode::kDecline : RefitMode::kRefit);

  // Hot path (EXECUTE / repeat QUERY shapes): a point query whose scheme
  // sources all carry valid models evaluates batched — each model walks
  // its state ONCE emitting every horizon into recycled per-thread
  // buffers, with no DegradedForecast/reason churn. Any degradation (or
  // the interval path) falls through to the general ladder below.
  if (!query.with_intervals) {
    const std::vector<NodeId>& sources = snap->schemes[node];
    bool all_valid = !sources.empty();
    for (NodeId source : sources) {
      const ModelView live = snap->models.Find(source);
      if (!live || live.record->invalid || !live.model->is_fitted()) {
        all_valid = false;
        break;
      }
    }
    if (all_valid) {
      thread_local std::vector<double> values;
      thread_local std::vector<double> source_scratch;
      if (sources.size() == 1) {
        const ModelView live = snap->models.Find(sources[0]);
        live.model->ForecastInto(live.state, horizon, &values);
      } else {
        values.clear();
        values.resize(horizon, 0.0);
        for (NodeId source : sources) {
          const ModelView live = snap->models.Find(source);
          live.model->ForecastInto(live.state, horizon, &source_scratch);
          for (std::size_t h = 0; h < horizon; ++h) {
            values[h] += source_scratch[h];
          }
        }
      }
      const double weight = snap->Weight(sources, node);
      if (out->rows.capacity() < horizon) out->rows.reserve(horizon);
      for (std::size_t h = 0; h < horizon; ++h) {
        ForecastRow row;
        row.time = now + static_cast<std::int64_t>(h);
        row.value = values[h] * weight;
        out->rows.push_back(row);
      }
      stats_.queries.Add();
      stats_.total_query_seconds.Add(watch.ElapsedSeconds());
      return Status::OK();
    }
  }

  if (query.with_intervals) {
    F2DB_ASSIGN_OR_RETURN(
        DegradedForecast forecast,
        ForecastInternal(snap, node, horizon, /*want_variance=*/true, mode));
    if (forecast.refit_declined) return Declined(out);
    F2DB_ASSIGN_OR_RETURN(
        std::vector<ForecastInterval> intervals,
        IntervalsFromMoments(forecast.values, forecast.variances,
                             query.confidence));
    out->degradation = forecast.level;
    out->degradation_reason = std::move(forecast.reason);
    out->rows.reserve(intervals.size());
    for (std::size_t h = 0; h < intervals.size(); ++h) {
      ForecastRow row;
      row.time = now + static_cast<std::int64_t>(h);
      row.value = intervals[h].point;
      row.lower = intervals[h].lower;
      row.upper = intervals[h].upper;
      row.has_interval = true;
      row.degradation = out->degradation;
      out->rows.push_back(row);
    }
  } else {
    F2DB_ASSIGN_OR_RETURN(
        DegradedForecast forecast,
        ForecastInternal(snap, node, horizon, /*want_variance=*/false, mode));
    if (forecast.refit_declined) return Declined(out);
    out->degradation = forecast.level;
    out->degradation_reason = std::move(forecast.reason);
    out->rows.reserve(forecast.values.size());
    for (std::size_t h = 0; h < forecast.values.size(); ++h) {
      ForecastRow row;
      row.time = now + static_cast<std::int64_t>(h);
      row.value = forecast.values[h];
      row.degradation = out->degradation;
      out->rows.push_back(row);
    }
  }
  CountDegradedRows(out->degradation, out->rows.size());
  stats_.queries.Add();
  stats_.total_query_seconds.Add(watch.ElapsedSeconds());
  return Status::OK();
}

Result<ExplainResult> F2dbEngine::Explain(const ForecastQuery& query) const {
  const SnapshotPtr snap = LoadSnapshot();
  F2DB_ASSIGN_OR_RETURN(NodeId node,
                        ResolveFilters(*snap->graph, query.filters));
  ExplainResult out;
  out.node = node;
  out.node_name = snap->graph->NodeName(node);
  out.sources = snap->schemes[node];
  out.weight = snap->Weight(out.sources, node);
  out.horizon = query.horizon;
  for (NodeId source : out.sources) {
    const ModelView live = snap->models.Find(source);
    std::string description = "node " + std::to_string(source) + " (" +
                              snap->graph->NodeName(source) + "): ";
    if (!live) {
      description += "<missing model>";
    } else {
      description += ModelTypeName(live.model->type());
      description +=
          ", " + std::to_string(live.model->num_parameters()) + " params";
      if (live.record->invalid) description += ", INVALID (lazy re-estimate)";
      if (live.record->quarantined) {
        description += ", QUARANTINED (" +
                       std::to_string(live.record->refit_failures) +
                       " refit failures)";
      }
    }
    out.source_models.push_back(std::move(description));
  }
  return out;
}

Result<std::string> F2dbEngine::ExecuteStatementText(const std::string& sql) {
  F2DB_ASSIGN_OR_RETURN(Statement statement, ParseStatement(sql));
  std::string out;
  char buffer[160];
  switch (statement.kind) {
    case Statement::Kind::kForecast: {
      F2DB_ASSIGN_OR_RETURN(QueryResult result, Execute(statement.forecast));
      out = "-- node: " + graph().NodeName(result.node) + "\n";
      if (result.degradation != DegradationLevel::kNone) {
        out += "-- degraded: " +
               std::string(DegradationLevelName(result.degradation)) + " (" +
               result.degradation_reason + ")\n";
      }
      for (const ForecastRow& row : result.rows) {
        if (row.has_interval) {
          std::snprintf(buffer, sizeof(buffer), "%lld | %.4f  [%.4f, %.4f]\n",
                        static_cast<long long>(row.time), row.value, row.lower,
                        row.upper);
        } else {
          std::snprintf(buffer, sizeof(buffer), "%lld | %.4f\n",
                        static_cast<long long>(row.time), row.value);
        }
        out += buffer;
      }
      break;
    }
    case Statement::Kind::kInsert: {
      F2DB_RETURN_IF_ERROR(InsertFact(statement.insert.base_values,
                                      statement.insert.time,
                                      statement.insert.value));
      std::snprintf(buffer, sizeof(buffer),
                    "INSERT ok (%zu buffered, %zu advances)\n",
                    pending_inserts(), stats_.time_advances.Load());
      out = buffer;
      break;
    }
    case Statement::Kind::kExplain: {
      F2DB_ASSIGN_OR_RETURN(ExplainResult plan, Explain(statement.forecast));
      out = "Forecast Query Plan\n";
      out += "  node:    " + plan.node_name + " (#" +
             std::to_string(plan.node) + ")\n";
      out += "  horizon: " + std::to_string(plan.horizon) + "\n";
      std::snprintf(buffer, sizeof(buffer), "  weight:  %.6f\n", plan.weight);
      out += buffer;
      out += "  scheme:  " +
             std::string(plan.sources.size() == 1 &&
                                 plan.sources[0] == plan.node
                             ? "direct"
                             : (plan.sources.size() == 1 ? "derivation"
                                                         : "multi-source")) +
             " from " + std::to_string(plan.sources.size()) + " model(s)\n";
      for (const std::string& m : plan.source_models) {
        out += "    " + m + "\n";
      }
      break;
    }
  }
  return out;
}

Result<NodeId> F2dbEngine::ResolveNode(
    const std::vector<DimensionFilter>& filters) const {
  const SnapshotPtr snap = LoadSnapshot();
  return ResolveFilters(*snap->graph, filters);
}

Result<std::vector<double>> F2dbEngine::ForecastNode(NodeId node,
                                                     std::size_t horizon) const {
  return ForecastNode(LoadSnapshot(), node, horizon);
}

Result<std::vector<double>> F2dbEngine::ForecastNode(
    const SnapshotPtr& snapshot, NodeId node, std::size_t horizon) const {
  StopWatch watch;
  F2DB_ASSIGN_OR_RETURN(
      DegradedForecast forecast,
      ForecastInternal(snapshot, node, horizon, /*want_variance=*/false));
  CountDegradedRows(forecast.level, forecast.values.size());
  stats_.queries.Add();
  stats_.total_query_seconds.Add(watch.ElapsedSeconds());
  return std::move(forecast.values);
}

Result<std::vector<ForecastInterval>> F2dbEngine::ForecastNodeWithIntervals(
    NodeId node, std::size_t horizon, double confidence) const {
  StopWatch watch;
  const SnapshotPtr snap = LoadSnapshot();
  F2DB_ASSIGN_OR_RETURN(
      DegradedForecast forecast,
      ForecastInternal(snap, node, horizon, /*want_variance=*/true));
  F2DB_ASSIGN_OR_RETURN(
      std::vector<ForecastInterval> intervals,
      IntervalsFromMoments(forecast.values, forecast.variances, confidence));
  CountDegradedRows(forecast.level, intervals.size());
  stats_.queries.Add();
  stats_.total_query_seconds.Add(watch.ElapsedSeconds());
  return intervals;
}

Result<DegradedForecast> F2dbEngine::ForecastInternal(
    const SnapshotPtr& snapshot, NodeId node, std::size_t horizon,
    bool want_variance, RefitMode mode) const {
  if (node >= snapshot->graph->num_nodes()) {
    return Status::OutOfRange("node id out of range");
  }
  return CombineScheme(snapshot, node, horizon, want_variance, mode,
                       /*depth=*/0);
}

Result<DegradedForecast> F2dbEngine::CombineScheme(const SnapshotPtr& snapshot,
                                                   NodeId node,
                                                   std::size_t horizon,
                                                   bool want_variance,
                                                   RefitMode mode,
                                                   std::size_t depth) const {
  const std::vector<NodeId>& sources = snapshot->schemes[node];
  if (sources.empty()) {
    return Status::FailedPrecondition("no derivation scheme stored for node " +
                                      snapshot->graph->NodeName(node));
  }
  DegradedForecast out;
  out.values.assign(horizon, 0.0);
  if (want_variance) out.variances.assign(horizon, 0.0);
  for (NodeId source : sources) {
    F2DB_ASSIGN_OR_RETURN(
        DegradedForecast from_source,
        ForecastSource(snapshot, source, horizon, want_variance, mode,
                       depth));
    if (from_source.refit_declined) return from_source;
    for (std::size_t h = 0; h < horizon; ++h) {
      out.values[h] += from_source.values[h];
      if (want_variance) out.variances[h] += from_source.variances[h];
    }
    // Report the worst rung any source had to fall to.
    if (from_source.level > out.level) {
      out.level = from_source.level;
      out.reason = std::move(from_source.reason);
    }
  }
  const double weight = snapshot->Weight(sources, node);
  for (std::size_t h = 0; h < horizon; ++h) {
    out.values[h] *= weight;
    if (want_variance) out.variances[h] *= weight * weight;
  }
  return out;
}

Result<DegradedForecast> F2dbEngine::ForecastSource(const SnapshotPtr& snapshot,
                                                    NodeId source,
                                                    std::size_t horizon,
                                                    bool want_variance,
                                                    RefitMode mode,
                                                    std::size_t depth) const {
  const ModelView live = snapshot->models.Find(source);

  // Primary path: a valid published model.
  if (live && !live.record->invalid) {
    return ForecastFromModel(*live.model, live.state, source, horizon,
                             want_variance, DegradationLevel::kNone, "");
  }

  std::string reason;
  if (!live) {
    // Previously a hard kInternal; now the first rung of the ladder.
    reason = "scheme source " + std::to_string(source) + " lost its model";
  } else {
    // Invalid entry: lazy re-estimation, copy-on-write — fit a fresh clone
    // on this snapshot's full stored history. The published (invalid)
    // entry is never mutated, so concurrent readers of `snapshot` are
    // unaffected. Quarantined or backing-off nodes skip the attempt, and
    // so do brownout queries: re-estimation is the expensive step the
    // serving layer sheds first under overload. A declining query stops
    // here, before the fit and its failpoint, counters and offers.
    if (mode == RefitMode::kSkip) {
      stats_.brownout_refits_skipped.Add();
      reason = "node " + std::to_string(source) +
               " re-estimation skipped under brownout";
    } else if (RefitAllowed(*live.record)) {
      if (mode == RefitMode::kDecline) {
        DegradedForecast declined;
        declined.refit_declined = true;
        return declined;
      }
      StopWatch watch;
      std::unique_ptr<ForecastModel> refit = live.model->Clone();
      const Status fitted =
          failpoint::Triggered(kFailpointEngineRefit)
              ? failpoint::InjectedFailure(kFailpointEngineRefit)
              : refit->Fit(snapshot->graph->series(source));
      if (fitted.ok()) {
        std::shared_ptr<const ForecastModel> model = std::move(refit);
        stats_.reestimates.Add();
        stats_.total_maintenance_seconds.Add(watch.ElapsedSeconds());
        OfferReestimate(source, live.record->generation, model,
                        live.record->creation_seconds);
        return ForecastFromModel(*model, model->state(), source, horizon,
                                 want_variance, DegradationLevel::kNone, "");
      }
      stats_.refit_failures.Add();
      OfferRefitFailure(source, *live.record);
      reason = "re-estimation of node " + std::to_string(source) +
               " failed: " + fitted.message();
    } else if (live.record->quarantined) {
      reason = "node " + std::to_string(source) + " quarantined after " +
               std::to_string(live.record->refit_failures) +
               " failed re-estimations";
    } else {
      reason = "node " + std::to_string(source) +
               " inside re-estimation retry backoff";
    }

    // Rung 1: the stale pre-invalidation model. Its parameters are out of
    // date but its state was advanced through every insert, so it still
    // produces a usable forecast for this snapshot's frontier.
    if (live.model->is_fitted()) {
      return ForecastFromModel(*live.model, live.state, source, horizon,
                               want_variance, DegradationLevel::kStaleModel,
                               reason + "; serving stale model");
    }
  }

  // Rung 2: recompute the source through its OWN stored derivation scheme
  // (bounded recursion; schemes that reference the source itself cannot
  // help and are skipped).
  if (depth < kMaxDerivationDepth) {
    const std::vector<NodeId>& scheme = snapshot->schemes[source];
    const bool refers_self =
        std::find(scheme.begin(), scheme.end(), source) != scheme.end();
    if (!scheme.empty() && !refers_self) {
      Result<DegradedForecast> derived =
          CombineScheme(snapshot, source, horizon, want_variance, mode,
                        depth + 1);
      if (derived.ok()) {
        if (derived.value().refit_declined) return derived;
        DegradedForecast out = std::move(derived).value();
        out.level = std::max(out.level, DegradationLevel::kDerivedFallback);
        out.reason = reason + "; served via the node's derivation scheme";
        return out;
      }
    }
  }

  // Rung 3: a drift model fit on the snapshot's stored history — always
  // cheap, needs no stored model, and supports variances.
  DriftModel drift;
  const Status drift_fitted = drift.Fit(snapshot->graph->series(source));
  if (drift_fitted.ok()) {
    return ForecastFromModel(drift, drift.state(), source, horizon,
                             want_variance, DegradationLevel::kNaiveFallback,
                             reason + "; serving naive drift fallback");
  }

  return Status::Unavailable("forecast unavailable for node " +
                             std::to_string(source) + ": " + reason +
                             "; drift fallback failed: " +
                             drift_fitted.message());
}

bool F2dbEngine::RefitAllowed(const ModelRecord& live) const {
  if (live.quarantined) return false;
  if (live.refit_failures == 0) return true;
  if (options_.refit_retry_backoff_seconds <= 0.0) return true;
  const std::size_t exponent =
      std::min<std::size_t>(live.refit_failures - 1, 30);
  const double wait = options_.refit_retry_backoff_seconds *
                      static_cast<double>(std::size_t{1} << exponent);
  return uptime_.ElapsedSeconds() >= live.last_refit_attempt_seconds + wait;
}

void F2dbEngine::CountDegradedRows(DegradationLevel level,
                                   std::size_t rows) const {
  switch (level) {
    case DegradationLevel::kNone:
      break;
    case DegradationLevel::kStaleModel:
      stats_.degraded_rows_stale.Add(rows);
      break;
    case DegradationLevel::kDerivedFallback:
      stats_.degraded_rows_derived.Add(rows);
      break;
    case DegradationLevel::kNaiveFallback:
      stats_.degraded_rows_naive.Add(rows);
      break;
    case DegradationLevel::kUnavailable:
      break;  // surfaced as a status, never as rows
  }
}

void F2dbEngine::OfferReestimate(
    NodeId node, std::uint64_t expected_generation,
    std::shared_ptr<const ForecastModel> fresh,
    double creation_seconds) const {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const SnapshotPtr cur = LoadSnapshot();
  // Install only when the model is still the one the refit started from;
  // if maintenance advanced it meanwhile (every advance restamps every
  // model), the refit is stale for the current state (but remains correct
  // for the reader's snapshot).
  const ModelView live = cur->models.Find(node);
  if (!live || live.record->generation != expected_generation) return;
  // Log before publishing. If the append fails the refit simply is not
  // installed (the caller still serves its result once) — a degradation,
  // never a divergence between the log and the published state.
  if (!WalAppendLocked(
           WalRecord::ModelInstall(node, creation_seconds,
                                   ModelFactory::SerializeModel(*fresh)))
           .ok()) {
    return;
  }
  auto next = cur->CopyForWrite();
  ModelRecord record;
  record.creation_seconds = creation_seconds;
  next->models.Install(node, std::move(fresh), record);
  Publish(std::move(next));
}

void F2dbEngine::OfferRefitFailure(NodeId node,
                                   const ModelRecord& expected) const {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const SnapshotPtr cur = LoadSnapshot();
  // Same generation check as OfferReestimate: record the failure only
  // against the model the attempt actually ran on. If maintenance (or a
  // concurrent query's failure record) rewrote it, this attempt's outcome
  // no longer describes the published state.
  const ModelView live = cur->models.Find(node);
  if (!live || live.record->generation != expected.generation) return;
  const std::size_t failures = expected.refit_failures + 1;
  const std::size_t threshold = options_.quarantine_after_refit_failures;
  const bool quarantine =
      threshold > 0 && failures >= threshold && !expected.quarantined;
  if (quarantine) {
    // The quarantine TRANSITION is durable (plain failure-count bumps are
    // logged only by the next compaction's tail: recovery resets them to
    // that cut or the last logged transition, which only makes post-crash
    // refits retry sooner). An append failure skips the whole
    // publication; the state stays unchanged and a later attempt retries
    // the transition.
    if (!WalAppendLocked(WalRecord::Quarantine(node, failures)).ok()) {
      return;
    }
    stats_.quarantines.Add();
  }
  auto next = cur->CopyForWrite();
  ModelRecord& record = next->models.MutableRecord(live.slot);
  record.refit_failures = failures;
  record.last_refit_attempt_seconds = uptime_.ElapsedSeconds();
  if (quarantine) record.quarantined = true;
  Publish(std::move(next));
}

Status F2dbEngine::InsertFact(const std::vector<std::string>& base_values,
                              std::int64_t time, double value) {
  const SnapshotPtr snap = LoadSnapshot();
  const CubeSchema& schema = snap->graph->schema();
  if (base_values.size() != schema.num_dimensions()) {
    return Status::InvalidArgument("need one level-0 value per dimension");
  }
  NodeAddress address;
  address.coords.resize(schema.num_dimensions());
  for (std::size_t d = 0; d < schema.num_dimensions(); ++d) {
    F2DB_ASSIGN_OR_RETURN(ValueIndex v,
                          schema.hierarchy(d).FindValue(0, base_values[d]));
    address.coords[d] = {0, v};
  }
  F2DB_ASSIGN_OR_RETURN(NodeId node, snap->graph->NodeFor(address));
  return InsertFact(node, time, value);
}

Status F2dbEngine::InsertFact(NodeId base_node, std::int64_t time,
                              double value) {
  F2DB_INJECT_FAILPOINT(kFailpointEngineInsert);
  if (wal_ == nullptr) {
    return InsertFactImpl(base_node, time, value, /*log=*/true);
  }
  if (disk_health_.read_only()) return ReadOnlyRejection();

  Status status = InsertFactImpl(base_node, time, value, /*log=*/true);
  if (status.ok()) {
    disk_health_.RecordSuccess();
    return status;
  }
  // Only statuses carrying an fsio errno marker are disk trouble;
  // validation refusals and failpoint injections pass through untouched.
  int err = storage::ErrnoFromStatus(status);
  if (err == 0) return status;

  // Bounded in-line retry with linear backoff, off the writer lock — a
  // failed append buffered nothing, so the re-run is a clean insert.
  for (std::size_t attempt = 1; attempt <= options_.disk_retry_attempts;
       ++attempt) {
    disk_health_.RecordRetry();
    if (options_.disk_retry_backoff_ms > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          options_.disk_retry_backoff_ms * static_cast<double>(attempt)));
    }
    status = InsertFactImpl(base_node, time, value, /*log=*/true);
    if (status.ok()) {
      disk_health_.RecordSuccess();
      return status;
    }
    err = storage::ErrnoFromStatus(status);
    if (err == 0) return status;
  }

  // A full disk may be self-inflicted: spend the one-shot emergency
  // retention pass (CompactNow phase C reclaims aged sealed history)
  // before giving up on this insert.
  if (err == ENOSPC && options_.retention_window > 0 &&
      disk_health_.TakeEmergencyRetentionToken()) {
    stats_.emergency_retentions.Add();
    (void)CompactNow();  // best effort; its failures classify below
    status = InsertFactImpl(base_node, time, value, /*log=*/true);
    if (status.ok()) {
      disk_health_.RecordSuccess();
      return status;
    }
    err = storage::ErrnoFromStatus(status);
    if (err == 0) return status;
  }

  if (disk_health_.RecordFailure(err) == DiskHealthState::kReadOnly) {
    F2DB_LOG(kError) << "disk failure streak crossed threshold; engine is "
                        "read-only until the health probe succeeds: "
                     << status.message();
    return ReadOnlyRejection();
  }
  return status;
}

Status F2dbEngine::ReadOnlyRejection() const {
  const auto hint = static_cast<long long>(
      std::max(0.0, options_.read_only_retry_after_ms));
  return Status::Unavailable(
      "retry-after-ms=" + std::to_string(hint) +
      "; engine is read-only: disk unhealthy, writes resume after the "
      "health probe succeeds");
}

Status F2dbEngine::InsertFactImpl(NodeId base_node, std::int64_t time,
                                  double value, bool log) {
  // NaN/Inf would silently poison every aggregate above this cell and the
  // CSS/SSE recursions of every model that later updates on it.
  if (!std::isfinite(value)) {
    return Status::InvalidArgument(
        "non-finite fact value for node " + std::to_string(base_node) +
        " at time " + std::to_string(time));
  }
  StopWatch watch;
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const SnapshotPtr cur = LoadSnapshot();
  const std::uint32_t slot = BaseSlotOf(base_node);
  if (slot == kNoBaseSlot) {
    return Status::InvalidArgument("not a base node: " +
                                   std::to_string(base_node));
  }
  const std::int64_t frontier =
      cur->graph->series(cur->graph->base_nodes()[0]).end_time();
  if (time < frontier) {
    return Status::OutOfRange("insert at time " + std::to_string(time) +
                              " is behind the stored frontier " +
                              std::to_string(frontier));
  }
  const auto existing = pending_.find(time);
  if (existing != pending_.end() &&
      existing->second.present[slot]) {
    return Status::AlreadyExists("duplicate insert for node " +
                                 cur->graph->NodeName(base_node) +
                                 " at time " + std::to_string(time));
  }
  // Every validation has passed: log, then mutate. A failed append (full
  // disk, failed fsync) rejects the insert with NOTHING buffered — the
  // WAL writer rolled its bytes back, so the caller's error and a future
  // recovery agree the fact does not exist.
  if (log) {
    F2DB_RETURN_IF_ERROR(
        WalAppendLocked(WalRecord::Insert(base_node, time, value)));
  }
  PendingPeriod& period =
      PendingPeriodLocked(time, cur->graph->num_base_nodes());
  period.Set(slot, value);
  stats_.inserts.Add();
  const Status advanced = AdvanceWhileCompleteLocked();
  stats_.total_maintenance_seconds.Add(watch.ElapsedSeconds());
  return advanced;
}

std::size_t F2dbEngine::pending_inserts() const {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  std::size_t count = 0;
  for (const auto& [time, period] : pending_) count += period.filled;
  return count;
}

F2dbEngine::PendingPeriod& F2dbEngine::PendingPeriodLocked(
    std::int64_t time, std::size_t slots) {
  const auto found = pending_.find(time);
  if (found != pending_.end()) return found->second;
  if (spare_period_.empty()) {
    PendingPeriod& period = pending_[time];
    period.values.resize(slots);
    period.present.resize(slots);
    return period;
  }
  spare_period_.key() = time;
  PendingPeriod& period = spare_period_.mapped();
  period.values.resize(slots);
  period.present.assign(slots, false);
  period.filled = 0;
  return pending_.insert(std::move(spare_period_)).position->second;
}

Status F2dbEngine::AdvanceWhileCompleteLocked() {
  const SnapshotPtr cur = LoadSnapshot();
  std::shared_ptr<EngineSnapshot> next;     // successor under construction
  std::shared_ptr<TimeSeriesGraph> graph;   // its series, once advanced
  std::size_t advances = 0;

  for (;;) {
    const TimeSeriesGraph& prev = graph ? *graph : *cur->graph;
    const std::int64_t frontier =
        prev.series(prev.base_nodes()[0]).end_time();
    const auto it = pending_.find(frontier);
    if (it == pending_.end() || !it->second.complete()) break;
    spare_period_ = pending_.extract(it);
    const std::vector<double>& base_values = spare_period_.mapped().values;
    if (!next) next = cur->CopyForWrite();

    // Advance the whole graph by one period (batched inserts, Section V)
    // and maintain incrementally from the period's column: history sums,
    // the successor's rows and the model states. The successor's graph
    // shares the panel and claims its next column (see snapshot.h); the
    // model tables are shared until BeginStep. The rows and the models are
    // independent, so writing the rows and stepping the models share one
    // fan-out across the pool, whose helpers wake while the serial set-up
    // runs.
    std::shared_ptr<TimeSeriesGraph> advanced;
    ModelTable::Stepper stepper;
    Status begun;
    const std::vector<double>& column = advance_column_;
    const auto begin = [&] {
      Result<TimeSeriesGraph> successor =
          prev.BeginSuccessor(base_values, &advance_column_);
      begun = successor.status();
      if (!begun.ok()) return;
      advanced =
          std::make_shared<TimeSeriesGraph>(std::move(successor).value());
      next->history_sums.Update([&column](std::size_t node, double sum) {
        return sum + column[node];
      });
      stepper = next->models.BeginStep();
    };
    const auto step = [this, &column](const ForecastModel& model, NodeId node,
                                      std::span<double> state,
                                      ModelRecord& record) {
      model.StepState(state, column[node]);
      ++record.updates_since_estimate;
      if (options_.reestimate_after_updates > 0 &&
          record.updates_since_estimate >= options_.reestimate_after_updates) {
        record.invalid = true;  // re-estimated lazily on next reference
      }
      // Quarantine ends on data advance: the next query referencing an
      // invalid model retries the fit against the new history.
      record.refit_failures = 0;
      record.quarantined = false;
      record.last_refit_attempt_seconds = 0.0;
    };
    // Rows are written kRowsPerTask at a time: enough to hide the call and
    // keep the writes' fetches ahead, few enough to balance the pool.
    constexpr std::size_t kRowsPerTask = 32;
    const std::size_t nodes = prev.num_nodes();
    const std::size_t row_tasks = (nodes + kRowsPerTask - 1) / kRowsPerTask;
    const std::size_t tasks = row_tasks + next->models.size();
    const auto task = [&](std::size_t i) {
      if (!begun.ok()) return;
      if (i < row_tasks) {
        const std::size_t first = i * kRowsPerTask;
        prev.WriteSuccessorRows(*advanced, column, first,
                                std::min(nodes, first + kRowsPerTask));
      } else {
        stepper(i - row_tasks, step);
      }
    };
    if (ThreadPool* pool = MaintenancePool()) {
      pool->ParallelFor(tasks, task, begin);
    } else {
      begin();
      for (std::size_t i = 0; i < tasks; ++i) task(i);
    }
    F2DB_RETURN_IF_ERROR(begun);
    graph = std::move(advanced);  // an earlier successor is no longer read
    ++advances;
  }

  if (advances == 0) return Status::OK();
  next->graph = std::move(graph);
  stats_.time_advances.Add(advances);
  Publish(std::move(next));
  return Status::OK();
}

// --------------------------------------------------- durability internals

Status F2dbEngine::WalAppendLocked(const WalRecord& record) const {
  return WalAppendLocked(std::span<const WalRecord>(&record, 1));
}

Status F2dbEngine::WalAppendLocked(std::span<const WalRecord> records) const {
  if (!wal_) return Status::OK();  // in-memory engine: nothing to log
  if (!wal_->open()) {
    return Status::Unavailable(
        "WAL writer is broken (an earlier fsync rollback failed); "
        "mutations are refused until the engine is reopened");
  }
  const std::uint64_t before = wal_->bytes_appended();
  F2DB_RETURN_IF_ERROR(wal_->AppendAll(records));
  stats_.wal_records_appended.Add(records.size());
  stats_.wal_bytes.Add(static_cast<std::size_t>(wal_->bytes_appended() - before));
  return Status::OK();
}

void F2dbEngine::PublishBookkeepingRun() {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  // Moving out leaves bookkeeping_run_ empty: the run ends here.
  if (bookkeeping_run_) Publish(std::move(bookkeeping_run_));
}

Status F2dbEngine::ApplyWalRecord(const WalRecord& record) {
  if (record.kind != WalRecord::Kind::kBookkeeping) PublishBookkeepingRun();
  switch (record.kind) {
    case WalRecord::Kind::kInsert: {
      const Status applied = InsertFactImpl(record.node, record.time,
                                            record.value, /*log=*/false);
      // Compaction rewrites the pending inserts into the fresh epoch; a
      // crash between the WAL rotation and the manifest commit leaves both
      // the original record (in a still-undeleted old epoch) and the
      // rewritten copy on disk. Replay applies the first occurrence and
      // skips the duplicate — as AlreadyExists when the batch is still
      // pending, as OutOfRange when it already advanced the frontier.
      if (applied.code() == StatusCode::kAlreadyExists ||
          applied.code() == StatusCode::kOutOfRange) {
        return Status::OK();
      }
      return applied;
    }
    case WalRecord::Kind::kCatalog: {
      ConfigurationCatalog catalog;
      F2DB_RETURN_IF_ERROR(catalog.ParseFromString(record.payload));
      return LoadCatalogImpl(catalog, /*log=*/false);
    }
    case WalRecord::Kind::kModelInstall: {
      F2DB_ASSIGN_OR_RETURN(std::unique_ptr<ForecastModel> model,
                            ModelFactory::DeserializeModel(record.payload));
      std::lock_guard<std::mutex> lock(writer_mutex_);
      const SnapshotPtr cur = LoadSnapshot();
      if (record.node >= cur->graph->num_nodes()) {
        return Status::Internal("model install references unknown node " +
                                std::to_string(record.node));
      }
      auto next = cur->CopyForWrite();
      ModelRecord fresh;
      fresh.creation_seconds = record.value;
      next->models.Install(record.node, std::move(model), fresh);
      Publish(std::move(next));
      return Status::OK();
    }
    case WalRecord::Kind::kQuarantine: {
      std::lock_guard<std::mutex> lock(writer_mutex_);
      const SnapshotPtr cur = LoadSnapshot();
      const ModelView live = cur->models.Find(record.node);
      // A later record may have replaced the model the transition applied
      // to (catalog reload); the transition is then moot.
      if (!live) return Status::OK();
      auto next = cur->CopyForWrite();
      ModelRecord& updated = next->models.MutableRecord(live.slot);
      updated.refit_failures = record.count;
      updated.quarantined = true;
      Publish(std::move(next));
      stats_.quarantines.Add();
      return Status::OK();
    }
    case WalRecord::Kind::kBookkeeping: {
      // A compaction's tail restores the record as it stood at the cut —
      // state, not a transition, so no counter moves (the manifest already
      // carries them). The tail's records are consecutive: the whole run
      // writes one private successor, copying the record table once, and
      // the next record of another kind (or the end of recovery)
      // publishes it.
      std::lock_guard<std::mutex> lock(writer_mutex_);
      if (!bookkeeping_run_) bookkeeping_run_ = LoadSnapshot()->CopyForWrite();
      const ModelView live = bookkeeping_run_->models.Find(record.node);
      if (!live) {
        return Status::Internal("bookkeeping references node " +
                                std::to_string(record.node) +
                                " without a model");
      }
      ModelRecord& updated = bookkeeping_run_->models.MutableRecord(live.slot);
      updated.invalid = record.invalid;
      updated.updates_since_estimate =
          static_cast<std::size_t>(record.updates);
      updated.refit_failures = static_cast<std::size_t>(record.count);
      updated.quarantined = record.quarantined;
      return Status::OK();
    }
  }
  return Status::Internal("unknown WAL record kind " +
                          std::to_string(static_cast<int>(record.kind)));
}

// ------------------------------------------------------ storage lifecycle

Status F2dbEngine::ApplySegmentState(const storage::ManifestData& manifest,
                                     std::vector<storage::SegmentData>&& chain) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const SnapshotPtr cur = LoadSnapshot();
  auto graph = std::make_shared<TimeSeriesGraph>(*cur->graph);

  if (!chain.empty()) {
    // Bulk load: concatenate each base series across the (validated,
    // contiguous) chain, install it wholesale, and rebuild every
    // aggregate once — instead of re-running maintenance per record.
    const std::size_t num_series = chain.front().series.size();
    if (num_series != graph->num_base_nodes()) {
      return Status::Internal(
          "segment chain holds " + std::to_string(num_series) +
          " series but the cube has " +
          std::to_string(graph->num_base_nodes()) + " base nodes");
    }
    const std::int64_t start = chain.front().start_time;
    for (std::size_t s = 0; s < num_series; ++s) {
      const NodeId node = chain.front().series[s].node;
      if (node >= graph->num_nodes()) {
        return Status::Internal("segment references unknown node " +
                                std::to_string(node));
      }
      std::size_t total = 0;
      for (const storage::SegmentData& segment : chain) {
        total += segment.series[s].values.size();
      }
      std::vector<double> values;
      values.reserve(total);
      for (const storage::SegmentData& segment : chain) {
        values.insert(values.end(), segment.series[s].values.begin(),
                      segment.series[s].values.end());
      }
      F2DB_RETURN_IF_ERROR(
          graph->SetBaseSeries(node, TimeSeries(std::move(values), start)));
    }
    F2DB_RETURN_IF_ERROR(graph->BuildAggregates());
  }

  auto next = cur->CopyForWrite();
  next->graph = graph;
  // History sums = retained history + the retention offsets rolled up the
  // aggregation structure (Sum() alone misses what retention deleted).
  std::vector<double> base_offsets(graph->num_base_nodes(), 0.0);
  for (const auto& [node, offset] : manifest.offsets) {
    const std::uint32_t slot = BaseSlotOf(node);
    if (slot == kNoBaseSlot) {
      return Status::Internal("manifest offset references non-base node " +
                              std::to_string(node));
    }
    base_offsets[slot] = offset;
  }
  F2DB_ASSIGN_OR_RETURN(std::vector<double> node_offsets,
                        graph->AggregateBaseScalars(base_offsets));
  std::vector<double>& sums = next->history_sums.Mutable();
  for (NodeId node = 0; node < graph->num_nodes(); ++node) {
    sums[node] = graph->series(node).Sum() + node_offsets[node];
  }

  // Configuration, model bookkeeping, and the pending buffer arrive via
  // the rewritten records at the head of the manifest's WAL epoch.
  next->schemes = SharedTable<std::vector<NodeId>>(
      std::vector<std::vector<NodeId>>(graph->num_nodes()));
  next->models.Assign({});
  pending_.clear();

  // Restore the maintenance counters so post-recovery stats continue the
  // pre-crash sequence (the rewritten tail replay then stacks on top).
  stats_.inserts.Add(manifest.inserts);
  stats_.time_advances.Add(manifest.time_advances);
  stats_.reestimates.Add(manifest.reestimates);
  stats_.quarantines.Add(manifest.quarantines);
  stats_.refit_failures.Add(manifest.refit_failures);

  Publish(std::move(next));
  return Status::OK();
}

Status F2dbEngine::CompactNow() {
  if (!durable()) {
    return Status::FailedPrecondition(
        "compaction requires a durable engine (open with a data_dir)");
  }
  std::lock_guard<std::mutex> serial(compaction_serial_mutex_);

  const Status status = [&]() -> Status {
    const bool has_base = store_->has_manifest();
    storage::ManifestData base = store_->manifest();
    // When recovery fell back because the sealed chain failed validation,
    // extending that chain would commit a higher-epoch manifest over the
    // invalid segments and then delete the WAL epochs the fallback still
    // needs — the next restart would lose acknowledged writes. Instead,
    // reseal the full retained history from memory into a fresh chain
    // (offsets and drop counters survive) and truncate only once that
    // chain is durable.
    const bool reseal = reseal_segments_;
    std::vector<storage::ManifestSegment> invalid_chain;
    if (reseal) {
      invalid_chain = std::move(base.segments);
      base.segments.clear();
    }

    // ---- Phase A, under the writer lock: rotate the WAL and rewrite the
    // live tail into the fresh epoch. After the manifest commits, replay
    // starts HERE — these records carry everything the sealed history
    // does not: the configuration, each model's refit bookkeeping (lazy
    // re-estimation and quarantine state), and the pending insert buffer.
    SnapshotPtr snap;
    std::uint64_t new_epoch = 0;
    std::int64_t sealed_from = 0;
    std::int64_t sealed_to = 0;
    storage::ManifestData next;
    {
      std::lock_guard<std::mutex> lock(writer_mutex_);
      if (!wal_->open()) {
        return Status::Unavailable("WAL writer is broken; cannot rotate");
      }
      F2DB_RETURN_IF_ERROR(wal_->Sync());
      auto rotated = WalWriter::Create(options_.data_dir, wal_->epoch() + 1,
                                       options_.fsync_policy,
                                       options_.wal_batch_records);
      if (!rotated.ok()) return rotated.status();
      wal_->Close();
      *wal_ = std::move(rotated.value());
      new_epoch = wal_->epoch();

      snap = LoadSnapshot();
      bool any_scheme = false;
      for (const auto& scheme : snap->schemes) {
        if (!scheme.empty()) {
          any_scheme = true;
          break;
        }
      }
      // The tail goes out in one append: one write(2), one sync.
      std::vector<WalRecord> tail;
      if (!snap->models.empty() || any_scheme) {
        tail.push_back(WalRecord::Catalog(
            CatalogFromSnapshot(*snap).SerializeToString()));
      }
      // The catalog reinstalls every record at its defaults; restore the
      // ones that moved since.
      for (const ModelView live : snap->models) {  // in node order
        const ModelRecord& record = *live.record;
        if (record.invalid || record.updates_since_estimate != 0 ||
            record.refit_failures != 0 || record.quarantined) {
          tail.push_back(WalRecord::Bookkeeping(
              live.node, record.invalid, record.updates_since_estimate,
              record.refit_failures, record.quarantined));
        }
      }
      const std::size_t state_records = tail.size();
      const std::vector<NodeId>& base_nodes = snap->graph->base_nodes();
      for (const auto& [time, period] : pending_) {
        for (std::size_t slot = 0; slot < period.values.size(); ++slot) {
          if (period.present[slot]) {
            tail.push_back(WalRecord::Insert(base_nodes[slot], time,
                                             period.values[slot]));
          }
        }
      }
      const std::uint64_t pending_count = tail.size() - state_records;
      F2DB_RETURN_IF_ERROR(WalAppendLocked(tail));
      F2DB_RETURN_IF_ERROR(wal_->Sync());
      F2DB_RETURN_IF_ERROR(SyncDirectory(options_.data_dir));

      // The cut: everything strictly before the frontier is closed (its
      // batches completed) and gets sealed; [sealed_from, sealed_to).
      const TimeSeries& first = snap->graph->series(base_nodes[0]);
      sealed_from =
          (has_base && !reseal) ? base.sealed_to : first.start_time();
      sealed_to = first.end_time();

      next.wal_epoch = new_epoch;
      next.sealed_from = has_base ? base.sealed_from : sealed_from;
      next.sealed_to = sealed_to;
      // Counters at the cut: replay of the rewritten tail re-adds the
      // pending inserts, so subtract them.
      next.inserts = stats_.inserts.Load() - pending_count;
      next.time_advances = stats_.time_advances.Load();
      next.reestimates = stats_.reestimates.Load();
      next.quarantines = stats_.quarantines.Load();
      next.refit_failures = stats_.refit_failures.Load();
      next.records_dropped = base.records_dropped;
      next.offsets = base.offsets;
      next.segments = base.segments;
    }

    // ---- Phase B, off the writer lock: seal, commit, truncate. The
    // manifest rename is the commit point — until it lands, recovery uses
    // the previous artifact and the old (still-undeleted) WAL epochs.
    const std::uint64_t count =
        static_cast<std::uint64_t>(sealed_to - sealed_from);
    if (count > 0) {
      storage::SegmentData segment;
      segment.seq = store_->next_seq();
      segment.start_time = sealed_from;
      segment.count = count;
      const std::vector<NodeId>& base_nodes = snap->graph->base_nodes();
      segment.series.reserve(base_nodes.size());
      for (NodeId node : base_nodes) {
        const TimeSeries& series = snap->graph->series(node);
        if (series.start_time() > sealed_from) {
          return Status::Internal(
              "series history no longer covers the seal range");
        }
        const std::size_t begin =
            static_cast<std::size_t>(sealed_from - series.start_time());
        storage::SegmentSeries out;
        out.node = node;
        const std::span<const double> sealed =
            series.values().subspan(begin, count);
        out.values.assign(sealed.begin(), sealed.end());
        segment.series.push_back(std::move(out));
      }
      F2DB_ASSIGN_OR_RETURN(const std::uint64_t bytes,
                            store_->WriteSegment(segment));
      storage::ManifestSegment entry;
      entry.seq = segment.seq;
      entry.start_time = segment.start_time;
      entry.count = segment.count;
      entry.num_series = static_cast<std::uint32_t>(segment.series.size());
      entry.bytes = bytes;
      next.segments.push_back(entry);
    }
    F2DB_RETURN_IF_ERROR(store_->CommitManifest(next));
    if (reseal) {
      // The fresh chain is durable and the manifest no longer references
      // the invalidated segments; their files can go (best effort — the
      // next store open sweeps unreferenced leftovers anyway).
      for (const storage::ManifestSegment& seg : invalid_chain) {
        (void)store_->DeleteSegmentFile(seg.seq);
      }
      reseal_segments_ = false;
    }
    if (count > 0) {
      stats_.segments_sealed.Add();
      stats_.segment_records_sealed.Add(static_cast<std::size_t>(
          count * snap->graph->num_base_nodes()));
    }
    storage::FireStorageCrashHook("before_wal_delete");
    // The manifest is durable — WAL epochs below its epoch are redundant.
    // A failed unlink merely leaves a stale segment for the next recovery
    // (or compaction) to clean up.
    auto epochs = ListWalEpochs(options_.data_dir);
    if (epochs.ok()) {
      for (const std::uint64_t epoch : epochs.value()) {
        if (epoch < new_epoch) {
          ::unlink(WalPath(options_.data_dir, epoch).c_str());
        }
      }
    }
    stats_.compactions_completed.Add();
    last_compaction_seconds_.store(uptime_.ElapsedSeconds(),
                                   std::memory_order_relaxed);

    // ---- Phase C: retention. Whole segments entirely older than the
    // window are dropped — their per-series sums fold into the manifest
    // offsets (keeping history sums, and with them derivation weights,
    // exact), the pruned manifest commits, and only then do the files go.
    // The newest segment always survives so the chain stays anchored.
    if (options_.retention_window == 0 || next.segments.size() < 2) {
      return Status::OK();
    }
    const std::int64_t cutoff =
        sealed_to - static_cast<std::int64_t>(options_.retention_window);
    std::vector<storage::ManifestSegment> doomed;
    std::vector<storage::ManifestSegment> kept;
    for (std::size_t i = 0; i < next.segments.size(); ++i) {
      const storage::ManifestSegment& seg = next.segments[i];
      const bool last = (i + 1 == next.segments.size());
      if (!last &&
          seg.start_time + static_cast<std::int64_t>(seg.count) <= cutoff) {
        doomed.push_back(seg);
      } else {
        kept.push_back(seg);
      }
    }
    if (doomed.empty()) return Status::OK();

    std::map<std::uint32_t, double> offset_map(next.offsets.begin(),
                                               next.offsets.end());
    std::uint64_t dropped_records = 0;
    for (const storage::ManifestSegment& seg : doomed) {
      // Decode the doomed file to accumulate the exact sums being
      // forgotten — the values on disk, not a re-derivation.
      F2DB_ASSIGN_OR_RETURN(
          const storage::SegmentData data,
          storage::ReadSegmentFile(storage::SegmentPath(
              storage::SegmentsDirFor(options_.data_dir), seg.seq)));
      for (const storage::SegmentSeries& series : data.series) {
        double sum = 0.0;
        for (const double v : series.values) sum += v;
        offset_map[series.node] += sum;
      }
      dropped_records += seg.count * seg.num_series;
    }
    storage::ManifestData pruned = next;
    pruned.segments = kept;
    pruned.records_dropped += dropped_records;
    pruned.offsets.assign(offset_map.begin(), offset_map.end());
    F2DB_RETURN_IF_ERROR(store_->CommitManifest(pruned));
    for (const storage::ManifestSegment& seg : doomed) {
      F2DB_RETURN_IF_ERROR(store_->DeleteSegmentFile(seg.seq));
    }
    stats_.retention_segments_deleted.Add(doomed.size());
    stats_.retention_records_dropped.Add(
        static_cast<std::size_t>(dropped_records));

    // In-memory half: forget the same prefix from every series, base and
    // aggregate alike. History sums stay untouched — the offsets now
    // carry the forgotten mass. No other compaction can cut between the
    // pruned manifest commit above and this drop: compactions serialize on
    // compaction_serial_mutex_, so none rewrites a tail over undropped
    // series alongside the pruned offsets.
    const std::int64_t new_start = kept.front().start_time;
    {
      std::lock_guard<std::mutex> lock(writer_mutex_);
      const SnapshotPtr cur = LoadSnapshot();
      const TimeSeries& first =
          cur->graph->series(cur->graph->base_nodes()[0]);
      if (first.start_time() < new_start) {
        auto graph = std::make_shared<TimeSeriesGraph>(*cur->graph);
        F2DB_RETURN_IF_ERROR(graph->DropHistoryBefore(new_start));
        auto updated = cur->CopyForWrite();
        updated->graph = std::move(graph);
        Publish(std::move(updated));
      }
    }
    return Status::OK();
  }();

  if (!status.ok()) {
    stats_.compaction_failures.Add();
    RecordDiskOutcome(status);
  }
  return status;
}

void F2dbEngine::CompactionLoop() {
  const auto interval =
      std::chrono::duration<double>(options_.compaction_interval_seconds);
  std::unique_lock<std::mutex> lock(background_mutex_);
  while (!stopping_) {
    if (background_cv_.wait_for(lock, interval,
                                [this] { return stopping_; })) {
      break;
    }
    lock.unlock();
    // Park while read-only: sealing would only churn the failing device.
    if (disk_health_.read_only()) {
      lock.lock();
      continue;
    }
    const Status status = CompactNow();
    if (!status.ok()) {
      F2DB_LOG(kWarning) << "background compaction failed: "
                         << status.message();
    }
    lock.lock();
  }
}

// ------------------------------------------------------ disk-fault policy

void F2dbEngine::RecordDiskOutcome(const Status& status) {
  // Failure-only by design: a maintenance success must NOT reset the
  // insert-path failure streak (or re-arm the emergency-retention token),
  // else a working segment path would mask a dead WAL forever and the
  // engine would never reach read-only.
  if (status.ok()) return;
  const int err = storage::ErrnoFromStatus(status);
  if (err != 0) disk_health_.RecordFailure(err);
}

void F2dbEngine::ProbeLoop() {
  const auto interval =
      std::chrono::duration<double>(options_.disk_probe_interval_seconds);
  const std::string sentinel = options_.data_dir + "/.f2db-health-probe";
  std::unique_lock<std::mutex> lock(background_mutex_);
  while (!stopping_) {
    if (background_cv_.wait_for(lock, interval,
                                [this] { return stopping_; })) {
      break;
    }
    if (!disk_health_.read_only()) continue;
    lock.unlock();
    // One durable sentinel write proves the device accepts writes again;
    // it exercises the same open/write/fsync/rename path the WAL and
    // the manifest depend on.
    const Status probed = storage::WriteFileDurably(
        sentinel, "ok\n", /*hook_before_rename=*/nullptr,
        /*hook_after_rename=*/nullptr, storage::kIoSiteProbeWrite);
    if (probed.ok()) {
      (void)storage::RemoveFile(sentinel);
      if (disk_health_.ExitReadOnly()) {
        F2DB_LOG(kWarning) << "health probe succeeded; leaving read-only";
      }
    }
    lock.lock();
  }
}

bool F2dbEngine::ScrubPace(std::uint64_t bytes_read) {
  const std::size_t rate = options_.scrub_rate_bytes_per_second;
  if (rate == 0 || bytes_read == 0) return true;
  const double seconds =
      static_cast<double>(bytes_read) / static_cast<double>(rate);
  std::unique_lock<std::mutex> lock(background_mutex_);
  return !background_cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                                  [this] { return stopping_; });
}

void F2dbEngine::ScrubLoop() {
  const auto interval =
      std::chrono::duration<double>(options_.scrub_interval_seconds);
  std::unique_lock<std::mutex> lock(background_mutex_);
  while (!stopping_) {
    if (background_cv_.wait_for(lock, interval,
                                [this] { return stopping_; })) {
      break;
    }
    lock.unlock();
    // Park while read-only: a reseal could not land anyway.
    if (disk_health_.read_only()) {
      lock.lock();
      continue;
    }
    const Status status = ScrubOnce(nullptr);
    if (!status.ok()) {
      F2DB_LOG(kWarning) << "background scrub failed: " << status.message();
    }
    lock.lock();
  }
}

Status F2dbEngine::ScrubOnce(ScrubReport* report) {
  if (!durable()) {
    return Status::FailedPrecondition(
        "scrub requires a durable engine (open with a data_dir)");
  }
  ScrubReport local;
  ScrubReport* out = report != nullptr ? report : &local;
  *out = ScrubReport{};

  // Snapshot the chain, then verify each file OFF the serial lock:
  // compaction and retention may reshape the chain mid-pass, so a missing
  // file is a benign race (skipped) and corruption is re-checked against
  // the CURRENT manifest before anything is quarantined.
  const storage::ManifestData manifest = store_->manifest();

  for (const storage::ManifestSegment& seg : manifest.segments) {
    const std::string path = storage::SegmentPath(store_->dir(), seg.seq);
    const auto data = storage::ReadSegmentFile(path);
    if (data.ok()) {
      ++out->segments_verified;
      out->bytes_verified += seg.bytes;
      stats_.scrub_bytes.Add(static_cast<std::size_t>(seg.bytes));
      if (!ScrubPace(seg.bytes)) return Status::OK();  // shutting down
      continue;
    }
    if (data.status().code() == StatusCode::kNotFound) continue;  // retention won

    ++out->corruptions;
    stats_.scrub_corruptions.Add();
    F2DB_LOG(kError) << "scrub: corrupt sealed segment " << path << ": "
                     << data.status().message();

    bool still_live = false;
    bool can_reseal = false;
    {
      std::lock_guard<std::mutex> serial(compaction_serial_mutex_);
      const storage::ManifestData current = store_->manifest();
      for (const storage::ManifestSegment& live_seg : current.segments) {
        if (live_seg.seq == seg.seq) {
          still_live = true;
          break;
        }
      }
      if (still_live) {
        // Quarantine first: recovery and later scrubs must never read the
        // bad bytes again. The file is renamed, not deleted — the evidence
        // stays available for offline repair.
        (void)::rename(path.c_str(), (path + ".corrupt").c_str());
        // A reseal can replace the whole chain only while the in-memory
        // history still reaches back to the chain's first sealed tick
        // (retention forgets the disk-only past in lockstep, so normally
        // it does; the guard protects torn intermediate states).
        const SnapshotPtr snap = LoadSnapshot();
        const auto& bases = snap->graph->base_nodes();
        can_reseal = !bases.empty() && !current.segments.empty() &&
                     snap->graph->series(bases[0]).start_time() <=
                         current.segments.front().start_time;
        if (can_reseal) reseal_segments_ = true;
      }
    }
    if (!still_live) continue;  // compaction already replaced it
    if (can_reseal) {
      const Status resealed = CompactNow();
      if (resealed.ok()) {
        out->resealed = true;
        stats_.scrub_reseals.Add();
        F2DB_LOG(kWarning) << "scrub: resealed segment chain from memory "
                              "after quarantining "
                           << path;
        // The manifest and chain were just rewritten; this pass is done.
        stats_.scrub_cycles.Add();
        return Status::OK();
      }
      out->entered_read_only = disk_health_.EnterReadOnly();
      return resealed;
    }
    disk_health_.EnterReadOnly();
    out->entered_read_only = true;
    return Status::Internal("scrub: sealed history at " + path +
                            " is corrupt and no longer reconstructible "
                            "from memory; engine is read-only");
  }

  // Manifest: re-read and re-verify its CRC. A corrupt manifest is
  // quarantined and (the cached copy being authoritative) healed by a
  // reseal, which rewrites it wholesale.
  if (store_->has_manifest()) {
    const std::string manifest_path =
        store_->dir() + "/" + storage::kManifestFileName;
    const auto text = storage::ReadFileToString(manifest_path);
    if (text.ok()) {
      out->bytes_verified += text.value().size();
      stats_.scrub_bytes.Add(text.value().size());
      if (!storage::ParseManifest(text.value()).ok()) {
        ++out->corruptions;
        stats_.scrub_corruptions.Add();
        F2DB_LOG(kError) << "scrub: corrupt manifest " << manifest_path;
        {
          std::lock_guard<std::mutex> serial(compaction_serial_mutex_);
          (void)::rename(manifest_path.c_str(),
                         (manifest_path + ".corrupt").c_str());
          reseal_segments_ = true;
        }
        const Status resealed = CompactNow();
        if (!resealed.ok()) {
          out->entered_read_only = disk_health_.EnterReadOnly();
          return resealed;
        }
        out->resealed = true;
        stats_.scrub_reseals.Add();
      }
      if (!ScrubPace(text.value().size())) return Status::OK();
    }
  }

  stats_.scrub_cycles.Add();
  return Status::OK();
}

}  // namespace f2db
