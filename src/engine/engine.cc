#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "common/stopwatch.h"
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

/// What an in-memory engine answers a durable-log verb (`what`) with.
Status NotDurable(const std::string& what) {
  return Status::FailedPrecondition(
      what + " requires a durable engine (open with a data_dir)");
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

void RenderQueryResultInto(const QueryResult& result, std::string* out) {
  out->append("-- node: ").append(result.node_name).append("\n");
  if (result.degradation != DegradationLevel::kNone) {
    out->append("-- degraded: ")
        .append(DegradationLevelName(result.degradation))
        .append(" (")
        .append(result.degradation_reason)
        .append(")\n");
  }
  char buffer[160];
  for (const ForecastRow& row : result.rows) {
    int n;
    if (row.has_interval) {
      n = std::snprintf(buffer, sizeof(buffer), "%lld | %.4f  [%.4f, %.4f]\n",
                        static_cast<long long>(row.time), row.value, row.lower,
                        row.upper);
    } else {
      n = std::snprintf(buffer, sizeof(buffer), "%lld | %.4f\n",
                        static_cast<long long>(row.time), row.value);
    }
    if (n > 0) out->append(buffer, std::min<std::size_t>(
                                       static_cast<std::size_t>(n),
                                       sizeof(buffer) - 1));
  }
}

std::string RenderExplainResult(const ExplainResult& plan) {
  std::string out = "Forecast Query Plan\n";
  out += "  node:    " + plan.node_name + " (#" + std::to_string(plan.node) +
         ")\n";
  out += "  horizon: " + std::to_string(plan.horizon) + "\n";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "  weight:  %.6f\n", plan.weight);
  out += buffer;
  out += "  scheme:  from " + std::to_string(plan.sources.size()) +
         " model(s)\n";
  for (const std::string& m : plan.source_models) out += "    " + m + "\n";
  return out;
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

F2dbEngine::~F2dbEngine() = default;

Result<std::unique_ptr<F2dbEngine>> F2dbEngine::Open(TimeSeriesGraph graph,
                                                     EngineOptions options) {
  auto engine = std::make_unique<F2dbEngine>(std::move(graph), options);
  if (options.data_dir.empty()) return engine;
  F2DB_ASSIGN_OR_RETURN(engine->log_,
                        DurableLog::Open(engine->options_, *engine));
  return engine;
}

const TimeSeriesGraph& F2dbEngine::graph() const {
  return *LoadSnapshot()->graph;
}

EngineStats F2dbEngine::stats() const {
  const PlanCache::Counters plan = plan_cache_.counters();
  EngineStats out;
  F2DB_ENGINE_OWN_METRICS(F2DB_METRIC_COPY_ROW, F2DB_METRIC_SWALLOW,
                          F2DB_METRIC_COPY_ROW)
  if (log_) log_->StatsInto(out);
  return out;
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
  if (log_) {
    F2DB_RETURN_IF_ERROR(log_->Append(
        WalRecord::Catalog(CatalogFromSnapshot(*next).SerializeToString())));
  }
  Publish(std::move(next));
  // Conservative: plans pre-resolve against graph structure only (which a
  // configuration install never changes today), but dropping the cache on
  // every configuration-bearing install keeps that reasoning local.
  plan_cache_.Invalidate();
  return Status::OK();
}

Status F2dbEngine::LoadCatalog(const ConfigurationCatalog& catalog) {
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
  if (log_) {
    F2DB_RETURN_IF_ERROR(
        log_->Append(WalRecord::Catalog(catalog.SerializeToString())));
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
  if (!plan.has_resolved_node()) return ExecuteInto(query, out);
  F2DB_RETURN_IF_ERROR(CheckQueryDeadline(query));
  out->node_name.assign(plan.node_name);  // reuses the buffer's capacity
  return ForecastIntoResult(LoadSnapshot(), plan.resolved_node, query, out);
}

/// One scheme's forecast as the ladder accumulates it: the source forecasts
/// (and, on the interval path, their variances) summed in scheme order from
/// 0.0, and the worst rung any source fell to with its cause. A declined
/// refit ends the sum.
struct F2dbEngine::SchemeSum {
  bool with_variances = false;
  std::vector<double> values;
  std::vector<double> variances;
  DegradationLevel level = DegradationLevel::kNone;
  std::string reason;  ///< empty while level == kNone
  bool refit_declined = false;

  /// Adds `more_values` (and `more_variances`, when summed) step by step.
  void Add(std::span<const double> more_values,
           std::span<const double> more_variances) {
    for (std::size_t h = 0; h < values.size(); ++h) {
      values[h] += more_values[h];
      if (with_variances) variances[h] += more_variances[h];
    }
  }

  /// Adds `model`'s forecasts from `state`. Fails with kUnimplemented when
  /// variances are wanted but unsupported.
  Status AddModel(const ForecastModel& model, std::span<const double> state,
                  NodeId source) {
    thread_local std::vector<double> forecast;  // live only in this call
    model.ForecastInto(state, values.size(), &forecast);
    std::vector<double> variance;
    if (with_variances) {
      variance = model.ForecastVariance(state, values.size());
      if (variance.size() != values.size()) {
        return Status::Unimplemented("model at node " +
                                     std::to_string(source) +
                                     " does not support interval forecasts");
      }
    }
    Add(forecast, variance);
    return Status::OK();
  }

  /// Records that a source fell to `rung` because of `why`; the worst rung
  /// and its cause win.
  void Degrade(DegradationLevel rung, std::string why) {
    if (rung > level) {
      level = rung;
      reason = std::move(why);
    }
  }
};

Status F2dbEngine::ForecastIntoResult(const SnapshotPtr& snap, NodeId node,
                                      const ForecastQuery& query,
                                      QueryResult* out) const {
  StopWatch watch;
  out->node = node;
  out->rows.clear();
  out->degradation = DegradationLevel::kNone;
  out->degradation_reason.clear();
  out->refit_declined = false;
  if (node >= snap->graph->num_nodes()) {
    return Status::OutOfRange("node id out of range");
  }
  const std::int64_t now = snap->graph->series(node).end_time();
  // Reused across calls: a warmed point query allocates nothing.
  thread_local SchemeSum sum;
  sum.with_variances = query.with_intervals;
  // The refit posture: skipped under brownout or on a read-only engine (the
  // reason names which), else declined when the query asks.
  const RefitMode mode = query.brownout            ? RefitMode::kSkipOverload
                         : log_ && log_->read_only() ? RefitMode::kSkipReadOnly
                         : query.decline_refit       ? RefitMode::kDecline
                                                     : RefitMode::kRefit;
  F2DB_RETURN_IF_ERROR(
      CombineScheme(snap, node, query.horizon, mode, /*depth=*/0, &sum));
  // A declined query answers no rows and counts nothing.
  out->refit_declined = sum.refit_declined;
  if (out->refit_declined) return Status::OK();
  std::vector<ForecastInterval> intervals;
  if (query.with_intervals) {
    F2DB_ASSIGN_OR_RETURN(intervals, IntervalsFromMoments(sum.values,
                                                          sum.variances,
                                                          query.confidence));
  }
  out->degradation = sum.level;
  out->degradation_reason = sum.reason;
  out->rows.reserve(sum.values.size());  // a no-op once warmed
  for (std::size_t h = 0; h < sum.values.size(); ++h) {
    ForecastRow& row = out->rows.emplace_back();
    row.time = now + static_cast<std::int64_t>(h);
    row.value = sum.values[h];  // an interval's point, exactly
    row.degradation = sum.level;
    if (query.with_intervals) {
      row.lower = intervals[h].lower;
      row.upper = intervals[h].upper;
      row.has_interval = true;
    }
  }
  if (sum.level == DegradationLevel::kStaleModel) {
    stats_.degraded_rows_stale.Add(out->rows.size());
  } else if (sum.level == DegradationLevel::kDerivedFallback) {
    stats_.degraded_rows_derived.Add(out->rows.size());
  } else if (sum.level == DegradationLevel::kNaiveFallback) {
    stats_.degraded_rows_naive.Add(out->rows.size());
  }
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
  switch (statement.kind) {
    case Statement::Kind::kForecast: {
      F2DB_ASSIGN_OR_RETURN(QueryResult result, Execute(statement.forecast));
      RenderQueryResultInto(result, &out);
      break;
    }
    case Statement::Kind::kInsert: {
      F2DB_RETURN_IF_ERROR(InsertFact(statement.insert.base_values,
                                      statement.insert.time,
                                      statement.insert.value));
      char buffer[160];
      std::snprintf(buffer, sizeof(buffer),
                    "INSERT ok (%zu buffered, %zu advances)\n",
                    pending_inserts(), stats_.time_advances.Load());
      out = buffer;
      break;
    }
    case Statement::Kind::kExplain: {
      F2DB_ASSIGN_OR_RETURN(ExplainResult plan, Explain(statement.forecast));
      out = RenderExplainResult(plan);
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
  ForecastQuery query;
  query.horizon = horizon;
  QueryResult result;
  F2DB_RETURN_IF_ERROR(ForecastIntoResult(snapshot, node, query, &result));
  std::vector<double> values;
  for (const ForecastRow& row : result.rows) values.push_back(row.value);
  return values;
}

Result<std::vector<ForecastInterval>> F2dbEngine::ForecastNodeWithIntervals(
    NodeId node, std::size_t horizon, double confidence) const {
  ForecastQuery query;
  query.horizon = horizon;
  query.with_intervals = true;
  query.confidence = confidence;
  QueryResult result;
  F2DB_RETURN_IF_ERROR(ForecastIntoResult(LoadSnapshot(), node, query, &result));
  std::vector<ForecastInterval> intervals;
  for (const ForecastRow& row : result.rows) {
    intervals.push_back({row.lower, row.value, row.upper});
  }
  return intervals;
}

Status F2dbEngine::CombineScheme(const SnapshotPtr& snapshot, NodeId node,
                                 std::size_t horizon, RefitMode mode,
                                 std::size_t depth, SchemeSum* sum) const {
  const std::vector<NodeId>& sources = snapshot->schemes[node];
  if (sources.empty()) {
    return Status::FailedPrecondition("no derivation scheme stored for node " +
                                      snapshot->graph->NodeName(node));
  }
  sum->values.assign(horizon, 0.0);
  if (sum->with_variances) sum->variances.assign(horizon, 0.0);
  sum->level = DegradationLevel::kNone;
  sum->reason.clear();
  sum->refit_declined = false;
  for (NodeId source : sources) {
    F2DB_RETURN_IF_ERROR(ForecastSource(snapshot, source, mode, depth, sum));
    if (sum->refit_declined) return Status::OK();
  }
  const double weight = snapshot->Weight(sources, node);
  for (std::size_t h = 0; h < horizon; ++h) {
    sum->values[h] *= weight;
    if (sum->with_variances) sum->variances[h] *= weight * weight;
  }
  return Status::OK();
}

Status F2dbEngine::ForecastSource(const SnapshotPtr& snapshot, NodeId source,
                                  RefitMode mode, std::size_t depth,
                                  SchemeSum* sum) const {
  const ModelView live = snapshot->models.Find(source);

  // Primary path: a valid published model.
  if (live && !live.record->invalid) {
    return sum->AddModel(*live.model, live.state, source);
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
    if (mode == RefitMode::kSkipOverload ||
        mode == RefitMode::kSkipReadOnly) {
      stats_.brownout_refits_skipped.Add();
      reason = "node " + std::to_string(source) +
               " re-estimation skipped under " +
               (mode == RefitMode::kSkipReadOnly ? "read-only" : "overload") +
               " brownout";
    } else if (RefitAllowed(*live.record)) {
      if (mode == RefitMode::kDecline) {
        sum->refit_declined = true;
        return Status::OK();
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
        return sum->AddModel(*model, model->state(), source);
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
      F2DB_RETURN_IF_ERROR(sum->AddModel(*live.model, live.state, source));
      sum->Degrade(DegradationLevel::kStaleModel,
                   reason + "; serving stale model");
      return Status::OK();
    }
  }

  // Rung 2: recompute the source through its OWN stored derivation scheme
  // (bounded recursion; schemes that reference the source itself cannot
  // help and are skipped). The recursion sums into its own SchemeSum, so a
  // failed attempt leaves no trace and falls to rung 3.
  if (depth < kMaxDerivationDepth) {
    const std::vector<NodeId>& scheme = snapshot->schemes[source];
    const bool refers_self =
        std::find(scheme.begin(), scheme.end(), source) != scheme.end();
    SchemeSum derived;
    derived.with_variances = sum->with_variances;
    if (!scheme.empty() && !refers_self &&
        CombineScheme(snapshot, source, sum->values.size(), mode, depth + 1,
                      &derived)
            .ok()) {
      if (derived.refit_declined) {
        sum->refit_declined = true;
        return Status::OK();
      }
      sum->Add(derived.values, derived.variances);
      sum->Degrade(
          std::max(derived.level, DegradationLevel::kDerivedFallback),
          reason + "; served via the node's derivation scheme");
      return Status::OK();
    }
  }

  // Rung 3: a drift model fit on the snapshot's stored history — always
  // cheap, needs no stored model, and supports variances.
  DriftModel drift;
  const Status drift_fitted = drift.Fit(snapshot->graph->series(source));
  if (drift_fitted.ok()) {
    F2DB_RETURN_IF_ERROR(sum->AddModel(drift, drift.state(), source));
    sum->Degrade(DegradationLevel::kNaiveFallback,
                 reason + "; serving naive drift fallback");
    return Status::OK();
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
  if (log_ && !log_->Append(WalRecord::ModelInstall(
                                node, creation_seconds,
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
    if (log_ && !log_->Append(WalRecord::Quarantine(node, failures)).ok()) {
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
  const auto insert = [&] { return InsertFactImpl(base_node, time, value); };
  return log_ ? log_->Mutate(insert) : insert();
}

Status F2dbEngine::InsertFactImpl(NodeId base_node, std::int64_t time,
                                  double value) {
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
  if (log_) {
    F2DB_RETURN_IF_ERROR(
        log_->Append(WalRecord::Insert(base_node, time, value)));
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

// ------------------------------------- DurableState: the apply side

void F2dbEngine::EndRecovery() {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  // Moving out leaves bookkeeping_run_ empty: the run ends here.
  if (bookkeeping_run_) Publish(std::move(bookkeeping_run_));
}

Status F2dbEngine::ApplyWalRecord(const WalRecord& record) {
  if (record.kind != WalRecord::Kind::kBookkeeping) EndRecovery();
  switch (record.kind) {
    case WalRecord::Kind::kInsert: {
      const Status applied =
          InsertFactImpl(record.node, record.time, record.value);
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
      return LoadCatalog(catalog);
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

Status F2dbEngine::ApplySegmentState(const Manifest& manifest,
                                     SegmentChain&& chain) {
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
      for (const auto& segment : chain) {
        total += segment.series[s].values.size();
      }
      std::vector<double> values;
      values.reserve(total);
      for (const auto& segment : chain) {
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

// ------------------------------------- DurableState: the durable cut

Status F2dbEngine::CaptureCut(Cut* cut, const std::function<Status()>& write) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const SnapshotPtr snap = LoadSnapshot();
  if (!snap->models.empty() ||
      std::any_of(snap->schemes.begin(), snap->schemes.end(),
                  [](const auto& scheme) { return !scheme.empty(); })) {
    cut->tail.push_back(
        WalRecord::Catalog(CatalogFromSnapshot(*snap).SerializeToString()));
  }
  // The catalog reinstalls every record at its defaults; restore the ones
  // that moved since.
  for (const ModelView live : snap->models) {  // in node order
    const ModelRecord& record = *live.record;
    if (record.invalid || record.updates_since_estimate != 0 ||
        record.refit_failures != 0 || record.quarantined) {
      cut->tail.push_back(WalRecord::Bookkeeping(
          live.node, record.invalid, record.updates_since_estimate,
          record.refit_failures, record.quarantined));
    }
  }
  const std::size_t state_records = cut->tail.size();
  const std::vector<NodeId>& base_nodes = snap->graph->base_nodes();
  for (const auto& [time, period] : pending_) {
    for (std::size_t slot = 0; slot < period.values.size(); ++slot) {
      if (period.present[slot]) {
        cut->tail.push_back(
            WalRecord::Insert(base_nodes[slot], time, period.values[slot]));
      }
    }
  }
  cut->graph = snap->graph;
  // Replay of the tail re-adds the pending inserts, so subtract them.
  cut->inserts = stats_.inserts.Load() - (cut->tail.size() - state_records);
  cut->time_advances = stats_.time_advances.Load();
  cut->reestimates = stats_.reestimates.Load();
  cut->quarantines = stats_.quarantines.Load();
  cut->refit_failures = stats_.refit_failures.Load();
  return write();
}

Status F2dbEngine::DropHistoryBefore(std::int64_t tick) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const SnapshotPtr cur = LoadSnapshot();
  const TimeSeries& first = cur->graph->series(cur->graph->base_nodes()[0]);
  if (first.start_time() >= tick) return Status::OK();
  auto graph = std::make_shared<TimeSeriesGraph>(*cur->graph);
  F2DB_RETURN_IF_ERROR(graph->DropHistoryBefore(tick));
  auto updated = cur->CopyForWrite();
  updated->graph = std::move(graph);
  Publish(std::move(updated));
  return Status::OK();
}

bool F2dbEngine::HistoryReaches(std::int64_t tick) const {
  const SnapshotPtr snap = LoadSnapshot();
  const std::vector<NodeId>& bases = snap->graph->base_nodes();
  return !bases.empty() && snap->graph->series(bases[0]).start_time() <= tick;
}

// ------------------------------------------------- the log's public verbs

Status F2dbEngine::CompactNow() {
  return log_ ? log_->CompactNow() : NotDurable("compaction");
}

Status F2dbEngine::ScrubOnce(ScrubReport* report) {
  return log_ ? log_->ScrubOnce(report) : NotDurable("scrub");
}

}  // namespace f2db
