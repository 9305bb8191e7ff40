// F2DB engine: forecast query processing and model maintenance over a
// stored model configuration (Section V).
//
// This is the embedded stand-in for the paper's PostgreSQL extension. It
// owns the time series data (the fact cube), the configuration (schemes +
// live models), and implements:
//   - the Forecast Query Processor: a query resolves its graph node, loads
//     the node's derivation scheme and the required models, and computes
//     forecasts WITHOUT touching the base fact data;
//   - the Maintenance Processor: inserts are batched until a new value is
//     available for every base series, then time advances through the whole
//     graph at once; model states and derivation weights are updated
//     incrementally; parameter re-estimation is delayed until an invalid
//     model is actually referenced by a query (lazy re-estimation).
//
// Concurrency model (see DESIGN.md, "Engine concurrency model"): the engine
// is split into three layers.
//   1. A const, lock-free QUERY layer (Execute, Explain, ForecastNode,
//      ForecastNodeWithIntervals, ExportCatalog): each call pins the
//      current EngineSnapshot with one atomic load and computes entirely
//      against that immutable state. Any number of query threads may run
//      concurrently with each other and with maintenance.
//   2. A MAINTENANCE layer (InsertFact, LoadConfiguration, LoadCatalog)
//      serialized behind a writer mutex: it builds the successor snapshot
//      off to the side (copy-on-write) and installs it with one atomic
//      store. Readers mid-query keep the old snapshot alive.
//   3. A STATS layer of relaxed atomic counters, updated from both sides
//      without locks.
// A durable engine (Open with a data_dir) additionally owns a DurableLog
// (engine/durable_log.h): the WAL, the sealed segments, the durable cut,
// disk health, the scrub and their background thread. The engine logs
// through it and applies what recovery hands back; nothing above it knows
// about files.
// Lazy re-estimation follows the same rule: a query that references an
// invalid model fits a fresh clone against its snapshot's history and
// publishes the result copy-on-write; the published entry never mutates.

#ifndef F2DB_ENGINE_ENGINE_H_
#define F2DB_ENGINE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/concurrent.h"
#include "common/failpoint.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/configuration.h"
#include "core/evaluator.h"
#include "cube/graph.h"
#include "engine/catalog.h"
#include "engine/durable_log.h"
#include "engine/plan_cache.h"
#include "engine/query.h"
#include "engine/snapshot.h"
#include "engine/stats_export.h"
#include "ts/intervals.h"
#include "ts/model.h"

namespace f2db {

/// Fault-injection site: a lazy re-estimation attempt fails with
/// kUnavailable instead of fitting (exercises the degradation ladder and
/// the retry/quarantine machinery).
F2DB_DEFINE_FAILPOINT(kFailpointEngineRefit, "engine.refit")
/// Fault-injection site: InsertFact fails before buffering the value.
F2DB_DEFINE_FAILPOINT(kFailpointEngineInsert, "engine.insert")
/// Fault-injection site: LoadCatalog fails while decoding a model row (the
/// whole load must abort and leave the previous state published).
F2DB_DEFINE_FAILPOINT(kFailpointCatalogDecode, "engine.catalog_decode")

/// Engine tuning knobs. Immutable once the engine is constructed — live
/// mutation would race with the concurrent query path.
struct EngineOptions {
  /// Threshold-based invalidation: a model is marked invalid after this
  /// many incremental updates and re-estimated on next use. 0 disables
  /// re-estimation entirely.
  std::size_t reestimate_after_updates = 0;
  /// Worker threads for maintenance fan-out (model catch-up on
  /// configuration load, per-advance incremental model updates).
  /// 1 = serial, 0 = ThreadPool::DefaultConcurrency().
  std::size_t maintenance_threads = 1;
  /// After this many consecutive failed re-estimations a node is
  /// quarantined: queries stop retrying the fit and serve the degradation
  /// ladder until the next data advance resets the node. 0 = never
  /// quarantine (every query retries).
  std::size_t quarantine_after_refit_failures = 3;
  /// Exponential backoff between refit retries: attempt n is allowed only
  /// after base * 2^(n-1) seconds have passed since the previous failure.
  /// 0 = retry immediately on every query (the default; tests and embedded
  /// single-shot use want deterministic behavior).
  double refit_retry_backoff_seconds = 0.0;

  /// Plan-cache capacity in entries (DESIGN.md §14): parsed statements are
  /// reused by normalized text, so repeat query shapes skip the
  /// lexer/parser. 0 disables the cache — correctness suites diff cached
  /// vs. uncached engines.
  std::size_t plan_cache_capacity = 256;

  // ---- durability (DESIGN.md §10) ----

  /// Data directory for the WAL and sealed segments. Empty = in-memory engine
  /// with no durability (the default; matches the plain constructor).
  /// Non-empty directories require construction through F2dbEngine::Open,
  /// which recovers existing state before serving.
  std::string data_dir;
  /// When WAL appends reach stable storage (see FsyncPolicy).
  FsyncPolicy fsync_policy = FsyncPolicy::kBatch;
  /// Group-commit size under FsyncPolicy::kBatch: fsync once per this many
  /// appended records.
  std::size_t wal_batch_records = 64;
  /// Ignored. The compaction is the engine's only durable cut (its cadence
  /// is compaction_interval_seconds); this field remains only so that
  /// existing callers that assign it keep compiling.
  double checkpoint_interval_seconds = 0.0;

  // ---- storage engine (DESIGN.md §13) ----

  /// Background compaction cadence in seconds: closed WAL history is
  /// sealed into compressed segments on this interval. 0 disables this
  /// task (compaction then happens only via CompactNow / shutdown).
  double compaction_interval_seconds = 0.0;
  /// Retention window in periods. After a compaction, sealed segments
  /// whose entire range is older than `frontier - retention_window` are
  /// deleted and the raw history is dropped from memory; model state,
  /// aggregates, and history sums (derivation weights) are preserved
  /// exactly. Size it to at least the model warm-up window — lazy
  /// re-estimation and the naive fallback refit against the RETAINED
  /// history only. 0 keeps all history forever.
  std::size_t retention_window = 0;

  // ---- disk-fault policy (DESIGN.md §15) ----

  /// Consecutive classified durability-I/O failures (EIO/ENOSPC, real or
  /// injected) before the engine enters read-only mode.
  std::size_t disk_failure_threshold = 3;
  /// In-line retries of a failed durable insert before its failure
  /// counts toward the threshold-crossing streak. Each retry sleeps
  /// disk_retry_backoff_ms * attempt (linear backoff, off the writer
  /// lock). 0 = fail on the first error.
  std::size_t disk_retry_attempts = 1;
  double disk_retry_backoff_ms = 2.0;
  /// Read-only probe cadence in seconds: while read-only, a background
  /// task writes and removes a sentinel file (<data_dir>/.f2db-health-
  /// probe, failpoint site io.probe_write) on this interval and exits
  /// read-only on the first durable success. 0 disables this task
  /// (read-only then persists until restart). Ignored in-memory.
  double disk_probe_interval_seconds = 0.25;
  /// retry-after-ms hint carried by read-only INSERT rejections (the
  /// client sleeps this long, capped by its max_retry_after_seconds).
  double read_only_retry_after_ms = 1000.0;

  // ---- integrity scrubber (DESIGN.md §15) ----

  /// Background scrub cadence in seconds: one full pass over the sealed
  /// segment chain and the manifest per interval. 0 disables this task
  /// (scrubs then happen only via ScrubOnce). Ignored in-memory.
  double scrub_interval_seconds = 0.0;
  /// Scrub read budget in bytes/second: the scrubber waits between files
  /// to stay under it, so a large chain cannot starve the live query
  /// path of disk bandwidth. 0 = unthrottled.
  std::size_t scrub_rate_bytes_per_second = 4u << 20;
};

/// How far down the fallback ladder a forecast had to go. Higher values
/// are worse; a multi-source answer reports the worst rung that
/// contributed. See "Failure semantics and the degradation ladder" in
/// DESIGN.md.
enum class DegradationLevel {
  kNone = 0,         ///< Valid or freshly re-estimated model.
  kStaleModel,       ///< Pre-invalidation model state (refit failed/skipped).
  kDerivedFallback,  ///< Recomputed through the source's own stored scheme.
  kNaiveFallback,    ///< Drift model fit on the snapshot's stored history.
  kUnavailable,      ///< Every rung failed; surfaced as kUnavailable status.
};

/// Stable display name ("NONE", "STALE_MODEL", ...).
const char* DegradationLevelName(DegradationLevel level);

/// Every engine metric, declared once (the row format is described in
/// engine/stats_export.h). The list order is the exposition order: the
/// query and maintenance series, then the durable log's
/// (F2DB_DURABLE_LOG_METRICS). READ expressions of the former run inside
/// F2dbEngine::stats(), where `plan` is the plan cache's counters, read
/// once under its lock; the plan-cache rows also run in
/// ShardedEngine::stats() against the facade's cache.
#define F2DB_ENGINE_METRICS(METRIC, FAMILY, SAMPLE)  \
  F2DB_ENGINE_OWN_METRICS(METRIC, FAMILY, SAMPLE)    \
  F2DB_DURABLE_LOG_METRICS(METRIC, FAMILY, SAMPLE)

#define F2DB_ENGINE_OWN_METRICS(METRIC, FAMILY, SAMPLE)                      \
  METRIC(queries, std::size_t, OWNED, counter, "f2db_queries_total",         \
         "Forecast queries served.", kSum)                                   \
  METRIC(inserts, std::size_t, OWNED, counter, "f2db_inserts_total",         \
         "Facts accepted into the insert buffer.", kSum)                     \
  METRIC(time_advances, std::size_t, OWNED, counter,                         \
         "f2db_time_advances_total",                                         \
         "Batched advances of the cube's time frontier.", kSum)              \
  METRIC(reestimates, std::size_t, OWNED, counter, "f2db_reestimates_total", \
         "Lazy model re-estimations published.", kSum)                       \
  METRIC(refit_failures, std::size_t, OWNED, counter,                        \
         "f2db_refit_failures_total",                                        \
         "Lazy re-estimation attempts that returned non-OK.", kSum)          \
  METRIC(quarantines, std::size_t, OWNED, counter, "f2db_quarantines_total", \
         "Nodes quarantined after consecutive refit failures.", kSum)        \
  FAMILY(counter, "f2db_degraded_rows_total",                                \
         "Forecast rows served per degradation rung.", "rung")               \
  SAMPLE(degraded_rows_stale, std::size_t, OWNED, "stale", kSum)             \
  SAMPLE(degraded_rows_derived, std::size_t, OWNED, "derived", kSum)         \
  SAMPLE(degraded_rows_naive, std::size_t, OWNED, "naive", kSum)             \
  METRIC(deadline_expired_queries, std::size_t, OWNED, counter,              \
         "f2db_deadline_expired_queries_total",                              \
         "Queries rejected because their deadline had already expired.",     \
         kSum)                                                               \
  METRIC(brownout_refits_skipped, std::size_t, OWNED, counter,               \
         "f2db_brownout_refits_skipped_total",                               \
         "Lazy re-estimations skipped by brownout-mode queries.", kSum)      \
  METRIC(plan_cache_hits, std::size_t, READ(plan.hits), counter,             \
         "f2db_plan_cache_hits_total",                                       \
         "Statement parses served from the plan cache.", kFacade)            \
  METRIC(plan_cache_misses, std::size_t, READ(plan.misses), counter,         \
         "f2db_plan_cache_misses_total",                                     \
         "Statement parses that missed the plan cache.", kFacade)            \
  METRIC(plan_cache_evictions, std::size_t, READ(plan.evictions), counter,   \
         "f2db_plan_cache_evictions_total",                                  \
         "Plan-cache entries dropped by the LRU capacity bound.", kFacade)   \
  METRIC(plan_cache_invalidations, std::size_t, READ(plan.invalidations),    \
         counter, "f2db_plan_cache_invalidations_total",                     \
         "Whole plan-cache drops on configuration install.", kFacade)        \
  METRIC(plan_cache_size, std::size_t, READ(plan_cache_.size()), gauge,      \
         "f2db_plan_cache_size", "Plans currently cached.", kFacade)         \
  METRIC(total_query_seconds, double, OWNED, counter,                        \
         "f2db_query_seconds_total",                                         \
         "Wall-clock seconds spent in the query layer.", kSum)               \
  METRIC(total_maintenance_seconds, double, OWNED, counter,                  \
         "f2db_maintenance_seconds_total",                                   \
         "Wall-clock seconds spent in maintenance.", kSum)

#define F2DB_ENGINE_METRIC_FIELD(field, ctype, source, type, name, help,   \
                                 merge)                                    \
  ctype field = static_cast<ctype>(MetricDefault(MergeRule::merge));
#define F2DB_ENGINE_SAMPLE_FIELD(field, ctype, source, label_value, merge) \
  ctype field = static_cast<ctype>(MetricDefault(MergeRule::merge));

/// Counter values exposed for benchmarking (Figure 9(b)), one field per
/// F2DB_ENGINE_METRICS series. This is a plain value snapshot; the live
/// counters are relaxed atomics, so the fields are individually exact but
/// not mutually consistent while threads run.
struct EngineStats {
  F2DB_ENGINE_METRICS(F2DB_ENGINE_METRIC_FIELD, F2DB_METRIC_SWALLOW,
                      F2DB_ENGINE_SAMPLE_FIELD)

  /// Renders the counters in the Prometheus text exposition format (see
  /// engine/stats_export.h); served by the network layer's STATS frame.
  std::string ToPrometheusText() const;
};

/// One output row of a forecast query.
struct ForecastRow {
  std::int64_t time = 0;
  double value = 0.0;
  /// Prediction interval bounds; meaningful when has_interval is true
  /// (WITH INTERVALS queries).
  double lower = 0.0;
  double upper = 0.0;
  bool has_interval = false;
  /// Worst fallback rung that contributed to this row (kNone = full
  /// fidelity).
  DegradationLevel degradation = DegradationLevel::kNone;
};

/// Result of a forecast query.
struct QueryResult {
  NodeId node = 0;          ///< The graph node the query resolved to.
  /// Human-readable node name, rendered from the snapshot the query ran
  /// against. Carried in the result so callers (the serving layer) never
  /// need to pin a second snapshot just to name the node — and so a
  /// sharded engine can report shard-local node ids with globally
  /// meaningful names.
  std::string node_name;
  std::vector<ForecastRow> rows;
  /// Worst degradation across the rows; kNone for a full-fidelity answer.
  DegradationLevel degradation = DegradationLevel::kNone;
  /// Human-readable cause when degradation != kNone (e.g. which node's
  /// re-estimation failed and which rung served the answer).
  std::string degradation_reason;
  /// The query set ForecastQuery::decline_refit and answering it needs a
  /// lazy re-estimation: nothing was computed or counted (rows are empty),
  /// and the caller must run the query again with refits allowed.
  bool refit_declined = false;
};

/// A scheme-derived forecast annotated with the degradation outcome — the
/// internal currency of the query path, exposed for tests and benches.
struct DegradedForecast {
  std::vector<double> values;
  /// Forecast variances; filled only on the interval query path.
  std::vector<double> variances;
  DegradationLevel level = DegradationLevel::kNone;
  /// Cause of the degradation; empty when level == kNone.
  std::string reason;
  /// A source needed a re-estimation the query declined
  /// (ForecastQuery::decline_refit); values are incomplete, never served.
  bool refit_declined = false;
};

/// Plan description produced by EXPLAIN (Section V: a forecast query is
/// rewritten to access the stored time series graph and models).
struct ExplainResult {
  NodeId node = 0;
  std::string node_name;
  /// The stored derivation scheme sources and the current weight.
  std::vector<NodeId> sources;
  double weight = 0.0;
  /// Human-readable model description per source ("node 7: arima, 5 params").
  std::vector<std::string> source_models;
  std::size_t horizon = 0;
};

/// Appends the display text of a forecast answer to *out: a "-- node:"
/// line, a "-- degraded:" line when degraded, then one "<time> | <value>"
/// row each (with "[lower, upper]" on the interval path). The one renderer
/// of the shell (ExecuteStatementText) and of the server's QUERY/EXECUTE
/// bodies; it needs no snapshot, since the node name travels in the result.
void RenderQueryResultInto(const QueryResult& result, std::string* out);

/// The display text of an EXPLAIN plan ("Forecast Query Plan" ...), for
/// the shell and the server alike.
std::string RenderExplainResult(const ExplainResult& plan);

/// Resolves WHERE filters against `graph`'s schema: each filter names a
/// level of some dimension and a member of that level, and dimensions
/// without a filter default to ALL. A second filter on an already
/// constrained dimension is kInvalidArgument naming the dimension. The one
/// resolver of F2dbEngine and of ShardedEngine (over its global graph);
/// once warmed on the calling thread, a successful call does not allocate.
Result<NodeId> ResolveFilters(const TimeSeriesGraph& graph,
                              const std::vector<DimensionFilter>& filters);

/// The surface the serving layer programs against: what a forecast engine
/// must offer regardless of whether it is one F2dbEngine or a sharded
/// facade over many (engine/sharded_engine.h). Kept deliberately narrow —
/// the full F2dbEngine API (snapshots, catalogs, node-id queries) stays on
/// the concrete class; only the operations the server routes for clients
/// are virtual.
class EngineInterface {
 public:
  virtual ~EngineInterface() = default;

  /// Executes a parsed forecast query. Implementations fill
  /// QueryResult::node_name so callers can render answers without touching
  /// engine snapshots.
  virtual Result<QueryResult> Execute(const ForecastQuery& query) const = 0;

  /// Describes the execution plan of a forecast query.
  virtual Result<ExplainResult> Explain(const ForecastQuery& query) const = 0;

  /// Parses statement text into a shared, immutable plan (DESIGN.md §14).
  /// Implementations serve repeat shapes from their plan cache without
  /// touching the lexer/parser. Plans from one implementation must only
  /// execute against that implementation (a pre-resolved node id is
  /// engine-local).
  virtual Result<PlanPtr> ParsePlan(const std::string& sql) const = 0;

  /// Executes a bound forecast query that came from one of this
  /// implementation's plans, writing into *out — the serving layer reuses
  /// *out across requests, so implementations overwrite rather than
  /// allocate fresh results where they can. Routing is identical to
  /// Execute(): a sharded engine scatter-gathers EXECUTE exactly like
  /// QUERY. The default delegates to Execute().
  virtual Status ExecutePlanInto(const CachedPlan& plan,
                                 const ForecastQuery& query,
                                 QueryResult* out) const;

  /// Inserts one fact addressed by level-0 value names (one per dimension).
  virtual Status InsertFact(const std::vector<std::string>& base_values,
                            std::int64_t time, double value) = 0;

  /// Buffered (not yet applied) inserts, summed across shards.
  virtual std::size_t pending_inserts() const = 0;

  /// Aggregated counter snapshot.
  virtual EngineStats stats() const = 0;

  /// Prometheus exposition of the engine counters; a sharded engine
  /// additionally emits per-shard labeled samples.
  virtual std::string StatsPrometheusText() const {
    return stats().ToPrometheusText();
  }

  /// Whether mutations are WAL-logged (drives the server's shutdown
  /// compaction).
  virtual bool durable() const = 0;

  /// Seals closed WAL history into compressed segments now (every shard,
  /// for a sharded engine) and applies retention. kFailedPrecondition for
  /// an in-memory engine.
  virtual Status CompactNow() = 0;
};

/// The embedded forecast-enabled database engine. It implements
/// DurableState privately: only its own DurableLog calls back into it.
class F2dbEngine : public EngineInterface, private DurableState {
 public:
  /// Takes ownership of the loaded fact cube (aggregates built). This
  /// constructor is always IN-MEMORY: options.data_dir is ignored here
  /// because construction cannot report a recovery failure — durable
  /// engines are built through Open().
  explicit F2dbEngine(TimeSeriesGraph graph, EngineOptions options = {});

  /// Closes the durable log: stops its background thread and closes the
  /// WAL (final fsync unless the policy is kNone). No shutdown compaction
  /// is run here — callers that want one (the server's drain path) call
  /// CompactNow() first.
  ~F2dbEngine();

  /// Opens an engine over options.data_dir: bulk-loads the sealed segment
  /// chain the manifest names, replays the WAL tail (tolerating a torn
  /// final record), and resumes logging. `graph` supplies the cube
  /// structure and the initial fact data; sealed base series replace the
  /// fact values wholesale. With an empty data_dir this is equivalent to
  /// the constructor.
  static Result<std::unique_ptr<F2dbEngine>> Open(TimeSeriesGraph graph,
                                                  EngineOptions options = {});

  /// Whether this engine writes a WAL (opened through Open with a
  /// data_dir; the plain constructor never is).
  bool durable() const override { return log_ != nullptr; }

  /// Runs one compaction — the engine's durable cut — right now: rotates
  /// the WAL to a fresh epoch, rewrites the live tail (configuration, each
  /// model's refit bookkeeping, pending inserts) into it, seals the closed
  /// history slice into a compressed segment, commits the manifest by
  /// atomic rename, and only then deletes the covered WAL epochs. When a
  /// retention window is configured, segments entirely older than the
  /// window are then dropped (on disk and in memory) with history sums
  /// preserved via manifest offsets. Serialized against itself.
  /// kFailedPrecondition for an in-memory engine.
  Status CompactNow() override;

  /// Current disk-health state (always kOk for an in-memory engine). While
  /// kReadOnly, queries serve annotated from COW snapshots, InsertFact
  /// rejects with kUnavailable + a retry-after-ms hint, and the background
  /// compaction and scrub tasks park (DESIGN.md §15).
  DiskHealthState disk_health() const {
    return log_ ? log_->health() : DiskHealthState::kOk;
  }

  /// One full integrity-scrub pass right now: re-reads and CRC-verifies
  /// every sealed segment and the manifest, throttled to
  /// options().scrub_rate_bytes_per_second (the background scrub's steps,
  /// run to completion on the calling thread). A corrupt segment is
  /// quarantined as *.corrupt and resealed from in-memory history via
  /// CompactNow — or, when retention already dropped that history, the
  /// engine enters read-only instead (serving memory is still exact; only
  /// the on-disk past is gone). A corrupt manifest is quarantined and
  /// rewritten by a reseal. kFailedPrecondition for an in-memory engine.
  Status ScrubOnce(ScrubReport* report = nullptr);

  /// The graph of the CURRENT snapshot. The reference stays valid until the
  /// next maintenance publication — a single-threaded convenience. Code
  /// that runs concurrently with maintenance must pin snapshot() instead.
  const TimeSeriesGraph& graph() const;

  /// Value snapshot of the engine counters (safe to call concurrently).
  EngineStats stats() const override;

  const EngineOptions& options() const { return options_; }

  /// Pins the current published state. All query entry points are
  /// equivalent to pinning a snapshot and running against it; callers that
  /// need repeatable reads across several queries pin one snapshot and use
  /// the snapshot-taking overloads below.
  SnapshotPtr snapshot() const { return LoadSnapshot(); }

  // -------------------------------------------------- configuration load

  /// Installs an advisor/baseline configuration: schemes are copied, every
  /// uncovered node receives a fallback scheme (nearest model node), and
  /// the models are caught up from their training state to the full stored
  /// history via incremental updates. Serialized with all maintenance; on
  /// failure the previous state stays published untouched.
  Status LoadConfiguration(const ModelConfiguration& config,
                           const ConfigurationEvaluator& evaluator);

  /// Restores a configuration from catalog tables (Save/Load round trip).
  /// Transactional like LoadConfiguration.
  Status LoadCatalog(const ConfigurationCatalog& catalog);

  /// Exports the current configuration as catalog tables.
  Result<ConfigurationCatalog> ExportCatalog() const;

  /// Number of live models.
  std::size_t num_models() const { return LoadSnapshot()->models.size(); }

  // ------------------------------------------------------------- queries

  /// Parses and executes a forecast query.
  Result<QueryResult> ExecuteSql(const std::string& sql) const;

  /// Executes a parsed forecast query against the current snapshot.
  Result<QueryResult> Execute(const ForecastQuery& query) const override;

  /// Plan-cached parse: normalizes the text, serves a cached plan when one
  /// exists, otherwise parses, pre-resolves the node where the filter list
  /// has no bind slots (graph STRUCTURE is fixed for the engine's
  /// lifetime, so resolution is snapshot-stable), and caches. Counted in
  /// EngineStats (plan_cache_*).
  Result<PlanPtr> ParsePlan(const std::string& sql) const override;

  /// Executes a bound query using a plan's pre-resolved node (skipping
  /// filter resolution) and reusing *out's row buffer. Values always come
  /// from the snapshot pinned at THIS call — plans hold no data, so a
  /// cached plan can never serve stale answers.
  Status ExecutePlanInto(const CachedPlan& plan, const ForecastQuery& query,
                         QueryResult* out) const override;

  /// Execute() writing into a caller-reused result (the EXECUTE hot path:
  /// row and scratch buffers keep their capacity across calls).
  Status ExecuteInto(const ForecastQuery& query, QueryResult* out) const;

  /// Describes the execution plan of a forecast query without computing
  /// forecasts: the resolved node, its stored derivation scheme, the
  /// current derivation weight, and the source models.
  Result<ExplainResult> Explain(const ForecastQuery& query) const override;

  /// Parses and executes ANY statement of the dialect (SELECT / INSERT /
  /// EXPLAIN SELECT) and renders the outcome as display text — the
  /// interactive shell entry point. Non-const: INSERT enters maintenance.
  Result<std::string> ExecuteStatementText(const std::string& sql);

  /// Resolves WHERE filters to a graph node (unfiltered dimensions = ALL).
  Result<NodeId> ResolveNode(const std::vector<DimensionFilter>& filters) const;

  /// Computes the `horizon` forecasts of a node via its stored scheme.
  /// Counts as a query in stats() (used by the Figure 9(b) bench to bypass
  /// SQL parsing).
  Result<std::vector<double>> ForecastNode(NodeId node,
                                           std::size_t horizon) const;

  /// Same, against an explicitly pinned snapshot (repeatable reads: the
  /// same snapshot always yields the same forecast).
  Result<std::vector<double>> ForecastNode(const SnapshotPtr& snapshot,
                                           NodeId node,
                                           std::size_t horizon) const;

  /// Interval forecasts for a node at the given confidence level. The
  /// variance of a derived scheme is k^2 * sum of the source model
  /// variances (sources treated as independent). Fails when some source
  /// model does not support variances.
  Result<std::vector<ForecastInterval>> ForecastNodeWithIntervals(
      NodeId node, std::size_t horizon, double confidence = 0.95) const;

  // --------------------------------------------------------- maintenance

  /// Inserts one new fact for a base cell identified by its level-0 value
  /// names (ordered by dimension). Values are buffered per time stamp; when
  /// every base series has a value for the next period, time advances.
  Status InsertFact(const std::vector<std::string>& base_values,
                    std::int64_t time, double value) override;

  /// Same, addressing the base node directly.
  Status InsertFact(NodeId base_node, std::int64_t time, double value);

  /// Number of buffered (not yet applied) inserts.
  std::size_t pending_inserts() const override;

 private:
  /// Live slots of the engine's OWNED metrics: relaxed atomics, lock-free
  /// on both the query and the maintenance side.
  struct StatsCounters {
    F2DB_ENGINE_OWN_METRICS(F2DB_METRIC_SLOT_ROW, F2DB_METRIC_SWALLOW,
                            F2DB_METRIC_SLOT_ROW)
  };

  SnapshotPtr LoadSnapshot() const {
    return snapshot_.load(std::memory_order_acquire);
  }

  /// Installs `next` as the current snapshot. Caller holds writer_mutex_.
  /// Const because query threads publish re-estimates too.
  void Publish(std::shared_ptr<EngineSnapshot> next) const;

  /// Shared core of Execute / ExecuteInto / ExecutePlanInto: forecasts
  /// `node` against `snapshot` and renders rows into *out, reusing its
  /// buffers. Handles stats accounting (queries, query seconds, degraded
  /// rows); the deadline gate has already run.
  Status ForecastIntoResult(const SnapshotPtr& snapshot, NodeId node,
                            const ForecastQuery& query, QueryResult* out) const;

  /// Deadline gate shared by the execute entry points: counts and answers
  /// kDeadlineExceeded when the budget is already spent.
  Status CheckQueryDeadline(const ForecastQuery& query) const;

  /// What a source whose model is invalid does about its lazy
  /// re-estimation: fit it, skip it and serve the stale rung (an overload
  /// brownout or a read-only engine — the skip names which), or decline
  /// the whole query before the fit (ForecastQuery::decline_refit).
  enum class RefitMode { kRefit, kSkipOverload, kSkipReadOnly, kDecline };

  /// The refit posture of every forecast entry point: kSkipOverload for
  /// brownout, kSkipReadOnly for a read-only durable engine, then kDecline
  /// for decline_refit.
  RefitMode ChooseRefitMode(bool brownout = false,
                            bool decline_refit = false) const;

  /// Scheme-based forecast against one snapshot (shared by Execute and
  /// ForecastNode; no stats accounting). Bounds-checks `node`, then
  /// combines the node's stored scheme via CombineScheme. `want_variance`
  /// additionally fills DegradedForecast::variances (interval path).
  /// `mode` (from ChooseRefitMode) rides along to ForecastSource.
  Result<DegradedForecast> ForecastInternal(
      const SnapshotPtr& snapshot, NodeId node, std::size_t horizon,
      bool want_variance, RefitMode mode) const;

  /// Sums the source forecasts of `node`'s stored scheme and applies the
  /// derivation weight. The reported level/reason is the worst rung any
  /// source had to fall to; a declined source ends the sum at once.
  /// `depth` limits derived-fallback recursion.
  Result<DegradedForecast> CombineScheme(const SnapshotPtr& snapshot,
                                         NodeId node, std::size_t horizon,
                                         bool want_variance, RefitMode mode,
                                         std::size_t depth) const;

  /// Produces the forecast of ONE scheme source, degrading through the
  /// fallback ladder (DESIGN.md, "Failure semantics"):
  ///   valid model → lazy refit → stale pre-invalidation model →
  ///   source's own derivation scheme → drift model on stored history →
  ///   kUnavailable.
  /// A successful refit is offered copy-on-write (OfferReestimate); a
  /// failed one is recorded copy-on-write (OfferRefitFailure) and may
  /// quarantine the node. Under RefitMode::kDecline a refit that would
  /// start returns DegradedForecast::refit_declined instead, untouched.
  Result<DegradedForecast> ForecastSource(const SnapshotPtr& snapshot,
                                          NodeId source, std::size_t horizon,
                                          bool want_variance, RefitMode mode,
                                          std::size_t depth) const;

  /// Whether a refit of the model with record `live` may be attempted now
  /// (not quarantined and outside the exponential backoff window).
  bool RefitAllowed(const ModelRecord& live) const;

  /// Publishes a re-estimated model (parameters and its own state) unless
  /// the node's model has been rewritten since the refit read it at
  /// `expected_generation` (then the refit is discarded).
  void OfferReestimate(NodeId node, std::uint64_t expected_generation,
                       std::shared_ptr<const ForecastModel> fresh,
                       double creation_seconds) const;

  /// Records a failed re-estimation attempt copy-on-write: bumps the
  /// model's consecutive-failure count, stamps the attempt time, and
  /// quarantines the node once the threshold is crossed. Checked against
  /// `expected`'s generation like OfferReestimate.
  void OfferRefitFailure(NodeId node, const ModelRecord& expected) const;

  /// Attributes `rows` forecast rows to the stats counter of `level`.
  void CountDegradedRows(DegradationLevel level, std::size_t rows) const;

  /// Applies every complete buffered batch at the current frontier and
  /// publishes one successor snapshot. Caller holds writer_mutex_.
  Status AdvanceWhileCompleteLocked();

  /// One period's buffered inserts, by base slot. Once complete, `values`
  /// is the period's base column as it is.
  struct PendingPeriod {
    std::vector<double> values;  ///< meaningful where present
    std::vector<bool> present;
    std::size_t filled = 0;  ///< number of present slots

    bool complete() const { return filled == values.size(); }
    void Set(std::size_t slot, double value) {
      if (!present[slot]) {
        present[slot] = true;
        ++filled;
      }
      values[slot] = value;
    }
  };
  using PendingMap = std::map<std::int64_t, PendingPeriod>;

  /// The pending period at `time`, created with `slots` empty values
  /// (reusing the spare map node when there is one) if absent. Caller holds
  /// writer_mutex_.
  PendingPeriod& PendingPeriodLocked(std::int64_t time, std::size_t slots);

  /// The index of `node` in base_nodes(), or kNoBaseSlot.
  std::uint32_t BaseSlotOf(NodeId node) const {
    return node < base_slot_.size() ? base_slot_[node] : kNoBaseSlot;
  }
  static constexpr std::uint32_t kNoBaseSlot = 0xffffffffu;

  /// Shared core of InsertFact and the replay of a kInsert record: full
  /// validation, then a WAL append when the engine has a log, then buffer
  /// and advance.
  Status InsertFactImpl(NodeId base_node, std::int64_t time, double value);

  /// Renders the given snapshot's configuration as catalog tables (the
  /// payload of a WAL kCatalog record; also backs ExportCatalog).
  static ConfigurationCatalog CatalogFromSnapshot(const EngineSnapshot& snap);

  // ---------------------------------------- DurableState (durable_log.h)

  /// Restores series history by decoding the sealed segment chain
  /// directly — base series are bulk-loaded and aggregates/history sums
  /// rebuilt once, instead of re-running maintenance per record.
  /// Configuration, model bookkeeping, and the pending buffer arrive via
  /// the rewritten records at the head of the manifest's WAL epoch.
  Status ApplySegmentState(const Manifest& manifest,
                           SegmentChain&& chain) override;

  /// Re-applies one replayed WAL record. A run of consecutive
  /// kBookkeeping records builds one successor (bookkeeping_run_), which
  /// the first record of another kind publishes.
  Status ApplyWalRecord(const WalRecord& record) override;
  /// Publishes the pending bookkeeping run, if any.
  void EndRecovery() override;

  /// Under writer_mutex_: the tail (catalog, bookkeeping, pending
  /// inserts), the graph and the counters of the current snapshot.
  Status CaptureCut(Cut* cut, const std::function<Status()>& write) override;
  Status DropHistoryBefore(std::int64_t tick) override;
  bool HistoryReaches(std::int64_t tick) const override;

  /// The maintenance fan-out pool (nullptr = serial maintenance).
  ThreadPool* MaintenancePool() const;

  const EngineOptions options_;
  mutable StatsCounters stats_;

  /// LRU plan cache behind ParsePlan (DESIGN.md §14). Internally
  /// synchronized; invalidated by LoadConfiguration / LoadCatalog.
  mutable PlanCache plan_cache_;

  /// Engine-relative clock for the refit retry backoff (ModelRecord stamps
  /// last_refit_attempt_seconds against this watch).
  const StopWatch uptime_;

  /// The published state; queries load it, maintenance (and the install
  /// step of query-side re-estimation) stores it.
  mutable std::atomic<SnapshotPtr> snapshot_;

  /// Serializes every state publication: maintenance end-to-end, and the
  /// (brief) install step of query-side re-estimation.
  mutable std::mutex writer_mutex_;

  /// Lazily created fan-out pool for maintenance work.
  mutable std::unique_ptr<ThreadPool> pool_;
  mutable std::once_flag pool_once_;

  // ---- maintenance-only state below (guarded by writer_mutex_) ----

  /// Insert buffer: time -> per-base-slot pending values.
  PendingMap pending_;
  /// The map node of the last period that advanced, kept for the next one,
  /// so that buffering an insert allocates nothing once warm.
  PendingMap::node_type spare_period_;
  /// Node -> index in base_nodes(), kNoBaseSlot for aggregates; fixed at
  /// construction.
  std::vector<std::uint32_t> base_slot_;
  /// Reused by every time advance: the per-node column BeginSuccessor
  /// computes from the period's base values.
  std::vector<double> advance_column_;

  /// The unpublished successor a run of replayed kBookkeeping records
  /// writes (ApplyWalRecord); empty outside such a run.
  std::shared_ptr<EngineSnapshot> bookkeeping_run_;

  /// The WAL, the sealed segments and the background thread; nullptr for
  /// an in-memory engine, and until recovery is over. Declared last so that
  /// its thread stops before anything it calls back into is destroyed.
  std::unique_ptr<DurableLog> log_;
};

}  // namespace f2db

#endif  // F2DB_ENGINE_ENGINE_H_
