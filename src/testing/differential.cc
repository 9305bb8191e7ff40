#include "testing/differential.h"

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "core/evaluator.h"
#include "cube/cube_schema.h"
#include "cube/hierarchy.h"
#include "engine/engine.h"
#include "engine/sharded_engine.h"
#include "engine/wal.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "storage/fsio.h"
#include "testing/crash.h"
#include "ts/model_factory.h"

namespace f2db::testing {

namespace {

// Tolerances (DESIGN.md §9): typed answers against the oracle, and wire
// answers (rows rendered "%.4f") against the oracle or the typed answer.
constexpr double kRelTol = 1e-6;
constexpr double kAbsTol = 1e-8;
constexpr double kWireRelTol = 1e-9;
constexpr double kWireAbsTol = 2e-4;

// The loopback server and the overload flood.
constexpr std::size_t kWorkerThreads = 2;
constexpr std::size_t kFloodClients = 4;
constexpr std::size_t kFloodQueriesPerClient = 40;
/// Brownout engages at queue depth >= 1, so concurrent clients force the
/// degradation ladder deterministically.
constexpr std::size_t kBrownoutWatermark = 1;

// kIo engine knobs, small so the storm converges fast.
constexpr std::size_t kDiskFailureThreshold = 2;
constexpr std::size_t kDiskRetryAttempts = 1;
constexpr double kProbeIntervalSeconds = 0.05;
constexpr double kReadOnlyRetryAfterMs = 5.0;
/// How long the heal poll waits for the probe after the faults are
/// disarmed.
constexpr double kRecoveryDeadlineSeconds = 10.0;

/// kKill: the horizon of the recovered-forecast comparison.
constexpr std::size_t kKillHorizon = 3;

bool ValuesClose(double a, double b, double rel, double abs) {
  if (std::isnan(a) || std::isnan(b)) return false;
  return std::abs(a - b) <= abs + rel * std::max(std::abs(a), std::abs(b));
}

NodeAddress ToNodeAddress(const OracleAddress& address) {
  NodeAddress out;
  out.coords.resize(address.coords.size());
  for (std::size_t d = 0; d < address.coords.size(); ++d) {
    out.coords[d] = {static_cast<LevelIndex>(address.coords[d].level),
                     static_cast<ValueIndex>(address.coords[d].value)};
  }
  return out;
}

/// Level-0 value names of one base cell, decoded in the oracle's odometer
/// order (dimension 0 most significant) — the InsertFact address form,
/// whose names[0] also picks a ShardedEngine partition.
std::vector<std::string> CellBaseValues(const WorkloadSpec& spec,
                                        std::size_t cell) {
  std::vector<std::string> names(spec.dims.size());
  std::size_t rest = cell;
  for (std::size_t d = spec.dims.size(); d-- > 0;) {
    const std::size_t radix = spec.dims[d].num_values(0);
    names[d] = spec.dims[d].values[0][rest % radix];
    rest /= radix;
  }
  return names;
}

/// An oracle holding the spec's base histories (no models).
ReferenceOracle SeededOracle(const WorkloadSpec& spec) {
  ReferenceOracle oracle(spec.dims);
  for (std::size_t cell = 0; cell < spec.base_history.size(); ++cell) {
    oracle.SetBaseSeries(cell, spec.base_history[cell]);
  }
  return oracle;
}

/// Maps the ReferenceOracle insert verdict to the StatusCode the engines
/// must report. kNonFinite maps to kInvalidArgument on every path: the
/// typed path rejects the non-finite value, the SQL path rejects the
/// unparseable "nan" literal — same code, different message.
StatusCode ExpectedInsertCode(OracleInsert verdict) {
  switch (verdict) {
    case OracleInsert::kAccepted:
      return StatusCode::kOk;
    case OracleInsert::kBehindFrontier:
      return StatusCode::kOutOfRange;
    case OracleInsert::kDuplicate:
      return StatusCode::kAlreadyExists;
    case OracleInsert::kNonFinite:
    case OracleInsert::kUnknownCell:
      return StatusCode::kInvalidArgument;
  }
  return StatusCode::kInternal;
}

/// The degradation annotation every executor must report for a query on
/// `address`, derived from the oracle's state alone:
///   - a scheme source without a model forces the derived-fallback rung;
///   - in fault mode every model invalidates after `reestimate_after`
///     advances and the armed engine.refit failpoint turns the lazy refit
///     into the stale-model rung.
DegradationLevel ExpectedDegradation(const WorkloadSpec& spec,
                                     const ReferenceOracle& oracle,
                                     const OracleAddress& address) {
  if (!oracle.FullFidelity(address)) return DegradationLevel::kDerivedFallback;
  if (spec.inject_refit_failures && spec.reestimate_after_updates > 0 &&
      oracle.advances() >= spec.reestimate_after_updates) {
    return DegradationLevel::kStaleModel;
  }
  return DegradationLevel::kNone;
}

// ---------------------------------------------------------- the answers

/// One executor's answer to a forecast query, normalised.
struct Answer {
  StatusCode code = StatusCode::kOk;
  /// Why a query failed: status text or wire body.
  std::string error;
  DegradationLevel degradation = DegradationLevel::kNone;
  std::string reason;
  /// Rendered "%.4f" by the wire: compared with the wire tolerance.
  bool wire = false;
  std::vector<std::pair<std::int64_t, double>> rows;

  bool ok() const { return code == StatusCode::kOk; }
  std::string Describe() const {
    return ok() ? "ok" : std::string(StatusCodeName(code)) + " (" + error + ")";
  }
};

Answer TypedAnswer(const Result<QueryResult>& result) {
  Answer out;
  if (!result.ok()) {
    out.code = result.status().code();
    out.error = result.status().ToString();
    return out;
  }
  out.degradation = result.value().degradation;
  out.reason = result.value().degradation_reason;
  for (const ForecastRow& row : result.value().rows) {
    out.rows.push_back({row.time, row.value});
  }
  return out;
}

/// Parses a wire response: "time|value" rows and "--" comment lines. A kOk
/// body that does not parse, or whose "-- degraded:" marker disagrees with
/// the header's DegradationLevel (a silently degraded answer), normalises
/// to kInternal carrying the cause.
Answer WireAnswer(const WireResponse& response) {
  Answer out;
  out.wire = true;
  out.code = response.status;
  out.degradation = response.degradation;
  if (!out.ok()) {
    out.error = response.body;
    return out;
  }
  bool marker = false;
  const std::string& body = response.body;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line.rfind("--", 0) == 0) {
      marker = marker || line.rfind("-- degraded:", 0) == 0;
      continue;
    }
    const std::size_t bar = line.find('|');
    if (bar == std::string::npos) {
      out.code = StatusCode::kInternal;
      out.error = "unparseable wire body, row without '|': " + line;
      return out;
    }
    out.rows.push_back({std::strtoll(line.c_str(), nullptr, 10),
                        std::strtod(line.c_str() + bar + 1, nullptr)});
  }
  if (marker != (out.degradation != DegradationLevel::kNone)) {
    out.code = StatusCode::kInternal;
    out.error = std::string("wire '-- degraded:' marker ") +
                (marker ? "present" : "absent") + " under header " +
                DegradationLevelName(out.degradation) +
                " (silently degraded answer)";
  }
  return out;
}

/// What the oracle says one query must answer.
struct Expected {
  std::optional<std::vector<double>> values;  ///< nullopt: unavailable
  DegradationLevel level = DegradationLevel::kNone;
  std::int64_t now = 0;
};

Expected Expect(const WorkloadSpec& spec, const ReferenceOracle& oracle,
                const OracleAddress& address, std::size_t horizon) {
  return {oracle.Forecast(address, horizon),
          ExpectedDegradation(spec, oracle, address), oracle.frontier()};
}

/// The answer-vs-oracle check: availability, row count, degradation
/// annotation, row times and values. Returns "" on agreement.
std::string CheckAgainstOracle(const Answer& got, const Expected& want) {
  if (got.ok() != want.values.has_value()) {
    return "availability mismatch: got " + got.Describe() + ", oracle " +
           (want.values ? "ok" : "unavailable");
  }
  if (!got.ok()) return "";
  const std::vector<double>& values = *want.values;
  if (got.rows.size() != values.size()) {
    return "row count mismatch: got " + std::to_string(got.rows.size()) +
           ", oracle " + std::to_string(values.size());
  }
  if (got.degradation != want.level) {
    return std::string("degradation mismatch: got ") +
           DegradationLevelName(got.degradation) + ", expected " +
           DegradationLevelName(want.level) + " (" + got.reason + ")";
  }
  for (std::size_t h = 0; h < values.size(); ++h) {
    const std::int64_t time = want.now + static_cast<std::int64_t>(h);
    if (got.rows[h].first != time) {
      return "row time mismatch: got " + std::to_string(got.rows[h].first) +
             ", expected " + std::to_string(time);
    }
    if (!ValuesClose(got.rows[h].second, values[h],
                     got.wire ? kWireRelTol : kRelTol,
                     got.wire ? kWireAbsTol : kAbsTol)) {
      return "value mismatch at h=" + std::to_string(h) + ": got " +
             RenderDouble(got.rows[h].second) + ", oracle " +
             RenderDouble(values[h]);
    }
  }
  return "";
}

/// The wire-vs-typed check: a wire answer against the in-process answer
/// of the same state. Returns "" on agreement.
std::string CheckWireAgainstTyped(const Answer& wire, const Answer& typed) {
  if (wire.ok() != typed.ok()) {
    return "wire status mismatch: wire " + wire.Describe() + ", typed " +
           typed.Describe();
  }
  if (!typed.ok()) return "";
  if (wire.degradation != typed.degradation) {
    return std::string("wire degradation mismatch: wire ") +
           DegradationLevelName(wire.degradation) + ", typed " +
           DegradationLevelName(typed.degradation);
  }
  if (wire.rows.size() != typed.rows.size()) return "wire row count mismatch";
  for (std::size_t h = 0; h < wire.rows.size(); ++h) {
    if (wire.rows[h].first != typed.rows[h].first) {
      return "wire row time mismatch at h=" + std::to_string(h);
    }
    if (!ValuesClose(wire.rows[h].second, typed.rows[h].second, kWireRelTol,
                     kWireAbsTol)) {
      return "wire value mismatch at h=" + std::to_string(h) + ": wire " +
             RenderDouble(wire.rows[h].second) + ", typed " +
             RenderDouble(typed.rows[h].second);
    }
  }
  return "";
}

/// One executor's answer to an insert.
struct InsertOutcome {
  StatusCode code = StatusCode::kOk;
  std::string message;
  /// kUnavailable carrying the fsio errno marker or the read-only hint:
  /// an HONEST disk rejection — the oracle must not be touched.
  bool disk_rejected = false;
  /// The rejection carried the "retry-after-ms=" read-only hint.
  bool read_only_hint = false;
};

/// The disk-health counters only the insert path moves here (the health
/// probe moves the state and the exits; no compaction runs in the
/// background).
std::array<std::size_t, 5> InsertPathDiskCounters(const F2dbEngine& engine) {
  const EngineStats stats = engine.stats();
  return {stats.io_retries, stats.io_failures_eio, stats.io_failures_enospc,
          stats.io_failures_other, stats.read_only_entries};
}

InsertOutcome ClassifyInsert(StatusCode code, std::string message) {
  InsertOutcome out;
  out.code = code;
  out.message = std::move(message);
  if (code == StatusCode::kOk) return out;
  out.read_only_hint = ParseRetryAfterMs(out.message).has_value();
  out.disk_rejected =
      code == StatusCode::kUnavailable &&
      (out.message.find("[errno:") != std::string::npos || out.read_only_hint);
  return out;
}

// ------------------------------------------------------ prepared shadow

/// Connection-scoped prepared-statement cache for the shadow executors.
/// Prepares lazily per parameterized text; when the server's
/// per-connection statement cap refuses a PREPARE, the oldest cached
/// statement is CLOSE_STMTed and the PREPARE retried — so long workloads
/// double as an eviction exercise.
class PreparedCache {
 public:
  Result<std::uint32_t> IdFor(F2dbClient& client, const std::string& sql,
                              std::size_t expect_slots) {
    const auto it = ids_.find(sql);
    if (it != ids_.end()) return it->second;
    auto prepared = client.Prepare(sql);
    if (!prepared.ok() &&
        prepared.status().code() == StatusCode::kResourceExhausted &&
        !order_.empty()) {
      auto closed = client.CloseStatement(ids_[order_.front()]);
      if (!closed.ok()) return closed.status();
      if (closed.value().status != StatusCode::kOk) {
        return Status(closed.value().status, closed.value().body);
      }
      ids_.erase(order_.front());
      order_.erase(order_.begin());
      prepared = client.Prepare(sql);
    }
    if (!prepared.ok()) return prepared.status();
    if (prepared.value().num_slots != expect_slots) {
      return Status::Internal(
          "PREPARE slot count mismatch for \"" + sql + "\": got " +
          std::to_string(prepared.value().num_slots) + " expected " +
          std::to_string(expect_slots));
    }
    ids_.emplace(sql, prepared.value().stmt_id);
    order_.push_back(sql);
    return prepared.value().stmt_id;
  }

 private:
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<std::string> order_;  // FIFO eviction order
};

/// The prepared wall: PREPAREs (via `cache`) and EXECUTEs the
/// parameterized form of one query and demands the response be
/// BIT-IDENTICAL to the raw QUERY's — status, DegradationLevel, and body
/// bytes, also when the query failed.
///
/// One allowance, and only under fault injection: every execution attempt
/// advances the engine's refit-failure bookkeeping, so the raw QUERY and
/// its shadow EXECUTE can straddle the quarantine threshold and render
/// different STALE_MODEL reasons for the same values. Degradation state is
/// monotone with an absorbing quarantine rung, so on a mismatch the wall
/// re-shadows once with a fresh QUERY/EXECUTE pair taken from the settled
/// state — a genuine codec or renderer divergence reproduces on the retry;
/// the threshold crossing does not. Returns the empty string on agreement,
/// the failure cause otherwise.
std::string ComparePreparedExecution(F2dbClient& client, PreparedCache& cache,
                                     const std::string& raw_sql,
                                     const std::string& prepared_sql,
                                     const std::vector<std::string>& binds,
                                     const WireResponse& query_response) {
  const auto stmt = cache.IdFor(client, prepared_sql, binds.size());
  if (!stmt.ok()) {
    return "PREPARE failed for \"" + prepared_sql +
           "\": " + stmt.status().ToString();
  }
  const auto compare = [&prepared_sql](
                           const WireResponse& exec,
                           const WireResponse& query) -> std::string {
    if (exec.status != query.status) {
      return "EXECUTE status diverged from QUERY for \"" + prepared_sql +
             "\": execute=" + StatusCodeName(exec.status) +
             " query=" + StatusCodeName(query.status);
    }
    if (exec.degradation != query.degradation) {
      return "EXECUTE degradation diverged from QUERY for \"" + prepared_sql +
             "\": execute=" + DegradationLevelName(exec.degradation) +
             " query=" + DegradationLevelName(query.degradation);
    }
    if (exec.body != query.body) {
      return "EXECUTE body not bit-identical to QUERY for \"" + prepared_sql +
             "\": execute=\"" + exec.body + "\" query=\"" + query.body + "\"";
    }
    return std::string();
  };
  auto executed = client.ExecutePrepared(stmt.value(), binds);
  if (!executed.ok()) {
    return "EXECUTE transport failure for \"" + prepared_sql +
           "\": " + executed.status().ToString();
  }
  const std::string diverged = compare(executed.value(), query_response);
  if (diverged.empty()) return diverged;
  // Re-shadow once from the settled degradation state (see the function
  // comment): a fresh pair must agree byte-for-byte.
  const auto requery = client.Query(raw_sql);
  if (!requery.ok()) {
    return "re-shadow QUERY transport failure for \"" + raw_sql +
           "\": " + requery.status().ToString();
  }
  executed = client.ExecutePrepared(stmt.value(), binds);
  if (!executed.ok()) {
    return "re-shadow EXECUTE transport failure for \"" + prepared_sql +
           "\": " + executed.status().ToString();
  }
  return compare(executed.value(), requery.value());
}

/// The typed ForecastQuery of one oracle address. The sharded facade has
/// no SQL entry point; EngineInterface::Execute takes the parsed form,
/// and level/value names resolve identically against the global schema.
ForecastQuery BuildTypedQuery(const WorkloadSpec& spec,
                              const OracleAddress& address,
                              std::size_t horizon) {
  ForecastQuery query;
  query.measure = "m";
  query.aggregate = true;
  query.horizon = horizon;
  for (std::size_t d = 0; d < spec.dims.size(); ++d) {
    const OracleDimension& dim = spec.dims[d];
    const auto& [level, value] = address.coords[d];
    if (level >= dim.num_levels()) continue;  // ALL: no predicate
    query.filters.push_back(
        {dim.level_names[level], dim.values[level][value]});
  }
  return query;
}

std::string DescribePlan(const DifferentialPlan& plan) {
  static constexpr const char* kTopologies[] = {"embedded", "server",
                                                "sharded"};
  static constexpr const char* kFaults[] = {"spec", "io", "overload", "kill"};
  std::string out = std::string(kTopologies[static_cast<int>(plan.topology)]) +
                    "/" + kFaults[static_cast<int>(plan.faults)] + "/" +
                    (plan.mode == Mode::kPrepared ? "prepared" : "query");
  if (plan.topology == Topology::kSharded) {
    out += " shards=" + std::to_string(plan.num_shards);
  }
  if (plan.faults == FaultPlan::kIo) {
    out += " fault_seed=" + std::to_string(plan.fault_seed) +
           " site=" + plan.fault_site;
  }
  return out;
}

// ------------------------------------------------------ the replay core

/// One engine state under test and the oracle that mirrors exactly the
/// inserts it accepted.
struct Target {
  explicit Target(const WorkloadSpec& spec, std::string label)
      : oracle(SeededOracle(spec)), name(std::move(label)) {}

  ReferenceOracle oracle;
  std::string name;  ///< "embedded", "wire" or "sharded"
  std::unique_ptr<F2dbEngine> engine;
  std::unique_ptr<ShardedEngine> sharded;
  /// Queried and inserted in-process (SQL text for the engine, typed ops
  /// for the sharded facade); otherwise only through the wire.
  bool in_process = true;
  /// Served to the loopback client.
  bool wire = false;

  /// The engines whose counters must track the oracle.
  std::vector<const F2dbEngine*> Engines() const {
    if (!sharded) return {engine.get()};
    std::vector<const F2dbEngine*> out;
    for (const std::size_t p : sharded->active_partitions()) {
      out.push_back(sharded->shard(p));
    }
    return out;
  }
};

/// The op loop shared by every plan but kKill: executors per Target, one
/// answer check per executor, one insert-verdict check per insert.
class Replay {
 public:
  Replay(const WorkloadSpec& spec, const DifferentialPlan& plan)
      : spec_(spec), plan_(plan), io_(plan.faults == FaultPlan::kIo) {}

  DifferentialReport Run() {
    failpoint::ScopedDisableAll disarm_guard;
    std::string failure = Setup();
    if (failure.empty()) {
      failure = plan_.faults == FaultPlan::kOverload ? Flood() : ReplayOps();
    }
    if (failure.empty() && io_) failure = StormAndHeal();
    if (failure.empty()) failure = CheckMaintenance();
    if (failure.empty() && io_) failure = Reopen();
    Close();
    if (!failure.empty()) {
      report_.ok = false;
      report_.failure = "seed=" + std::to_string(spec_.seed) +
                        " shape=" + spec_.shape_name + " plan=" +
                        DescribePlan(plan_) + ": " + failure;
    } else if (io_) {
      RemoveDirectoryTree(plan_.data_dir);
    }
    return report_;
  }

 private:
  EngineOptions Options(const std::string& subdir) const {
    EngineOptions options;
    options.reestimate_after_updates = spec_.reestimate_after_updates;
    options.maintenance_threads = 1;
    if (io_) {
      options.data_dir = plan_.data_dir + "/" + subdir;
      options.fsync_policy = FsyncPolicy::kAlways;
      options.disk_failure_threshold = kDiskFailureThreshold;
      options.disk_retry_attempts = kDiskRetryAttempts;
      options.disk_retry_backoff_ms = 0.0;
      options.disk_probe_interval_seconds = kProbeIntervalSeconds;
      options.read_only_retry_after_ms = kReadOnlyRetryAfterMs;
    }
    return options;
  }

  /// Opens one configured F2dbEngine under `subdir` (durable plans).
  std::string OpenEngine(Target& target, const std::string& subdir) {
    auto graph = BuildWorkloadGraph(spec_);
    if (!graph.ok()) return graph.status().ToString();
    auto opened = F2dbEngine::Open(std::move(graph.value()), Options(subdir));
    if (!opened.ok()) return opened.status().ToString();
    target.engine = std::move(opened.value());
    auto config = BuildWorkloadConfiguration(spec_, target.engine->graph());
    if (!config.ok()) return config.status().ToString();
    const ConfigurationEvaluator evaluator(target.engine->graph(), 1.0);
    const Status loaded =
        target.engine->LoadConfiguration(config.value(), evaluator);
    if (!loaded.ok()) return loaded.ToString();
    InstallOracleConfiguration(spec_, config.value(), target.engine->graph(),
                               target.oracle);
    return "";
  }

  std::string OpenSharded(Target& target) {
    auto graph = BuildWorkloadGraph(spec_);
    if (!graph.ok()) return graph.status().ToString();
    ShardedEngineOptions options;
    options.num_shards = plan_.num_shards;
    options.engine = Options("");
    auto opened = ShardedEngine::Open(graph.value(), options);
    if (!opened.ok()) return opened.status().ToString();
    target.sharded = std::move(opened.value());
    auto config = BuildWorkloadConfiguration(spec_, graph.value());
    if (!config.ok()) return config.status().ToString();
    const Status loaded =
        target.sharded->LoadConfiguration(config.value(), 1.0);
    if (!loaded.ok()) return loaded.ToString();
    InstallOracleConfiguration(spec_, config.value(), graph.value(),
                               target.oracle);
    return "";
  }

  std::string Setup() {
    const bool sharded = plan_.topology == Topology::kSharded;
    const bool served = plan_.topology == Topology::kServer;
    if (plan_.faults == FaultPlan::kOverload && !served) {
      return "setup: the overload flood needs the server topology";
    }
    if (io_ && sharded) return "setup: the I/O plan runs unsharded engines";
    if (io_ && spec_.inject_refit_failures) {
      return "setup: spec is in refit-fault mode; use a plain workload";
    }
    if (io_) {
      if (plan_.data_dir.empty()) return "setup: data_dir is empty";
      RemoveDirectoryTree(plan_.data_dir);
      if (::mkdir(plan_.data_dir.c_str(), 0755) != 0) {
        return "setup: mkdir " + plan_.data_dir + " failed";
      }
    }
    targets_.reserve(2);
    if (sharded) {
      Target& target = targets_.emplace_back(spec_, "sharded");
      target.wire = plan_.mode == Mode::kPrepared;
      const std::string failed = OpenSharded(target);
      if (!failed.empty()) return "sharded setup: " + failed;
    } else if (plan_.faults != FaultPlan::kOverload) {
      const std::string failed =
          OpenEngine(targets_.emplace_back(spec_, "embedded"), "embedded");
      if (!failed.empty()) return "embedded setup: " + failed;
    }
    if (served) {
      Target& target = targets_.emplace_back(spec_, "wire");
      target.in_process = false;
      target.wire = true;
      const std::string failed = OpenEngine(target, "server");
      if (!failed.empty()) return "server setup: " + failed;
    }
    if (plan_.mode == Mode::kPrepared &&
        std::none_of(targets_.begin(), targets_.end(),
                     [](const Target& target) { return target.wire; })) {
      return "setup: the prepared mode needs a wire executor "
             "(server or sharded topology)";
    }
    if (spec_.inject_refit_failures) {
      failpoint::Enable(kFailpointEngineRefit, failpoint::Policy::Always());
    }
    for (Target& target : targets_) {
      if (!target.wire) continue;
      ServerOptions options;
      options.worker_threads = kWorkerThreads;
      if (plan_.faults == FaultPlan::kOverload) {
        options.admission_queue_limit = plan_.admission_queue_limit;
        options.brownout_watermark = kBrownoutWatermark;
      }
      EngineInterface* engine = target.sharded.get();
      if (engine == nullptr) engine = target.engine.get();
      server_ = std::make_unique<F2dbServer>(*engine, options);
      const Status started = server_->Start();
      if (!started.ok()) return "server start: " + started.ToString();
      auto connected = F2dbClient::Connect("127.0.0.1", server_->port());
      if (!connected.ok()) {
        return "client connect: " + connected.status().ToString();
      }
      client_ = std::move(connected.value());
    }
    addresses_ = targets_.front().oracle.AllAddresses();
    return "";
  }

  void Close() {
    if (server_) {
      client_.Close();
      server_->Shutdown();
      server_.reset();
    }
    targets_.clear();  // durable engines close before the dir goes
  }

  // ---- one query through every executor ----

  std::string Query(const OracleAddress& address, std::size_t horizon,
                    bool parameterize_filter) {
    ++report_.queries;
    const std::string sql = BuildQuerySql(spec_, address, horizon);
    Answer typed;
    for (Target& target : targets_) {
      const auto where = [&](const std::string& what) {
        return target.name + " " + what + " for \"" + sql + "\"";
      };
      if (target.in_process) {
        const Expected want = Expect(spec_, target.oracle, address, horizon);
        typed = TypedAnswer(
            target.sharded
                ? target.sharded->Execute(BuildTypedQuery(spec_, address,
                                                          horizon))
                : target.engine->ExecuteSql(sql));
        const std::string diverged = CheckAgainstOracle(typed, want);
        if (!diverged.empty()) return where(diverged);
        if (typed.ok()) {
          report_.rows_compared += typed.rows.size();
          if (want.level != DegradationLevel::kNone) {
            report_.degraded_rows += typed.rows.size();
          }
        }
      }
      if (!target.wire) continue;
      const auto response = client_.Query(sql);
      if (!response.ok()) {
        return where("transport failure: " + response.status().ToString());
      }
      const Answer wire = WireAnswer(response.value());
      // In lockstep the wire state matches the typed one op for op; under
      // I/O faults the accepted sets diverge, so each has its own oracle.
      std::string diverged;
      if (!io_) {
        diverged = CheckWireAgainstTyped(wire, typed);
      } else {
        diverged = CheckAgainstOracle(
            wire, Expect(spec_, target.oracle, address, horizon));
        if (wire.ok()) report_.rows_compared += wire.rows.size();
      }
      if (!diverged.empty()) return where(diverged);
      if (plan_.mode == Mode::kPrepared) {
        std::vector<std::string> binds;
        const std::string prepared_sql = BuildPreparedQuerySql(
            spec_, address, horizon, parameterize_filter, &binds);
        diverged = ComparePreparedExecution(client_, prepared_, sql,
                                            prepared_sql, binds,
                                            response.value());
        if (!diverged.empty()) return diverged;
        ++report_.prepared_executions;
      }
    }
    return "";
  }

  // ---- one insert through one executor ----

  /// Engine first, oracle second: an honest disk rejection (kIo only)
  /// must leave the oracle untouched. `injected` inserts run with
  /// engine.insert armed: the oracle never sees them and every executor
  /// must shed them with kUnavailable, without a disk marker and (under
  /// kIo, where the fault window is armed too) without moving the
  /// engine's insert-path disk-health counters.
  std::string Insert(Target& target, std::size_t cell, std::int64_t time,
                     double value, bool injected,
                     InsertOutcome* outcome = nullptr) {
    const std::string sql = BuildInsertSql(spec_, cell, time, value);
    const bool check_health = injected && io_;
    const std::array<std::size_t, 5> health_before =
        check_health ? InsertPathDiskCounters(*target.engine)
                     : std::array<std::size_t, 5>{};
    InsertOutcome out;
    if (target.sharded) {
      const Status status =
          target.sharded->InsertFact(CellBaseValues(spec_, cell), time, value);
      out = ClassifyInsert(status.code(), status.message());
    } else if (target.in_process) {
      const auto result = target.engine->ExecuteStatementText(sql);
      out = result.ok() ? InsertOutcome()
                        : ClassifyInsert(result.status().code(),
                                         result.status().message());
    } else {
      const auto response = client_.Insert(sql);
      if (!response.ok()) {
        return target.name + " transport failure on \"" + sql +
               "\": " + response.status().ToString();
      }
      out = ClassifyInsert(response.value().status, response.value().body);
    }
    if (outcome != nullptr) *outcome = out;
    if (injected && out.disk_rejected) {
      return target.name + " injected insert \"" + sql +
             "\" was shed as a disk rejection: " + out.message;
    }
    if (check_health &&
        InsertPathDiskCounters(*target.engine) != health_before) {
      return target.name + " injected insert \"" + sql +
             "\" moved the disk-health counters";
    }
    if (io_ && out.disk_rejected) {
      ++report_.disk_rejections;
      return "";
    }
    const StatusCode expected =
        injected ? StatusCode::kUnavailable
                 : ExpectedInsertCode(target.oracle.Insert(cell, time, value));
    if (out.code != expected) {
      return target.name + " insert verdict mismatch for \"" + sql +
             "\": oracle expects " + StatusCodeName(expected) + ", got " +
             StatusCodeName(out.code) + " (" + out.message + ")";
    }
    expected == StatusCode::kOk ? ++report_.inserts_accepted
                                : ++report_.inserts_rejected;
    return "";
  }

  /// One insert op over every target at each target's frontier (minus
  /// `behind`), read once before the op; values[k] goes to cells[k]. In
  /// lockstep the targets alternate per cell; under I/O faults each target
  /// runs the whole op in turn, which fixes the order the window policy's
  /// coin flips land in.
  std::string InsertOp(const std::vector<std::size_t>& cells,
                       const std::vector<double>& values, std::int64_t behind,
                       bool injected) {
    std::vector<std::int64_t> times;
    for (const Target& target : targets_) {
      times.push_back(target.oracle.frontier() - behind);
    }
    const std::size_t outer = io_ ? targets_.size() : cells.size();
    const std::size_t inner = io_ ? cells.size() : targets_.size();
    for (std::size_t i = 0; i < outer; ++i) {
      for (std::size_t j = 0; j < inner; ++j) {
        const std::size_t c = io_ ? j : i;
        const std::size_t t = io_ ? i : j;
        const std::string diverged =
            Insert(targets_[t], cells[c], times[t], values[c], injected);
        if (!diverged.empty()) return diverged;
      }
    }
    return "";
  }

  std::string ReplayOps() {
    if (io_) {
      failpoint::Policy window =
          failpoint::Policy::WithProbability(plan_.fault_probability,
                                             plan_.fault_seed ^ 0xD15CFA17ULL)
              .WithErrno(plan_.fault_errno);
      if (plan_.short_writes) window = window.WithShortWrite();
      failpoint::Enable(plan_.fault_site, window);
    }
    for (std::size_t i = 0; i < spec_.ops.size(); ++i) {
      const WorkloadOp& op = spec_.ops[i];
      std::string diverged;
      if (op.kind == OpKind::kQuery) {
        diverged = Query(addresses_[op.address_index % addresses_.size()],
                         op.horizon, op.parameterize_filter);
      } else if (op.kind == OpKind::kInsertRound) {
        std::vector<double> values;
        for (const std::size_t cell : op.insert_order) {
          values.push_back(op.round_values[cell]);
        }
        diverged = InsertOp(op.insert_order, values, 0, false);
      } else {
        const bool injected = op.kind == OpKind::kInsertInjectedFault;
        if (injected) {
          failpoint::Enable(kFailpointEngineInsert,
                            failpoint::Policy::Always());
        }
        diverged = InsertOp({op.cell}, {op.value},
                            op.kind == OpKind::kInsertBehind ? 1 : 0,
                            injected);
        if (injected) failpoint::Disable(kFailpointEngineInsert);
      }
      if (!diverged.empty()) {
        return "op[" + std::to_string(i) + "] " + DescribeOp(op) + ": " +
               diverged;
      }
    }
    return "";
  }

  // ---- kOverload ----

  std::string Flood() {
    Target& served = targets_.front();
    // Calm phase: enough complete insert rounds through the wire to cross
    // the invalidation threshold, so a fault-mode spec serves the stale
    // rung during the flood.
    const std::size_t rounds = std::max<std::size_t>(
        1, spec_.reestimate_after_updates);
    for (std::size_t r = 0; r < rounds; ++r) {
      const std::int64_t time = served.oracle.frontier();
      for (std::size_t cell = 0; cell < spec_.base_history.size(); ++cell) {
        const std::string diverged = Insert(
            served, cell, time,
            10.0 + static_cast<double>(r) + 0.5 * static_cast<double>(cell),
            false);
        if (!diverged.empty()) return diverged;
      }
    }

    // The oracle's answer per flood target; the filter value is
    // parameterized on the longer horizon so both slot kinds flood.
    struct FloodTarget {
      std::string sql;
      std::string prepared_sql;
      std::vector<std::string> binds;
      Expected want;
    };
    std::vector<FloodTarget> targets;
    for (const OracleAddress& address : addresses_) {
      for (const std::size_t horizon : {1, 3}) {
        FloodTarget target;
        target.want = Expect(spec_, served.oracle, address, horizon);
        if (!target.want.values) continue;
        target.sql = BuildQuerySql(spec_, address, horizon);
        target.prepared_sql = BuildPreparedQuerySql(
            spec_, address, horizon, /*parameterize_filter=*/horizon == 3,
            &target.binds);
        targets.push_back(std::move(target));
      }
    }
    if (targets.empty()) return "no forecastable addresses in the spec";

    std::atomic<std::size_t> sent{0}, full_fidelity{0}, degraded{0}, shed{0},
        expired{0}, prepared_sent{0};
    std::mutex failure_mutex;
    std::string first_failure;
    const auto record_failure = [&](const std::string& what) {
      std::lock_guard<std::mutex> lock(failure_mutex);
      if (first_failure.empty()) first_failure = what;
    };
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kFloodClients; ++c) {
      clients.emplace_back([&, c] {
        auto connected = F2dbClient::Connect("127.0.0.1", server_->port());
        if (!connected.ok()) {
          record_failure("flood client connect: " +
                         connected.status().ToString());
          return;
        }
        F2dbClient client = std::move(connected.value());
        PreparedCache cache;
        for (std::size_t i = 0; i < kFloodQueriesPerClient; ++i) {
          const FloodTarget& target = targets[(c + i * 7) % targets.size()];
          // Every other query carries a generous wire deadline (the v2
          // extended header under concurrency). In prepared mode the other
          // half goes out as EXECUTE frames (PREPARE is admission-exempt
          // control plane, so preparing mid-flood always succeeds).
          const auto response = [&]() -> Result<WireResponse> {
            if (i % 2 != 0) {
              return client.CallWithDeadline(FrameType::kQuery, target.sql,
                                             60'000);
            }
            if (plan_.mode != Mode::kPrepared) return client.Query(target.sql);
            const auto stmt = cache.IdFor(client, target.prepared_sql,
                                          target.binds.size());
            if (!stmt.ok()) return stmt.status();
            prepared_sent.fetch_add(1, std::memory_order_relaxed);
            return client.ExecutePrepared(stmt.value(), target.binds);
          }();
          sent.fetch_add(1, std::memory_order_relaxed);
          if (!response.ok()) {
            record_failure("flood request failed for \"" + target.sql +
                           "\": " + response.status().ToString());
            return;
          }
          const Answer answer = WireAnswer(response.value());
          switch (response.value().status) {
            case StatusCode::kOk: {
              // Degraded-never-wrong: any answer must be annotated as
              // degraded exactly when it is, and carry the oracle's values.
              const std::string diverged =
                  CheckAgainstOracle(answer, target.want);
              if (!diverged.empty()) {
                record_failure(diverged + " for \"" + target.sql + "\"");
                return;
              }
              (answer.degradation != DegradationLevel::kNone ? degraded
                                                             : full_fidelity)
                  .fetch_add(1, std::memory_order_relaxed);
              break;
            }
            case StatusCode::kUnavailable:
              shed.fetch_add(1, std::memory_order_relaxed);
              break;
            case StatusCode::kDeadlineExceeded:
              expired.fetch_add(1, std::memory_order_relaxed);
              break;
            default:
              record_failure("unexpected " + answer.Describe() + " for \"" +
                             target.sql + "\"");
              return;
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    report_.queries = sent.load();
    report_.ok_full_fidelity = full_fidelity.load();
    report_.ok_degraded = degraded.load();
    report_.shed = shed.load();
    report_.deadline_expired = expired.load();
    report_.prepared_executions = prepared_sent.load();
    return first_failure;
  }

  // ---- kIo: storm, read-only serving, heal ----

  std::string StormAndHeal() {
    failpoint::DisableAll();
    failpoint::Enable(storage::kIoSiteWalAppend, failpoint::Policy::Always());
    // The health probe must keep failing too, or it would end the episode
    // between storm inserts.
    failpoint::Enable(storage::kIoSiteProbeWrite, failpoint::Policy::Always());
    const std::size_t bound =
        kDiskFailureThreshold * (kDiskRetryAttempts + 2) + 4;
    for (Target& target : targets_) {
      bool read_only = false;
      for (std::size_t attempt = 0; attempt < bound && !read_only; ++attempt) {
        // Distinct future time stamps: a frontier insert could collide with
        // a value buffered during the window and be rejected as a duplicate
        // BEFORE the WAL is touched, which would starve the storm.
        InsertOutcome out;
        const std::string diverged = Insert(
            target, 0,
            target.oracle.frontier() + 500 + static_cast<std::int64_t>(attempt),
            1.0, false, &out);
        if (!diverged.empty()) return "storm: " + diverged;
        if (out.code == StatusCode::kOk) {
          return target.name +
                 " storm insert unexpectedly succeeded with WAL faults armed";
        }
        if (!out.disk_rejected) {
          return target.name +
                 " storm insert rejected without an honest disk marker: " +
                 StatusCodeName(out.code) + " (" + out.message + ")";
        }
        read_only = out.read_only_hint;
      }
      if (!read_only) {
        return target.name + " never entered read-only within " +
               std::to_string(bound) + " storm inserts";
      }
      if (target.engine->disk_health() != DiskHealthState::kReadOnly) {
        return target.name +
               " served the read-only hint but disk_health() != kReadOnly";
      }
      const EngineStats stats = target.engine->stats();
      if (stats.read_only_entries != stats.read_only_exits + 1) {
        return target.name + " read-only episode open-count != 1: entries=" +
               std::to_string(stats.read_only_entries) +
               " exits=" + std::to_string(stats.read_only_exits);
      }
    }
    report_.forced_read_only = true;

    // Queries keep answering correctly from snapshots while read-only.
    for (std::size_t a = 0; a < addresses_.size();
         a += addresses_.size() / 3 + 1) {
      const std::string diverged = Query(addresses_[a], 2, false);
      if (!diverged.empty()) return "read-only query: " + diverged;
    }

    // Disarm; the health probe must heal every engine.
    failpoint::DisableAll();
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(kRecoveryDeadlineSeconds));
    const auto healthy = [&] {
      for (const Target& target : targets_) {
        if (target.engine->disk_health() != DiskHealthState::kOk) return false;
      }
      return true;
    };
    while (!healthy() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!healthy()) {
      return "engines did not auto-exit read-only within " +
             std::to_string(kRecoveryDeadlineSeconds) +
             "s of disarming the faults";
    }
    for (const Target& target : targets_) {
      const EngineStats stats = target.engine->stats();
      if (stats.read_only_entries != stats.read_only_exits) {
        return target.name + " episode accounting did not close: entries=" +
               std::to_string(stats.read_only_entries) +
               " exits=" + std::to_string(stats.read_only_exits);
      }
    }
    // Writes are accepted again; a far-future time stamp cannot collide
    // with anything buffered during the window.
    for (Target& target : targets_) {
      InsertOutcome out;
      const std::string diverged = Insert(
          target, 0, target.oracle.frontier() + 1000, 2.0, false, &out);
      if (!diverged.empty()) return "post-recovery " + diverged;
      if (out.code != StatusCode::kOk) {
        return "post-recovery " + target.name + " insert still rejected: " +
               StatusCodeName(out.code) + " (" + out.message + ")";
      }
    }
    report_.auto_recovered = true;
    return "";
  }

  std::string CheckMaintenance() {
    for (const Target& target : targets_) {
      const std::size_t pending = target.sharded
                                      ? target.sharded->pending_inserts()
                                      : target.engine->pending_inserts();
      if (pending != target.oracle.pending_inserts()) {
        return target.name + " pending-insert mismatch: engine=" +
               std::to_string(pending) +
               " oracle=" + std::to_string(target.oracle.pending_inserts());
      }
      for (const F2dbEngine* engine : target.Engines()) {
        const std::size_t advances = engine->stats().time_advances;
        if (advances != target.oracle.advances()) {
          return target.name + " advance-count mismatch: engine=" +
                 std::to_string(advances) +
                 " oracle=" + std::to_string(target.oracle.advances());
        }
      }
    }
    return "";
  }

  /// Closes the embedded engine cleanly and reopens it from its directory:
  /// every forecast must be BIT-IDENTICAL (exact doubles, degradation, row
  /// times) and the pending buffer must match the oracle.
  std::string Reopen() {
    Target& target = targets_.front();
    std::vector<Answer> before;
    for (const OracleAddress& address : addresses_) {
      before.push_back(TypedAnswer(
          target.engine->ExecuteSql(BuildQuerySql(spec_, address, 3))));
    }
    target.engine.reset();  // clean close: final WAL sync
    auto graph = BuildWorkloadGraph(spec_);
    if (!graph.ok()) return "reopen graph: " + graph.status().ToString();
    auto reopened =
        F2dbEngine::Open(std::move(graph.value()), Options("embedded"));
    if (!reopened.ok()) return "reopen: " + reopened.status().ToString();
    target.engine = std::move(reopened.value());
    for (std::size_t a = 0; a < addresses_.size(); ++a) {
      const Answer after = TypedAnswer(
          target.engine->ExecuteSql(BuildQuerySql(spec_, addresses_[a], 3)));
      if (after.code != before[a].code ||
          after.degradation != before[a].degradation ||
          after.rows != before[a].rows) {
        return "reopened answer not bit-identical at address " +
               addresses_[a].Key() + ": before " + before[a].Describe() +
               " (" + std::to_string(before[a].rows.size()) + " rows), after " +
               after.Describe() + " (" + std::to_string(after.rows.size()) +
               " rows)";
      }
    }
    if (target.engine->pending_inserts() != target.oracle.pending_inserts()) {
      return "reopened pending-insert mismatch: engine=" +
             std::to_string(target.engine->pending_inserts()) +
             " oracle=" + std::to_string(target.oracle.pending_inserts());
    }
    report_.recovery_bit_identical = true;
    return "";
  }

  const WorkloadSpec& spec_;
  const DifferentialPlan& plan_;
  /// Under I/O faults the targets' accepted sets diverge; otherwise they
  /// run in lockstep, accepting exactly the same inserts.
  const bool io_;
  DifferentialReport report_;
  std::vector<Target> targets_;
  std::vector<OracleAddress> addresses_;
  std::unique_ptr<F2dbServer> server_;
  F2dbClient client_;
  PreparedCache prepared_;
};

// ------------------------------------------------------------ the kill plan

/// One insert the child will attempt, flattened out of the spec's op list.
/// Queries and fault-injected inserts are dropped: the crash plan only
/// cares about the durable maintenance stream, and a SIGKILL can land
/// anywhere in it.
struct InsertAttempt {
  std::size_t cell = 0;
  double value = 0.0;
  /// kInsertBehind semantics: stamp frontier - 1 (must be rejected).
  bool behind = false;
};

std::vector<InsertAttempt> FlattenAttempts(const WorkloadSpec& spec) {
  std::vector<InsertAttempt> attempts;
  for (const WorkloadOp& op : spec.ops) {
    switch (op.kind) {
      case OpKind::kInsertRound:
        for (const std::size_t cell : op.insert_order) {
          attempts.push_back({cell, op.round_values[cell], false});
        }
        break;
      case OpKind::kInsertPartial:
      case OpKind::kInsertNonFinite:
        attempts.push_back({op.cell, op.value, false});
        break;
      case OpKind::kInsertBehind:
        attempts.push_back({op.cell, op.value, true});
        break;
      case OpKind::kQuery:
      case OpKind::kInsertInjectedFault:
        break;
    }
  }
  return attempts;
}

struct AcceptedInsert {
  std::size_t cell = 0;
  std::int64_t time = 0;
  double value = 0.0;
};

/// Replays attempts[0..count) against a fresh bare oracle and returns the
/// accepted subsequence — the exact stream the child's WAL recorded.
std::vector<AcceptedInsert> AcceptedPrefix(
    const WorkloadSpec& spec, const std::vector<InsertAttempt>& attempts,
    std::size_t count) {
  ReferenceOracle oracle = SeededOracle(spec);
  std::vector<AcceptedInsert> accepted;
  for (std::size_t i = 0; i < count; ++i) {
    const InsertAttempt& attempt = attempts[i];
    std::int64_t time = oracle.frontier();
    if (attempt.behind) time -= 1;
    if (oracle.Insert(attempt.cell, time, attempt.value) ==
        OracleInsert::kAccepted) {
      accepted.push_back({attempt.cell, time, attempt.value});
    }
  }
  return accepted;
}

/// The seed-derived crash plan.
struct KillPoints {
  std::size_t kill_after = 0;
  bool do_compact = false;
  const char* compact_crash_point = "";
  std::size_t compact_after = 0;
  bool do_second_compact = false;
  std::size_t second_compact_after = 0;
  bool want_torn_tail = false;
};

/// The compaction kill point, child-process global: the storage layer
/// fires named hooks at each stage of the compaction protocol (segment
/// durable, around the manifest rename, before WAL deletion), and the
/// child dies the instant the planned one fires — mid-protocol, exactly
/// like a power cut between two renames. Empty = let compaction finish.
const char* g_storage_kill_point = "";

void StorageKillHook(const char* point) {
  if (g_storage_kill_point[0] != '\0' &&
      std::strcmp(point, g_storage_kill_point) == 0) {
    ::kill(::getpid(), SIGKILL);
  }
}

std::string ChildErrorPath(const std::string& data_dir) {
  return data_dir + "/child_error.txt";
}

/// The child's escape hatch: it cannot use the report (different process),
/// so failures before the planned SIGKILL land in a file the parent reads.
[[noreturn]] void ChildAbort(const std::string& data_dir,
                             const std::string& what) {
  std::ofstream out(ChildErrorPath(data_dir), std::ios::trunc);
  out << what << "\n";
  out.close();
  ::_exit(1);
}

/// The engine options of the crashing child and of recovery: durable,
/// fsync=always, re-estimation off (a pure kCatalog + kInsert WAL).
EngineOptions KillEngineOptions(const std::string& data_dir) {
  EngineOptions options;
  options.maintenance_threads = 1;
  options.reestimate_after_updates = 0;
  options.data_dir = data_dir;
  options.fsync_policy = FsyncPolicy::kAlways;
  return options;
}

/// The crashing process: open durable (configured F2dbEngine or bare
/// ShardedEngine), run the attempt prefix through InsertFact(names)
/// (compacting mid-way when planned), then die without warning.
[[noreturn]] void RunChild(const WorkloadSpec& spec,
                           const DifferentialPlan& plan,
                           const std::vector<InsertAttempt>& attempts,
                           const KillPoints& kill) {
  const std::string& dir = plan.data_dir;
  storage::SetStorageCrashHook(&StorageKillHook);
  EngineOptions options = KillEngineOptions(dir);
  if (plan.dirty_disk) {
    // Deep enough that a faulted insert always lands on retry (fault
    // probability ^ 9 is negligible across every seed), so the accepted
    // set the parent recomputes stays exact.
    options.disk_retry_attempts = 8;
    options.disk_retry_backoff_ms = 0.0;
    options.disk_failure_threshold = 1u << 20;  // never read-only
  }
  auto graph = BuildWorkloadGraph(spec);
  if (!graph.ok()) ChildAbort(dir, "child graph: " + graph.status().ToString());
  std::unique_ptr<EngineInterface> engine;
  if (plan.topology == Topology::kSharded) {
    ShardedEngineOptions sharded_options;
    sharded_options.num_shards = plan.num_shards;
    sharded_options.engine = options;
    auto opened = ShardedEngine::Open(graph.value(), sharded_options);
    if (!opened.ok()) {
      ChildAbort(dir, "child open: " + opened.status().ToString());
    }
    engine = std::move(opened.value());
  } else {
    auto opened = F2dbEngine::Open(std::move(graph.value()), options);
    if (!opened.ok()) {
      ChildAbort(dir, "child open: " + opened.status().ToString());
    }
    auto config = BuildWorkloadConfiguration(spec, opened.value()->graph());
    if (!config.ok()) {
      ChildAbort(dir, "child config: " + config.status().ToString());
    }
    const ConfigurationEvaluator evaluator(opened.value()->graph(), 1.0);
    const Status loaded =
        opened.value()->LoadConfiguration(config.value(), evaluator);
    if (!loaded.ok()) ChildAbort(dir, "child load: " + loaded.ToString());
    engine = std::move(opened.value());
  }

  // The dirty-disk fault window opens AFTER the catalog record:
  // LoadConfiguration has no retry wrapper, so faults there would abort
  // instead of being absorbed. From here on every insert may tear or fail
  // mid-write: 10% of WAL appends tear with a short write, 5% of WAL
  // fsyncs fail with EIO.
  if (plan.dirty_disk) {
    failpoint::Enable(storage::kIoSiteWalAppend,
                      failpoint::Policy::WithProbability(
                          0.10, spec.seed ^ 0xD177D15CULL)
                          .WithShortWrite());
    failpoint::Enable(storage::kIoSiteWalFsync,
                      failpoint::Policy::WithProbability(
                          0.05, spec.seed ^ 0xF5C7EEULL));
  }

  // A bare oracle tracks the frontier and the expected verdicts. A
  // scatter-gather spec keeps shard frontiers reconcilable with it: every
  // single-cell attempt sits between complete rounds, where every shard's
  // frontier equals the global one.
  ReferenceOracle oracle = SeededOracle(spec);
  for (std::size_t i = 0; i < kill.kill_after; ++i) {
    const InsertAttempt& attempt = attempts[i];
    std::int64_t time = oracle.frontier();
    if (attempt.behind) time -= 1;
    const OracleInsert verdict =
        oracle.Insert(attempt.cell, time, attempt.value);
    const Status inserted = engine->InsertFact(
        CellBaseValues(spec, attempt.cell), time, attempt.value);
    if (inserted.code() != ExpectedInsertCode(verdict)) {
      ChildAbort(dir, "child attempt " + std::to_string(i) +
                          ": verdict mismatch, engine=" + inserted.ToString());
    }
    if (kill.do_compact && i == kill.compact_after) {
      // With a kill point armed the process dies INSIDE this call (a
      // sharded fan-out dies in whichever shard reaches that stage first,
      // leaving its siblings at earlier stages); without one the
      // compaction must complete cleanly.
      g_storage_kill_point = kill.compact_crash_point;
      const Status compacted = engine->CompactNow();
      if (!compacted.ok()) {
        ChildAbort(dir, "child compaction: " + compacted.ToString());
      }
    }
    if (kill.do_second_compact && i == kill.second_compact_after) {
      // No kill point is armed for this one; on a dirty disk it may fail
      // (a rotation or tail append hits a fault) and that is tolerated.
      const Status compacted = engine->CompactNow();
      if (!compacted.ok() && !plan.dirty_disk) {
        ChildAbort(dir, "child second compaction: " + compacted.ToString());
      }
    }
  }

  // The crash itself: no destructors, no WAL close, no flushes.
  ::kill(::getpid(), SIGKILL);
  ::_exit(99);  // unreachable
}

/// The sharded recovery check. No models were loaded, so the reference is
/// the accepted stream itself, reconciled per shard: shard p applies its
/// j-th round once every one of ITS cells has a j-th accepted value
/// (independent of the global round boundary); later values stay
/// buffered. Every shard's counters and base series must match.
std::string CheckRecoveredShards(const WorkloadSpec& spec,
                                 const ShardedEngine& recovered,
                                 std::size_t num_shards,
                                 const std::vector<AcceptedInsert>& accepted) {
  const std::size_t num_cells = spec.base_history.size();
  std::vector<std::vector<double>> accepted_values(num_cells);
  for (const AcceptedInsert& insert : accepted) {
    accepted_values[insert.cell].push_back(insert.value);
  }
  std::vector<std::vector<std::size_t>> cells_of_partition(num_shards);
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    cells_of_partition[ShardedEngine::PartitionOf(
                           CellBaseValues(spec, cell)[0], num_shards)]
        .push_back(cell);
  }
  for (const std::size_t partition : recovered.active_partitions()) {
    const std::vector<std::size_t>& cells = cells_of_partition[partition];
    std::size_t applied_rounds = accepted.size() + 1;
    std::size_t shard_inserts = 0;
    for (const std::size_t cell : cells) {
      applied_rounds = std::min(applied_rounds, accepted_values[cell].size());
      shard_inserts += accepted_values[cell].size();
    }
    const std::size_t shard_pending =
        shard_inserts - applied_rounds * cells.size();
    const F2dbEngine* shard = recovered.shard(partition);
    const EngineStats stats = shard->stats();
    const std::string tag = "shard " + std::to_string(partition);
    if (stats.inserts != shard_inserts) {
      return tag + ": recovered inserts=" + std::to_string(stats.inserts) +
             " want " + std::to_string(shard_inserts);
    }
    if (stats.time_advances != applied_rounds) {
      return tag + ": recovered time_advances=" +
             std::to_string(stats.time_advances) + " want " +
             std::to_string(applied_rounds);
    }
    if (shard->pending_inserts() != shard_pending) {
      return tag + ": recovered pending=" +
             std::to_string(shard->pending_inserts()) + " want " +
             std::to_string(shard_pending);
    }
    // The recovered base series, value for value: the stored history plus
    // this shard's applied rounds.
    for (const std::size_t cell : cells) {
      const std::vector<std::string> names = CellBaseValues(spec, cell);
      std::vector<DimensionFilter> filters;
      for (std::size_t d = 0; d < spec.dims.size(); ++d) {
        filters.push_back({spec.dims[d].level_names[0], names[d]});
      }
      auto node = shard->ResolveNode(filters);
      if (!node.ok()) {
        return tag + ": resolve cell " + std::to_string(cell) + ": " +
               node.status().ToString();
      }
      const TimeSeries& series = shard->graph().series(node.value());
      const std::string where = tag + ": cell " + std::to_string(cell);
      if (series.size() != spec.history_length + applied_rounds) {
        return where + " series length=" + std::to_string(series.size()) +
               " want " + std::to_string(spec.history_length + applied_rounds);
      }
      for (std::size_t j = 0; j < series.size(); ++j) {
        const bool history = j < spec.history_length;
        const double want =
            history ? spec.base_history[cell][j]
                    : accepted_values[cell][j - spec.history_length];
        if (!ValuesClose(series[j], want, kRelTol, kAbsTol)) {
          return where + (history ? " history value diverged at t="
                                  : " applied value diverged at round ") +
                 std::to_string(history ? j : j - spec.history_length);
        }
      }
    }
  }
  return "";
}

DifferentialReport RunKill(const WorkloadSpec& spec,
                           const DifferentialPlan& plan) {
  DifferentialReport report;
  const bool sharded = plan.topology == Topology::kSharded;
  const std::size_t num_shards = sharded ? plan.num_shards : 1;
  const auto fail = [&](const std::string& what) {
    report.ok = false;
    report.failure = "crash seed=" + std::to_string(spec.seed) +
                     " shape=" + spec.shape_name +
                     " shards=" + std::to_string(num_shards) + ": " + what;
    return report;
  };
  if (plan.data_dir.empty()) return fail("data_dir must be set");
  if (plan.topology == Topology::kServer) {
    return fail("the kill plan runs embedded or sharded engines");
  }
  if (plan.mode == Mode::kPrepared) {
    return fail("the kill plan has no wire executor to shadow");
  }

  const std::vector<InsertAttempt> attempts = FlattenAttempts(spec);
  report.attempts_total = attempts.size();

  // The crash plan, all seed-derived (independent stream from the
  // workload's so changing the plan never changes the workload).
  Rng rng(spec.seed ^ 0xC4A5F2DBULL);
  KillPoints kill;
  kill.kill_after =
      attempts.empty() ? 0
                       : static_cast<std::size_t>(rng.UniformInt(
                             1, static_cast<std::int64_t>(attempts.size())));
  // The compaction leg: maybe call CompactNow mid-workload, and maybe die
  // INSIDE it at a seed-chosen protocol stage ("" lets it complete). Every
  // workload carries base history (>= 24 observations per series), so the
  // first compaction always seals a segment and every listed hook fires.
  static constexpr const char* kCompactKillPoints[] = {
      "", "segment_written", "before_manifest_rename",
      "after_manifest_rename", "before_wal_delete"};
  // Dirty-disk iterations skip the compaction leg: its kill-point
  // accounting assumes CompactNow reaches the armed hook, but an injected
  // fault can fail the compaction first and shift the surviving prefix.
  kill.do_compact =
      (kill.kill_after > 0 && rng.NextBernoulli(0.5)) && !plan.dirty_disk;
  kill.compact_crash_point =
      kCompactKillPoints[kill.do_compact ? rng.UniformInt(0, 4) : 0];
  kill.compact_after =
      kill.do_compact
          ? static_cast<std::size_t>(rng.UniformInt(
                0, static_cast<std::int64_t>(kill.kill_after) - 1))
          : 0;
  // The second compaction leg: maybe call CompactNow mid-workload with no
  // kill point armed, so the SIGKILL lands after a completed cut (dirty
  // disk included: a faulted compaction must still leave a recoverable
  // directory). It never runs before the first leg, whose kill point must
  // still find closed history to seal ("segment_written" fires only then);
  // at the same attempt the first leg runs first.
  kill.do_second_compact = kill.kill_after > 0 && rng.NextBernoulli(0.5);
  kill.second_compact_after =
      kill.do_second_compact
          ? static_cast<std::size_t>(rng.UniformInt(
                kill.do_compact ? static_cast<std::int64_t>(kill.compact_after)
                                : 0,
                static_cast<std::int64_t>(kill.kill_after) - 1))
          : 0;
  // A compaction rewrites the WAL tail, so "truncate the last record" no
  // longer maps cleanly onto "drop the last accepted insert" — skip the
  // torn-tail leg on compacting iterations.
  kill.want_torn_tail = rng.NextBernoulli(0.4) && !kill.do_compact;
  // With a kill point armed the child dies inside CompactNow, i.e. right
  // after executing attempt `compact_after` — the surviving prefix is
  // shorter than the planned one, and the second leg never runs.
  const bool killed_in_compaction =
      kill.do_compact && kill.compact_crash_point[0] != '\0';
  const std::size_t effective_kill =
      killed_in_compaction ? kill.compact_after + 1 : kill.kill_after;
  report.attempts_executed = effective_kill;
  report.second_compaction_taken =
      kill.do_second_compact && !killed_in_compaction;
  report.compaction_attempted =
      kill.do_compact && kill.compact_after < effective_kill;
  report.compaction_crash_point = kill.compact_crash_point;

  RemoveDirectoryTree(plan.data_dir);  // stale state from a prior run

  // ---- phase 1: the crashing child --------------------------------------
  const pid_t pid = ::fork();
  if (pid < 0) return fail(std::string("fork(): ") + ::strerror(errno));
  if (pid == 0) RunChild(spec, plan, attempts, kill);
  int wait_status = 0;
  if (::waitpid(pid, &wait_status, 0) != pid) {
    return fail(std::string("waitpid(): ") + ::strerror(errno));
  }
  report.killed_by_sigkill =
      WIFSIGNALED(wait_status) && WTERMSIG(wait_status) == SIGKILL;
  if (!report.killed_by_sigkill) {
    std::string child_error = "child exited without the planned SIGKILL";
    std::ifstream in(ChildErrorPath(plan.data_dir));
    if (in.good()) {
      std::ostringstream text;
      text << in.rdbuf();
      child_error += ": " + text.str();
    }
    return fail(child_error);
  }

  // ---- phase 2: the expected surviving state ----------------------------
  std::vector<AcceptedInsert> accepted =
      AcceptedPrefix(spec, attempts, effective_kill);
  report.inserts_accepted = accepted.size();

  // ---- phase 3: optional torn tail --------------------------------------
  // Truncate mid-record only when the final record is an insert, so the
  // expected state is simply the accepted prefix minus its last element.
  // After the second compaction that holds only when an insert was
  // accepted after it: otherwise the newest epoch ends in the rewritten
  // tail, whose last insert is the highest pending (time, slot), not
  // necessarily the last accepted one.
  // Sharded: tear the WAL of the shard OWNING the last accepted insert —
  // that insert is the last record of that shard's WAL, so popping it from
  // the accepted prefix stays exact while sibling shards replay intact.
  const bool accepted_after_second_compact =
      !report.second_compaction_taken ||
      AcceptedPrefix(spec, attempts, kill.second_compact_after + 1).size() <
          accepted.size();
  if (kill.want_torn_tail && !accepted.empty() &&
      accepted_after_second_compact) {
    std::string wal_dir = plan.data_dir;
    if (sharded) {
      wal_dir += "/shard-" + std::to_string(ShardedEngine::PartitionOf(
                                 CellBaseValues(spec, accepted.back().cell)[0],
                                 num_shards));
    }
    auto epochs = ListWalEpochs(wal_dir);
    if (!epochs.ok()) return fail("list epochs: " + epochs.status().ToString());
    if (!epochs.value().empty()) {
      const std::string last_path = WalPath(wal_dir, epochs.value().back());
      auto segment = ReadWalSegment(last_path);
      if (!segment.ok()) {
        return fail("read last segment: " + segment.status().ToString());
      }
      if (segment.value().torn_tail) {
        return fail("fsync=always child left a torn tail on its own");
      }
      if (!segment.value().records.empty() &&
          segment.value().records.back().kind == WalRecord::Kind::kInsert) {
        const std::uint64_t frame_bytes =
            EncodeWalRecord(segment.value().records.back()).size();
        const std::uint64_t cut = static_cast<std::uint64_t>(
            rng.UniformInt(1, static_cast<std::int64_t>(frame_bytes) - 1));
        if (::truncate(last_path.c_str(),
                       static_cast<off_t>(segment.value().valid_bytes - cut)) !=
            0) {
          return fail(std::string("truncate(): ") + ::strerror(errno));
        }
        report.torn_tail_injected = true;
        accepted.pop_back();
      }
    }
  }

  // ---- phase 4: recover and compare -------------------------------------
  auto graph = BuildWorkloadGraph(spec);
  if (!graph.ok()) return fail("recovery graph: " + graph.status().ToString());
  const EngineOptions options = KillEngineOptions(plan.data_dir);
  std::unique_ptr<F2dbEngine> engine;
  std::unique_ptr<ShardedEngine> sharded_engine;
  if (sharded) {
    ShardedEngineOptions sharded_options;
    sharded_options.num_shards = num_shards;
    sharded_options.engine = options;
    auto opened = ShardedEngine::Open(graph.value(), sharded_options);
    if (!opened.ok()) {
      return fail("recovery open: " + opened.status().ToString());
    }
    sharded_engine = std::move(opened.value());
  } else {
    auto opened = F2dbEngine::Open(std::move(graph.value()), options);
    if (!opened.ok()) {
      return fail("recovery open: " + opened.status().ToString());
    }
    engine = std::move(opened.value());
  }
  const EngineStats stats =
      sharded ? sharded_engine->stats() : engine->stats();
  report.records_replayed = stats.wal_records_replayed;
  if ((stats.torn_tail_detected != 0) != report.torn_tail_injected) {
    return fail("torn_tail_detected=" +
                std::to_string(stats.torn_tail_detected) + " but injected=" +
                std::to_string(report.torn_tail_injected));
  }
  if (stats.inserts != accepted.size()) {
    return fail("recovered inserts=" + std::to_string(stats.inserts) +
                " want " + std::to_string(accepted.size()));
  }
  if (sharded) {
    const std::string diverged =
        CheckRecoveredShards(spec, *sharded_engine, num_shards, accepted);
    if (!diverged.empty()) return fail(diverged);
    sharded_engine.reset();
    RemoveDirectoryTree(plan.data_dir);
    return report;
  }

  // The reference state: a configured oracle (fitted on the spec's graph,
  // as the child's configuration was) fed exactly the surviving accepted
  // inserts.
  auto spec_graph = BuildWorkloadGraph(spec);
  if (!spec_graph.ok()) return fail("graph: " + spec_graph.status().ToString());
  auto config = BuildWorkloadConfiguration(spec, spec_graph.value());
  if (!config.ok()) return fail("config: " + config.status().ToString());
  ReferenceOracle oracle = SeededOracle(spec);
  InstallOracleConfiguration(spec, config.value(), spec_graph.value(), oracle);
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    if (oracle.Insert(accepted[i].cell, accepted[i].time, accepted[i].value) !=
        OracleInsert::kAccepted) {
      return fail("accepted prefix replay rejected insert " +
                  std::to_string(i));
    }
  }
  if (stats.time_advances != oracle.advances()) {
    return fail("recovered time_advances=" +
                std::to_string(stats.time_advances) + " want " +
                std::to_string(oracle.advances()));
  }
  if (engine->pending_inserts() != oracle.pending_inserts()) {
    return fail("recovered pending=" +
                std::to_string(engine->pending_inserts()) + " want " +
                std::to_string(oracle.pending_inserts()));
  }
  for (const OracleAddress& address : oracle.AllAddresses()) {
    const std::string sql = BuildQuerySql(spec, address, kKillHorizon);
    const std::string diverged =
        CheckAgainstOracle(TypedAnswer(engine->ExecuteSql(sql)),
                           Expect(spec, oracle, address, kKillHorizon));
    if (!diverged.empty()) return fail(diverged + " for \"" + sql + "\"");
  }
  engine.reset();
  RemoveDirectoryTree(plan.data_dir);
  return report;
}

}  // namespace

Result<ModelConfiguration> BuildWorkloadConfiguration(
    const WorkloadSpec& spec, const TimeSeriesGraph& graph) {
  ModelConfiguration config(graph.num_nodes());
  const std::size_t train = graph.series_length() - 1;
  for (const ModelPlacement& placement : spec.models) {
    F2DB_ASSIGN_OR_RETURN(NodeId node,
                          graph.NodeFor(ToNodeAddress(placement.node)));
    const TimeSeries history = graph.series(node).Head(train);
    ModelSpec model_spec;
    model_spec.type = placement.type;
    model_spec.period = placement.period;
    ModelFactory factory(model_spec);
    auto fitted = factory.CreateAndFit(history);
    if (!fitted.ok()) {
      // Deterministic fallback: a Mean fit succeeds on any non-empty
      // history, and every executor takes the same branch.
      ModelSpec mean_spec;
      mean_spec.type = ModelType::kMean;
      mean_spec.period = 1;
      fitted = ModelFactory(mean_spec).CreateAndFit(history);
      if (!fitted.ok()) return fitted.status();
    }
    ModelEntry entry;
    entry.model = std::move(fitted.value());
    config.AddModel(node, std::move(entry));
  }
  for (const SchemeChoice& choice : spec.schemes) {
    F2DB_ASSIGN_OR_RETURN(NodeId target,
                          graph.NodeFor(ToNodeAddress(choice.target)));
    std::vector<NodeId> sources;
    for (const OracleAddress& source : choice.sources) {
      F2DB_ASSIGN_OR_RETURN(NodeId id,
                            graph.NodeFor(ToNodeAddress(source)));
      sources.push_back(id);
    }
    NodeAssignment assignment;
    assignment.error = 0.5;
    assignment.scheme = DerivationScheme::Multi(std::move(sources));
    config.set_assignment(target, std::move(assignment));
  }
  return config;
}

/// Mirrors LoadConfiguration into the oracle: bit-identical clones of the
/// fitted models, each caught up by the one observation the engine's
/// catch-up step replays (the oracle uses its own naive aggregate).
void InstallOracleConfiguration(const WorkloadSpec& spec,
                                const ModelConfiguration& config,
                                const TimeSeriesGraph& graph,
                                ReferenceOracle& oracle) {
  for (const ModelPlacement& placement : spec.models) {
    const auto node = graph.NodeFor(ToNodeAddress(placement.node));
    const ForecastModel* fitted = config.model(node.value());
    oracle.SetModel(placement.node, fitted->Clone());
    oracle.UpdateModel(placement.node, oracle.SeriesOf(placement.node).back());
  }
  for (const SchemeChoice& choice : spec.schemes) {
    oracle.SetScheme(choice.target, choice.sources);
  }
}

Result<TimeSeriesGraph> BuildWorkloadGraph(const WorkloadSpec& spec) {
  CubeSchema schema;
  for (std::size_t d = 0; d < spec.dims.size(); ++d) {
    const OracleDimension& dim = spec.dims[d];
    Hierarchy hierarchy(dim.name);
    for (std::size_t l = 0; l < dim.num_levels(); ++l) {
      F2DB_RETURN_IF_ERROR(
          hierarchy.AddLevel(dim.level_names[l], dim.values[l]));
    }
    for (std::size_t l = 0; l + 1 < dim.num_levels(); ++l) {
      for (std::size_t v = 0; v < dim.values[l].size(); ++v) {
        F2DB_RETURN_IF_ERROR(hierarchy.SetParent(
            static_cast<LevelIndex>(l), static_cast<ValueIndex>(v),
            static_cast<ValueIndex>(dim.parents[l][v])));
      }
    }
    F2DB_RETURN_IF_ERROR(hierarchy.Finalize());
    F2DB_RETURN_IF_ERROR(schema.AddHierarchy(std::move(hierarchy)));
  }
  F2DB_ASSIGN_OR_RETURN(TimeSeriesGraph graph,
                        TimeSeriesGraph::Create(std::move(schema)));

  const ReferenceOracle probe(spec.dims);
  for (std::size_t cell = 0; cell < spec.base_history.size(); ++cell) {
    F2DB_ASSIGN_OR_RETURN(
        NodeId node, graph.NodeFor(ToNodeAddress(probe.CellAddress(cell))));
    F2DB_RETURN_IF_ERROR(
        graph.SetBaseSeries(node, TimeSeries(spec.base_history[cell])));
  }
  F2DB_RETURN_IF_ERROR(graph.BuildAggregates());
  return graph;
}

std::string BuildQuerySql(const WorkloadSpec& spec,
                          const OracleAddress& address, std::size_t horizon) {
  std::string sql = "SELECT time, SUM(m) FROM facts";
  bool first = true;
  for (std::size_t d = 0; d < spec.dims.size(); ++d) {
    const OracleDimension& dim = spec.dims[d];
    const auto& [level, value] = address.coords[d];
    if (level >= dim.num_levels()) continue;  // ALL: no predicate
    sql += first ? " WHERE " : " AND ";
    first = false;
    sql += dim.level_names[level] + " = '" + dim.values[level][value] + "'";
  }
  sql += " GROUP BY time AS OF now() + '" + std::to_string(horizon) + "'";
  return sql;
}

std::string BuildPreparedQuerySql(const WorkloadSpec& spec,
                                  const OracleAddress& address,
                                  std::size_t horizon,
                                  bool parameterize_filter,
                                  std::vector<std::string>* binds) {
  binds->clear();
  // Which dimension carries the last rendered predicate (ALL dims render
  // none); that one becomes the kFilterValue slot when requested.
  std::size_t last_filtered = spec.dims.size();
  for (std::size_t d = 0; d < spec.dims.size(); ++d) {
    if (address.coords[d].level < spec.dims[d].num_levels()) last_filtered = d;
  }
  std::string sql = "SELECT time, SUM(m) FROM facts";
  bool first = true;
  for (std::size_t d = 0; d < spec.dims.size(); ++d) {
    const OracleDimension& dim = spec.dims[d];
    const auto& [level, value] = address.coords[d];
    if (level >= dim.num_levels()) continue;  // ALL: no predicate
    sql += first ? " WHERE " : " AND ";
    first = false;
    if (parameterize_filter && d == last_filtered) {
      sql += dim.level_names[level] + " = ?";
      binds->push_back(dim.values[level][value]);
    } else {
      sql += dim.level_names[level] + " = '" + dim.values[level][value] + "'";
    }
  }
  sql += " GROUP BY time AS OF now() + ?";
  binds->push_back(std::to_string(horizon));
  return sql;
}

std::string BuildInsertSql(const WorkloadSpec& spec, std::size_t cell,
                           std::int64_t time, double value) {
  std::string sql = "INSERT INTO facts VALUES (";
  for (const std::string& name : CellBaseValues(spec, cell)) {
    sql += "'" + name + "', ";
  }
  sql += std::to_string(time) + ", " + RenderDouble(value) + ")";
  return sql;
}

DifferentialReport RunDifferential(const WorkloadSpec& spec,
                                   const DifferentialPlan& plan) {
  if (plan.faults == FaultPlan::kKill) return RunKill(spec, plan);
  return Replay(spec, plan).Run();
}

WorkloadSpec ShrinkWorkload(WorkloadSpec spec,
                            const WorkloadPredicate& still_fails) {
  if (!still_fails(spec)) return spec;
  std::size_t chunk = std::max<std::size_t>(1, spec.ops.size() / 2);
  for (;;) {
    bool removed_any = false;
    std::size_t start = 0;
    while (start < spec.ops.size()) {
      WorkloadSpec candidate = spec;
      const std::size_t end = std::min(start + chunk, candidate.ops.size());
      candidate.ops.erase(candidate.ops.begin() + start,
                          candidate.ops.begin() + end);
      if (still_fails(candidate)) {
        spec = std::move(candidate);
        removed_any = true;
        // Re-test the same offset: the next chunk slid into place.
      } else {
        start += chunk;
      }
    }
    if (chunk == 1 && !removed_any) break;
    chunk = std::max<std::size_t>(1, chunk / 2);
  }
  return spec;
}

}  // namespace f2db::testing
