#include "testing/diskfault.h"

#include <sys/stat.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "core/evaluator.h"
#include "engine/engine.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/fsio.h"
#include "testing/crash.h"
#include "testing/differential.h"
#include "testing/oracle.h"

namespace f2db::testing {

namespace {

std::string RenderDouble(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

bool ValuesClose(double a, double b, double rel, double abs) {
  if (std::isnan(a) || std::isnan(b)) return false;
  return std::abs(a - b) <= abs + rel * std::max(std::abs(a), std::abs(b));
}

/// Oracle verdict -> the StatusCode an engine must report (mirrors the
/// plain differential's mapping; kNonFinite is kInvalidArgument on the
/// SQL path because the "nan" literal fails to parse).
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

/// Rows parsed back from a wire QUERY response body (same grammar as the
/// plain differential's parser: "time|value" lines, "--"-prefixed
/// comments, a "-- degraded:" annotation marker).
struct WireRows {
  std::vector<std::pair<std::int64_t, double>> rows;
  bool degraded_marker = false;
  bool parse_ok = true;
  std::string parse_error;
};

WireRows ParseWireBody(const std::string& body) {
  WireRows out;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line.rfind("--", 0) == 0) {
      if (line.rfind("-- degraded:", 0) == 0) out.degraded_marker = true;
      continue;
    }
    const std::size_t bar = line.find('|');
    if (bar == std::string::npos) {
      out.parse_ok = false;
      out.parse_error = "row without '|': " + line;
      return out;
    }
    char* end = nullptr;
    const long long time = std::strtoll(line.c_str(), &end, 10);
    const double value = std::strtod(line.c_str() + bar + 1, nullptr);
    out.rows.push_back({static_cast<std::int64_t>(time), value});
  }
  return out;
}

/// One executor's view of an insert attempt.
struct InsertOutcome {
  StatusCode code = StatusCode::kOk;
  std::string message;
  /// kUnavailable carrying the fsio errno marker or the read-only hint:
  /// an HONEST disk rejection — the oracle must not be touched.
  bool disk_rejected = false;
  /// The rejection carried the "retry-after-ms=" read-only hint.
  bool read_only_hint = false;
};

InsertOutcome ClassifyInsertStatus(const Status& status) {
  InsertOutcome out;
  if (status.ok()) return out;
  out.code = status.code();
  out.message = status.message();
  out.read_only_hint = ParseRetryAfterMs(out.message).has_value();
  out.disk_rejected = out.code == StatusCode::kUnavailable &&
                      (storage::ErrnoFromStatus(status) != 0 ||
                       out.read_only_hint);
  return out;
}

InsertOutcome ClassifyWireInsert(const WireResponse& response) {
  InsertOutcome out;
  out.code = response.status;
  if (out.code == StatusCode::kOk) return out;
  out.message = response.body;
  out.read_only_hint = ParseRetryAfterMs(out.message).has_value();
  out.disk_rejected =
      out.code == StatusCode::kUnavailable &&
      (out.message.find("[errno:") != std::string::npos || out.read_only_hint);
  return out;
}

/// A forecast answer snapshotted for the bit-identical recovery check.
struct AnswerSnapshot {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
  DegradationLevel degradation = DegradationLevel::kNone;
  std::vector<std::pair<std::int64_t, double>> rows;
};

AnswerSnapshot SnapshotAnswer(const F2dbEngine& engine,
                              const std::string& sql) {
  AnswerSnapshot out;
  const auto result = engine.ExecuteSql(sql);
  out.ok = result.ok();
  if (!result.ok()) {
    out.code = result.status().code();
    return out;
  }
  out.degradation = result.value().degradation;
  for (const ForecastRow& row : result.value().rows) {
    out.rows.push_back({row.time, row.value});
  }
  return out;
}

}  // namespace

DiskFaultDifferentialReport RunDiskFaultDifferential(
    const WorkloadSpec& spec, const DiskFaultDifferentialOptions& options) {
  DiskFaultDifferentialReport report;
  const auto fail = [&](const std::string& what) {
    report.ok = false;
    report.failure = "diskfault seed=" + std::to_string(options.seed) +
                     " workload_seed=" + std::to_string(spec.seed) +
                     " shape=" + spec.shape_name + " site=" +
                     options.fault_site + ": " + what;
    failpoint::DisableAll();
    if (!options.keep_dir_on_failure) RemoveDirectoryTree(options.data_dir);
    return report;
  };

  if (spec.inject_refit_failures) {
    return fail("spec is in refit-fault mode; use a plain workload");
  }
  if (options.data_dir.empty()) return fail("options.data_dir is empty");

  RemoveDirectoryTree(options.data_dir);
  if (::mkdir(options.data_dir.c_str(), 0755) != 0) {
    return fail("mkdir " + options.data_dir + " failed");
  }

  // Whatever the exit path, no fault policy outlives the run.
  failpoint::ScopedDisableAll disarm_guard;

  // ---- setup: one oracle + one durable engine per executor -------------
  EngineOptions engine_options;
  engine_options.reestimate_after_updates = 0;
  engine_options.maintenance_threads = 1;
  engine_options.fsync_policy = FsyncPolicy::kAlways;
  engine_options.disk_failure_threshold = options.failure_threshold;
  engine_options.disk_retry_attempts = options.retry_attempts;
  engine_options.disk_retry_backoff_ms = 0.0;
  engine_options.disk_probe_interval_seconds = options.probe_interval_seconds;
  engine_options.read_only_retry_after_ms = options.read_only_retry_after_ms;

  ReferenceOracle oracle_a(spec.dims);
  ReferenceOracle oracle_b(spec.dims);
  for (std::size_t cell = 0; cell < spec.base_history.size(); ++cell) {
    oracle_a.SetBaseSeries(cell, spec.base_history[cell]);
    oracle_b.SetBaseSeries(cell, spec.base_history[cell]);
  }

  const auto open_engine =
      [&](const std::string& dir,
          ReferenceOracle& oracle) -> Result<std::unique_ptr<F2dbEngine>> {
    EngineOptions opts = engine_options;
    opts.data_dir = dir;
    F2DB_ASSIGN_OR_RETURN(TimeSeriesGraph graph, BuildWorkloadGraph(spec));
    F2DB_ASSIGN_OR_RETURN(std::unique_ptr<F2dbEngine> engine,
                          F2dbEngine::Open(std::move(graph), opts));
    F2DB_ASSIGN_OR_RETURN(ModelConfiguration config,
                          BuildWorkloadConfiguration(spec, engine->graph()));
    const ConfigurationEvaluator evaluator(engine->graph(), 1.0);
    F2DB_RETURN_IF_ERROR(engine->LoadConfiguration(config, evaluator));
    InstallOracleConfiguration(spec, config, engine->graph(), oracle);
    return engine;
  };

  auto embedded_opened =
      open_engine(options.data_dir + "/embedded", oracle_a);
  if (!embedded_opened.ok()) {
    return fail("embedded setup: " + embedded_opened.status().ToString());
  }
  std::unique_ptr<F2dbEngine> embedded = std::move(embedded_opened.value());

  std::unique_ptr<F2dbEngine> server_engine;
  std::unique_ptr<F2dbServer> server;
  F2dbClient client;
  if (options.run_server) {
    auto server_opened = open_engine(options.data_dir + "/server", oracle_b);
    if (!server_opened.ok()) {
      return fail("server setup: " + server_opened.status().ToString());
    }
    server_engine = std::move(server_opened.value());
    ServerOptions server_options;
    server_options.worker_threads = 2;
    server = std::make_unique<F2dbServer>(*server_engine, server_options);
    const Status started = server->Start();
    if (!started.ok()) return fail("server start: " + started.ToString());
    auto connected = F2dbClient::Connect("127.0.0.1", server->port());
    if (!connected.ok()) {
      return fail("client connect: " + connected.status().ToString());
    }
    client = std::move(connected.value());
  }

  // ---- one insert against one executor + its oracle --------------------
  // Engine first: an honest disk rejection must leave the oracle
  // untouched, so the verdict can only be computed after the engine's
  // answer is classified.
  const auto drive_insert = [&](bool wire, std::size_t cell,
                                std::int64_t time, double value,
                                std::string* divergence) -> InsertOutcome {
    const std::string sql = BuildInsertSql(spec, cell, time, value);
    InsertOutcome out;
    if (wire) {
      auto response = client.Insert(sql);
      if (!response.ok()) {
        *divergence = "wire transport failure on \"" + sql +
                      "\": " + response.status().ToString();
        return out;
      }
      out = ClassifyWireInsert(response.value());
    } else {
      auto result = embedded->ExecuteStatementText(sql);
      out = ClassifyInsertStatus(result.ok() ? Status::OK()
                                             : result.status());
    }
    if (out.disk_rejected) {
      (wire ? report.disk_rejections_wire : report.disk_rejections_embedded)
          += 1;
      if (out.read_only_hint) ++report.read_only_rejections;
      return out;
    }
    ReferenceOracle& oracle = wire ? oracle_b : oracle_a;
    const OracleInsert verdict = oracle.Insert(cell, time, value);
    const StatusCode expected = ExpectedInsertCode(verdict);
    if (out.code != expected) {
      *divergence = std::string(wire ? "wire" : "embedded") +
                    " insert verdict mismatch for \"" + sql +
                    "\": oracle expects " + StatusCodeName(expected) +
                    ", got " + StatusCodeName(out.code) + " (" + out.message +
                    ")";
      return out;
    }
    if (verdict == OracleInsert::kAccepted) {
      (wire ? report.inserts_accepted_wire : report.inserts_accepted_embedded)
          += 1;
    } else {
      ++report.inserts_rejected;
    }
    return out;
  };

  // ---- one query against one executor + its oracle ---------------------
  const auto check_embedded_query = [&](const OracleAddress& address,
                                        std::size_t horizon) -> std::string {
    const std::string sql = BuildQuerySql(spec, address, horizon);
    const std::int64_t now = oracle_a.frontier();
    const auto expected = oracle_a.Forecast(address, horizon);
    const auto result = embedded->ExecuteSql(sql);
    ++report.queries;
    if (result.ok() != expected.has_value()) {
      return "embedded availability mismatch for \"" + sql + "\": engine=" +
             (result.ok() ? "ok" : result.status().ToString()) + " oracle=" +
             (expected ? "ok" : "unavailable");
    }
    if (!result.ok()) return "";
    const QueryResult& answer = result.value();
    if (answer.rows.size() != expected->size()) {
      return "embedded row count mismatch for \"" + sql + "\"";
    }
    const DegradationLevel expected_level =
        oracle_a.FullFidelity(address) ? DegradationLevel::kNone
                                       : DegradationLevel::kDerivedFallback;
    if (answer.degradation != expected_level) {
      return "embedded degradation mismatch for \"" + sql + "\": got " +
             DegradationLevelName(answer.degradation) + " expected " +
             DegradationLevelName(expected_level) + " (" +
             answer.degradation_reason + ")";
    }
    for (std::size_t h = 0; h < expected->size(); ++h) {
      if (answer.rows[h].time != now + static_cast<std::int64_t>(h)) {
        return "embedded row time mismatch for \"" + sql + "\"";
      }
      if (!ValuesClose(answer.rows[h].value, (*expected)[h], options.rel_tol,
                       options.abs_tol)) {
        return "embedded value mismatch for \"" + sql + "\" at h=" +
               std::to_string(h) + ": engine=" +
               RenderDouble(answer.rows[h].value) + " oracle=" +
               RenderDouble((*expected)[h]);
      }
      ++report.rows_compared;
    }
    return "";
  };

  const auto check_wire_query = [&](const OracleAddress& address,
                                    std::size_t horizon) -> std::string {
    if (!options.run_server) return "";
    const std::string sql = BuildQuerySql(spec, address, horizon);
    const std::int64_t now = oracle_b.frontier();
    const auto expected = oracle_b.Forecast(address, horizon);
    auto response = client.Query(sql);
    ++report.queries;
    if (!response.ok()) {
      return "wire transport failure on \"" + sql +
             "\": " + response.status().ToString();
    }
    const bool answered = response.value().status == StatusCode::kOk;
    if (answered != expected.has_value()) {
      return "wire availability mismatch for \"" + sql + "\": wire=" +
             StatusCodeName(response.value().status) + " oracle=" +
             (expected ? "ok" : "unavailable");
    }
    if (!answered) return "";
    const WireRows parsed = ParseWireBody(response.value().body);
    if (!parsed.parse_ok) {
      return "wire body unparsable for \"" + sql + "\": " + parsed.parse_error;
    }
    if (parsed.rows.size() != expected->size()) {
      return "wire row count mismatch for \"" + sql + "\"";
    }
    const bool expect_degraded = !oracle_b.FullFidelity(address);
    if (parsed.degraded_marker != expect_degraded) {
      return "wire degradation marker mismatch for \"" + sql + "\": marker=" +
             (parsed.degraded_marker ? "present" : "absent") + " expected " +
             (expect_degraded ? "present" : "absent");
    }
    for (std::size_t h = 0; h < expected->size(); ++h) {
      if (parsed.rows[h].first != now + static_cast<std::int64_t>(h)) {
        return "wire row time mismatch for \"" + sql + "\"";
      }
      if (!ValuesClose(parsed.rows[h].second, (*expected)[h], 1e-9,
                       options.wire_abs_tol)) {
        return "wire value mismatch for \"" + sql + "\" at h=" +
               std::to_string(h) + ": wire=" +
               RenderDouble(parsed.rows[h].second) + " oracle=" +
               RenderDouble((*expected)[h]);
      }
      ++report.rows_compared;
    }
    return "";
  };

  // ---- the fault window over the op list -------------------------------
  failpoint::Policy window_policy =
      failpoint::Policy::WithProbability(options.fault_probability,
                                         options.seed ^ 0xD15CFA17ULL)
          .WithErrno(options.fault_errno);
  if (options.short_writes) window_policy = window_policy.WithShortWrite();
  failpoint::Enable(options.fault_site, window_policy);

  const std::vector<OracleAddress> addresses = oracle_a.AllAddresses();
  for (std::size_t i = 0; i < spec.ops.size(); ++i) {
    const WorkloadOp& op = spec.ops[i];
    std::string divergence;
    switch (op.kind) {
      case OpKind::kQuery: {
        const OracleAddress& address =
            addresses[op.address_index % addresses.size()];
        divergence = check_embedded_query(address, op.horizon);
        if (divergence.empty()) {
          divergence = check_wire_query(address, op.horizon);
        }
        break;
      }
      case OpKind::kInsertRound: {
        // Per-executor frontier: under faults the engines' accepted sets
        // (and so their frontiers) legitimately diverge.
        const std::int64_t time_a = oracle_a.frontier();
        for (const std::size_t cell : op.insert_order) {
          drive_insert(false, cell, time_a, op.round_values[cell],
                       &divergence);
          if (!divergence.empty()) break;
        }
        if (divergence.empty() && options.run_server) {
          const std::int64_t time_b = oracle_b.frontier();
          for (const std::size_t cell : op.insert_order) {
            drive_insert(true, cell, time_b, op.round_values[cell],
                         &divergence);
            if (!divergence.empty()) break;
          }
        }
        break;
      }
      case OpKind::kInsertPartial:
      case OpKind::kInsertBehind:
      case OpKind::kInsertNonFinite: {
        const std::int64_t behind =
            op.kind == OpKind::kInsertBehind ? 1 : 0;
        drive_insert(false, op.cell, oracle_a.frontier() - behind, op.value,
                     &divergence);
        if (divergence.empty() && options.run_server) {
          drive_insert(true, op.cell, oracle_b.frontier() - behind, op.value,
                       &divergence);
        }
        break;
      }
      case OpKind::kInsertInjectedFault:
        // Only generated in refit-fault mode, which setup rejects.
        break;
    }
    if (!divergence.empty()) {
      return fail("op[" + std::to_string(i) + "] " + divergence);
    }
  }

  // ---- forced storm: every durable insert fails until read-only --------
  failpoint::DisableAll();
  failpoint::Enable(storage::kIoSiteWalAppend, failpoint::Policy::Always());
  // The health probe must keep failing too, or it would end the episode
  // between storm inserts.
  failpoint::Enable(storage::kIoSiteProbeWrite, failpoint::Policy::Always());

  const auto storm = [&](bool wire, F2dbEngine& engine) -> std::string {
    ReferenceOracle& oracle = wire ? oracle_b : oracle_a;
    const std::size_t bound =
        options.failure_threshold * (options.retry_attempts + 2) + 4;
    bool read_only = false;
    for (std::size_t attempt = 0; attempt < bound; ++attempt) {
      std::string divergence;
      // Distinct future time stamps: a frontier insert could collide with
      // a value buffered during the window and be rejected as a duplicate
      // BEFORE the WAL is touched, which would starve the storm.
      const InsertOutcome out = drive_insert(
          wire, 0, oracle.frontier() + 500 + static_cast<std::int64_t>(attempt),
          1.0, &divergence);
      if (!divergence.empty()) return "storm: " + divergence;
      if (out.code == StatusCode::kOk) {
        return "storm insert unexpectedly succeeded with WAL faults armed";
      }
      if (!out.disk_rejected) {
        return "storm insert rejected without an honest disk marker: " +
               std::string(StatusCodeName(out.code)) + " (" + out.message +
               ")";
      }
      if (out.read_only_hint) {
        read_only = true;
        break;
      }
    }
    if (!read_only) {
      return "engine never entered read-only within " +
             std::to_string(bound) + " storm inserts";
    }
    if (engine.disk_health() != DiskHealthState::kReadOnly) {
      return "read-only hint served but disk_health() != kReadOnly";
    }
    const EngineStats stats = engine.stats();
    if (stats.read_only_entries != stats.read_only_exits + 1) {
      return "read-only episode accounting open-count != 1: entries=" +
             std::to_string(stats.read_only_entries) + " exits=" +
             std::to_string(stats.read_only_exits);
    }
    return "";
  };

  {
    const std::string embedded_storm = storm(false, *embedded);
    if (!embedded_storm.empty()) return fail("embedded " + embedded_storm);
    if (options.run_server) {
      const std::string wire_storm = storm(true, *server_engine);
      if (!wire_storm.empty()) return fail("wire " + wire_storm);
    }
    report.forced_read_only = true;
  }

  // Queries must keep serving correct answers while read-only.
  for (std::size_t a = 0; a < addresses.size(); a += addresses.size() / 3 + 1) {
    std::string divergence = check_embedded_query(addresses[a], 2);
    if (divergence.empty()) divergence = check_wire_query(addresses[a], 2);
    if (!divergence.empty()) return fail("read-only query: " + divergence);
  }

  // ---- disarm and auto-heal through the probe --------------------------
  failpoint::DisableAll();
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options.recovery_deadline_seconds));
  const auto healthy = [&] {
    return embedded->disk_health() == DiskHealthState::kOk &&
           (!options.run_server ||
            server_engine->disk_health() == DiskHealthState::kOk);
  };
  while (!healthy() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!healthy()) {
    return fail("engines did not auto-exit read-only within " +
                std::to_string(options.recovery_deadline_seconds) +
                "s of disarming the faults");
  }
  {
    const EngineStats stats = embedded->stats();
    if (stats.read_only_entries != stats.read_only_exits) {
      return fail("embedded episode accounting did not close: entries=" +
                  std::to_string(stats.read_only_entries) + " exits=" +
                  std::to_string(stats.read_only_exits));
    }
    if (options.run_server) {
      const EngineStats server_stats = server_engine->stats();
      if (server_stats.read_only_entries != server_stats.read_only_exits) {
        return fail("wire episode accounting did not close");
      }
    }
  }

  // Writes must be accepted again. A far-future time stamp cannot collide
  // with anything buffered during the window.
  {
    std::string divergence;
    const InsertOutcome out = drive_insert(
        false, 0, oracle_a.frontier() + 1000, 2.0, &divergence);
    if (!divergence.empty()) return fail("post-recovery " + divergence);
    if (out.code != StatusCode::kOk) {
      return fail("post-recovery embedded insert still rejected: " +
                  std::string(StatusCodeName(out.code)) + " (" + out.message +
                  ")");
    }
    if (options.run_server) {
      const InsertOutcome wire_out = drive_insert(
          true, 0, oracle_b.frontier() + 1000, 2.0, &divergence);
      if (!divergence.empty()) return fail("post-recovery " + divergence);
      if (wire_out.code != StatusCode::kOk) {
        return fail("post-recovery wire insert still rejected");
      }
    }
  }
  report.auto_recovered = true;

  // ---- end-of-run maintenance invariants -------------------------------
  if (embedded->pending_inserts() != oracle_a.pending_inserts()) {
    return fail("embedded pending-insert mismatch: engine=" +
                std::to_string(embedded->pending_inserts()) + " oracle=" +
                std::to_string(oracle_a.pending_inserts()));
  }
  if (embedded->stats().time_advances != oracle_a.advances()) {
    return fail("embedded advance-count mismatch: engine=" +
                std::to_string(embedded->stats().time_advances) + " oracle=" +
                std::to_string(oracle_a.advances()));
  }
  if (options.run_server) {
    if (server_engine->pending_inserts() != oracle_b.pending_inserts() ||
        server_engine->stats().time_advances != oracle_b.advances()) {
      return fail("wire maintenance state diverged from its oracle");
    }
  }

  // ---- bit-identical recovery of the embedded engine -------------------
  std::vector<AnswerSnapshot> before;
  before.reserve(addresses.size());
  for (const OracleAddress& address : addresses) {
    before.push_back(
        SnapshotAnswer(*embedded, BuildQuerySql(spec, address, 3)));
  }
  embedded.reset();  // clean close: final WAL sync

  auto reopened_graph = BuildWorkloadGraph(spec);
  if (!reopened_graph.ok()) {
    return fail("reopen graph: " + reopened_graph.status().ToString());
  }
  EngineOptions reopen_options = engine_options;
  reopen_options.data_dir = options.data_dir + "/embedded";
  auto reopened =
      F2dbEngine::Open(std::move(reopened_graph.value()), reopen_options);
  if (!reopened.ok()) {
    return fail("reopen: " + reopened.status().ToString());
  }
  for (std::size_t a = 0; a < addresses.size(); ++a) {
    const AnswerSnapshot after = SnapshotAnswer(
        *reopened.value(), BuildQuerySql(spec, addresses[a], 3));
    const AnswerSnapshot& want = before[a];
    if (after.ok != want.ok || after.code != want.code ||
        after.degradation != want.degradation ||
        after.rows.size() != want.rows.size()) {
      return fail("reopened answer shape diverged at address " +
                  addresses[a].Key());
    }
    for (std::size_t h = 0; h < want.rows.size(); ++h) {
      if (after.rows[h].first != want.rows[h].first ||
          after.rows[h].second != want.rows[h].second) {
        return fail("reopened forecast not bit-identical at address " +
                    addresses[a].Key() + " h=" + std::to_string(h) +
                    ": before=" + RenderDouble(want.rows[h].second) +
                    " after=" + RenderDouble(after.rows[h].second));
      }
    }
  }
  if (reopened.value()->pending_inserts() != oracle_a.pending_inserts()) {
    return fail("reopened pending-insert mismatch: engine=" +
                std::to_string(reopened.value()->pending_inserts()) +
                " oracle=" + std::to_string(oracle_a.pending_inserts()));
  }
  report.recovery_bit_identical = true;

  if (options.run_server) {
    client.Close();
    server.reset();
    server_engine.reset();
  }
  reopened.value().reset();
  RemoveDirectoryTree(options.data_dir);
  report.ok = true;
  return report;
}

}  // namespace f2db::testing
