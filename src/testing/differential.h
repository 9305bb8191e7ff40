// The differential driver: one generated workload, replayed through the
// ReferenceOracle and the engine executors of one grid point.
//
// RunDifferential(spec, plan) is the single entry point. The plan picks a
// point on three axes:
//   - topology: an embedded F2dbEngine driven with SQL text; that engine
//     plus a second one behind a loopback F2dbServer driven with the same
//     text through F2dbClient; or a ShardedEngine with M partitions driven
//     with typed queries and inserts;
//   - fault plan: only the spec's own faults (the engine.refit failpoint of
//     a fault-mode spec, injected-insert ops); an I/O fault window followed
//     by a forced storm, a probe heal and a bit-identical reopen; an
//     overload flood against a brownout server; or a seeded SIGKILL of a
//     durable child followed by recovery;
//   - mode: raw queries, or every wire QUERY shadowed by a PREPARE/EXECUTE
//     pair (the overload flood sends half its queries as EXECUTE frames).
//
// Every executor's answer is normalised (status, DegradationLevel, the
// wire body's "-- degraded:" marker, (time, value) rows) and goes through
// the same checks: answer-vs-oracle (availability, row times, values,
// degradation annotation — a degraded answer must be annotated and still
// correct), wire-vs-typed (a wire answer against the in-process answer of
// the same state), insert verdicts by status code against the oracle, and
// the prepared shadow (EXECUTE bit-identical to the raw QUERY). At the end
// the maintenance counters (pending inserts, time advances) must match.
//
// Tolerance policy (see DESIGN.md §9): the engine aggregates
// hierarchically while the oracle sums base cells flat, so bitwise
// equality is impossible — typed-vs-oracle uses rel 1e-6 / abs 1e-8. The
// wire renders values with "%.4f", so a wire answer is compared with rel
// 1e-9 / abs 2e-4, just above the rendering quantum.

#ifndef F2DB_TESTING_DIFFERENTIAL_H_
#define F2DB_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/configuration.h"
#include "cube/graph.h"
#include "testing/oracle.h"
#include "testing/workload.h"

namespace f2db::testing {

enum class Topology {
  /// One F2dbEngine, SQL in, typed QueryResult out. The fast path for
  /// shrinking a failure that reproduces without the wire.
  kEmbedded,
  /// The embedded engine plus a second engine behind a loopback server,
  /// fed the same statements; each wire answer is compared with the
  /// embedded answer of the same op (under kIo, with its own oracle).
  kServer,
  /// A ShardedEngine with num_shards partitions (typed queries and
  /// inserts — the facade has no SQL surface). In prepared mode the same
  /// engine also serves a loopback server. Feed it
  /// GenerateScatterGatherWorkload specs: generic workloads place models at
  /// cross-shard aggregates, which the facade rejects by design.
  kSharded,
};

enum class FaultPlan {
  /// Only the faults the spec carries: a fault-mode spec arms engine.refit
  /// for the whole run (every query past the invalidation threshold must
  /// be annotated kStaleModel), and kInsertInjectedFault ops arm
  /// engine.insert across one insert.
  kSpec,
  /// Durable engines (fsync=always) under <data_dir>/embedded and
  /// <data_dir>/server, each with its own oracle (under faults the
  /// accepted-insert sets legitimately diverge). A seeded probabilistic
  /// policy is armed on fault_site for the whole op window: every op must
  /// agree with its oracle or be an HONEST disk rejection (kUnavailable
  /// carrying the errno marker or the retry-after-ms hint; the oracle is
  /// not touched). Then a forced storm (always-EIO WAL append and probe)
  /// must drive every engine read-only within the failure-threshold bound
  /// with exactly one open episode, queries keep answering, disarming must
  /// heal every engine through the probe, and the embedded engine must
  /// reopen with every forecast BIT-IDENTICAL. Specs must not be in
  /// refit-fault mode; topology kEmbedded or kServer.
  kIo,
  /// The spec's queries are ignored: enough complete insert rounds go
  /// through the wire to cross the invalidation threshold, then
  /// concurrent clients flood an under-provisioned brownout server. Every
  /// response must be a full-fidelity answer matching the oracle, a
  /// DEGRADED answer that is annotated and value-correct, or an honest
  /// rejection (kUnavailable / kDeadlineExceeded). Topology kServer.
  kOverload,
  /// Crash fuzzing (see RunDifferential). Topology kEmbedded (configured
  /// F2dbEngine) or kSharded (unconfigured ShardedEngine, per-shard WALs
  /// under <data_dir>/shard-<k>). The kill plan is derived from spec.seed.
  kKill,
};

enum class Mode { kQuery, kPrepared };

struct DifferentialPlan {
  Topology topology = Topology::kServer;
  /// Shard count M of kSharded (>= 1; 1 exercises the partition
  /// restriction machinery with every value in one shard).
  std::size_t num_shards = 2;
  FaultPlan faults = FaultPlan::kSpec;
  Mode mode = Mode::kQuery;
  /// Scratch root of the durable plans (kIo, kKill): removed and recreated
  /// at the start, removed on success, kept on failure for replay.
  std::string data_dir;

  // ---- kIo: the fault window over the op list ----
  /// Seeds the window policy's coin flips (independent of the workload
  /// seed, so one spec runs under many fault schedules).
  std::uint64_t fault_seed = 0;
  /// I/O failpoint site armed for the whole window.
  std::string fault_site = "io.wal_append";
  /// errno injected at the site (5 = EIO, 28 = ENOSPC).
  int fault_errno = 5;
  /// Torn short writes instead of clean errors (the WAL rollback path).
  bool short_writes = false;
  double fault_probability = 0.10;

  // ---- kOverload ----
  /// Kept small so the flood actually reaches the admission watermark.
  std::size_t admission_queue_limit = 4;

  // ---- kKill ----
  /// The child arms seeded probabilistic I/O faults (short WAL writes,
  /// fsync EIO) over its whole insert window and absorbs them with a deep
  /// in-line retry budget, so the accepted-insert accounting stays exact
  /// while every fault exercises the append rollback path. The kill-point
  /// compaction leg is skipped (its accounting assumes compactions reach
  /// their hooks); failures of the second compaction are tolerated.
  bool dirty_disk = false;
};

struct DifferentialReport {
  bool ok = true;
  /// First divergence, prefixed with the seeds and the plan for replay.
  std::string failure;
  /// Query ops replayed (kOverload: flood requests sent).
  std::size_t queries = 0;
  /// Rows checked against an oracle.
  std::size_t rows_compared = 0;
  /// Insert verdicts checked per executor; kKill: inserts accepted before
  /// the crash (the torn one included).
  std::size_t inserts_accepted = 0;
  std::size_t inserts_rejected = 0;
  /// Typed rows served with an expected non-kNone annotation.
  std::size_t degraded_rows = 0;
  /// EXECUTEs compared bit-identical to their raw QUERY (kOverload:
  /// flood requests sent as EXECUTE frames).
  std::size_t prepared_executions = 0;

  // ---- kOverload: one outcome per flood request ----
  std::size_t ok_full_fidelity = 0;
  /// kOk answers on a degradation rung, each verified annotated and
  /// value-correct.
  std::size_t ok_degraded = 0;
  std::size_t shed = 0;              ///< kUnavailable
  std::size_t deadline_expired = 0;  ///< kDeadlineExceeded

  // ---- kIo ----
  /// Honest disk rejections (errno marker or read-only hint).
  std::size_t disk_rejections = 0;
  /// The storm drove every engine read-only with one open episode.
  bool forced_read_only = false;
  /// Every engine healed through the probe, episode accounting closed and
  /// inserts accepted again.
  bool auto_recovered = false;
  /// The reopened embedded engine answered every forecast bit-identically.
  bool recovery_bit_identical = false;

  // ---- kKill: what the iteration exercised ----
  std::size_t attempts_total = 0;     ///< flattened insert attempts
  std::size_t attempts_executed = 0;  ///< attempts before the kill
  bool killed_by_sigkill = false;
  /// The second, kill-point-free compaction ran before the kill.
  bool second_compaction_taken = false;
  bool torn_tail_injected = false;
  /// A mid-workload compaction was attempted; `compaction_crash_point` is
  /// the storage hook the SIGKILL landed on ("" when it completed).
  bool compaction_attempted = false;
  std::string compaction_crash_point;
  std::size_t records_replayed = 0;  ///< engine recovery counter
};

/// Replays `spec` at the grid point `plan`; the report carries the first
/// divergence (ok == false) or the agreement counters.
///
/// The kill plan is one crash iteration driven by spec.seed:
///   1. flatten the spec's maintenance ops into an insert-attempt list;
///   2. fork() a child that opens the durable engine (fsync=always) over a
///      fresh data_dir — the F2dbEngine loads the configuration, logged as
///      a kCatalog record; the ShardedEngine loads none, so every shard WAL
///      holds only inserts — executes a seed-chosen prefix of the attempts
///      through InsertFact(names), optionally compacting mid-way (once to
///      completion, once with a SIGKILL inside a seed-chosen protocol
///      stage), and then SIGKILLs itself: no destructors, no flushes;
///   3. optionally tear the WAL tail (the tail of the shard owning the last
///      accepted insert): truncate a seed-chosen number of bytes off the
///      final record when it is an insert;
///   4. reopen in the parent and compare: exact recovery counters and, for
///      the F2dbEngine, every forecast through the shared answer check
///      against an oracle fed the surviving accepted prefix; for the
///      ShardedEngine, per-shard counters and base series cell by cell.
/// The child disables re-estimation so replay is exactly reproducible by
/// the oracle. fork() requires a single-threaded caller.
DifferentialReport RunDifferential(const WorkloadSpec& spec,
                                   const DifferentialPlan& plan = {});

/// true = the candidate spec still reproduces the failure under test.
using WorkloadPredicate = std::function<bool(const WorkloadSpec&)>;

/// Greedy delta-debugging over the op list: repeatedly removes chunks
/// (halving the chunk size down to single ops) while the predicate keeps
/// failing. Returns the smallest still-failing spec found.
WorkloadSpec ShrinkWorkload(WorkloadSpec spec,
                            const WorkloadPredicate& still_fails);

// ---- workload → engine plumbing (shared with the durability tests) ----

/// Builds the TimeSeriesGraph of a spec with the full base histories
/// installed and aggregates built.
Result<TimeSeriesGraph> BuildWorkloadGraph(const WorkloadSpec& spec);

/// Fits the spec's model placements on the train prefix (all but the last
/// observation — the engine's catch-up step replays that one) and installs
/// the explicit schemes. One configuration can be loaded into any number
/// of engines; each clones the models internally.
Result<ModelConfiguration> BuildWorkloadConfiguration(
    const WorkloadSpec& spec, const TimeSeriesGraph& graph);

/// Mirrors an engine LoadConfiguration into the oracle: clones of the
/// fitted models caught up by the one replayed observation, plus the
/// explicit schemes.
void InstallOracleConfiguration(const WorkloadSpec& spec,
                                const ModelConfiguration& config,
                                const TimeSeriesGraph& graph,
                                ReferenceOracle& oracle);

/// The forecast-query SQL of one address ("SELECT time, SUM(m) ... AS OF
/// now() + 'h'"); ALL dimensions are left unfiltered.
std::string BuildQuerySql(const WorkloadSpec& spec,
                          const OracleAddress& address, std::size_t horizon);

/// The INSERT SQL of one base cell ("INSERT INTO facts VALUES (...)");
/// the measure is rendered "%.17g" so the value round-trips exactly.
std::string BuildInsertSql(const WorkloadSpec& spec, std::size_t cell,
                           std::int64_t time, double value);

/// The parameterized form of BuildQuerySql: the horizon literal becomes a
/// `?` bind slot and, when `parameterize_filter`, the LAST filter
/// predicate's value too. `binds` receives the literals in slot
/// (statement) order — filter value first when present, horizon last —
/// ready to hand to F2dbClient::ExecutePrepared.
std::string BuildPreparedQuerySql(const WorkloadSpec& spec,
                                  const OracleAddress& address,
                                  std::size_t horizon,
                                  bool parameterize_filter,
                                  std::vector<std::string>* binds);

}  // namespace f2db::testing

#endif  // F2DB_TESTING_DIFFERENTIAL_H_
