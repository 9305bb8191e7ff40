#include "testing/crash.h"

#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/configuration.h"
#include "core/evaluator.h"
#include "cube/graph.h"
#include "engine/engine.h"
#include "engine/sharded_engine.h"
#include "engine/wal.h"
#include "storage/fsio.h"
#include "testing/differential.h"
#include "testing/oracle.h"
#include "testing/workload.h"

namespace f2db::testing {
namespace {

constexpr std::size_t kForecastHorizon = 3;
constexpr double kRelTol = 1e-6;
constexpr double kAbsTol = 1e-8;

/// One insert the child will attempt, flattened out of the spec's op list.
/// Queries and fault-injected inserts are dropped: the crash fuzzer only
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

NodeAddress ToNodeAddress(const OracleAddress& address) {
  NodeAddress out;
  out.coords.resize(address.coords.size());
  for (std::size_t d = 0; d < address.coords.size(); ++d) {
    out.coords[d] = {static_cast<LevelIndex>(address.coords[d].level),
                     static_cast<ValueIndex>(address.coords[d].value)};
  }
  return out;
}

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

bool ValuesClose(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return false;
  return std::abs(a - b) <= kAbsTol + kRelTol * std::max(std::abs(a), std::abs(b));
}

/// The base-cell -> NodeId map of one graph (odometer cell order).
Result<std::vector<NodeId>> CellNodeMap(const WorkloadSpec& spec,
                                        const TimeSeriesGraph& graph) {
  const ReferenceOracle probe(spec.dims);
  std::vector<NodeId> nodes(probe.num_base_cells());
  for (std::size_t cell = 0; cell < nodes.size(); ++cell) {
    F2DB_ASSIGN_OR_RETURN(nodes[cell],
                          graph.NodeFor(ToNodeAddress(probe.CellAddress(cell))));
  }
  return nodes;
}

/// Level-0 value names of one base cell, decoded in the oracle's odometer
/// order (dimension 0 most significant) — the InsertFact address form of
/// the sharded facade, whose names[0] also picks the owning partition.
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

std::string ChildErrorPath(const std::string& data_dir) {
  return data_dir + "/child_error.txt";
}

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

/// The child's escape hatch: it cannot use the report (different process),
/// so failures before the planned SIGKILL land in a file the parent reads.
[[noreturn]] void ChildAbort(const std::string& data_dir,
                             const std::string& what) {
  std::ofstream out(ChildErrorPath(data_dir), std::ios::trunc);
  out << what << "\n";
  out.close();
  ::_exit(1);
}

/// The dirty-disk fault mix, seeded per run: 10% of WAL appends tear with a
/// short write and 5% of WAL fsyncs fail with EIO.
void ArmDirtyDisk(std::uint64_t seed) {
  failpoint::Enable(storage::kIoSiteWalAppend,
                    failpoint::Policy::WithProbability(0.10,
                                                       seed ^ 0xD177D15CULL)
                        .WithShortWrite());
  failpoint::Enable(storage::kIoSiteWalFsync,
                    failpoint::Policy::WithProbability(0.05,
                                                       seed ^ 0xF5C7EEULL));
}

/// The crashing process: open durable, load config, run the attempt
/// prefix (compacting mid-way when planned), then die without warning.
[[noreturn]] void RunChild(const WorkloadSpec& spec,
                           const std::vector<InsertAttempt>& attempts,
                           std::size_t kill_after, bool do_second_compact,
                           std::size_t second_compact_after, bool do_compact,
                           std::size_t compact_after,
                           const char* compact_crash_point,
                           const std::string& data_dir, bool dirty_disk,
                           std::uint64_t seed) {
  storage::SetStorageCrashHook(&StorageKillHook);
  EngineOptions engine_options;
  engine_options.maintenance_threads = 1;
  engine_options.reestimate_after_updates = 0;  // pure kCatalog+kInsert WAL
  engine_options.data_dir = data_dir;
  engine_options.fsync_policy = FsyncPolicy::kAlways;
  if (dirty_disk) {
    // Deep enough that a faulted insert always lands on retry (fault
    // probability ^ 9 is negligible across every seed), so the accepted
    // set the parent recomputes stays exact.
    engine_options.disk_retry_attempts = 8;
    engine_options.disk_retry_backoff_ms = 0.0;
    engine_options.disk_failure_threshold = 1u << 20;  // never read-only
  }

  auto graph = BuildWorkloadGraph(spec);
  if (!graph.ok()) ChildAbort(data_dir, "child graph: " + graph.status().ToString());
  auto engine = F2dbEngine::Open(std::move(graph.value()), engine_options);
  if (!engine.ok()) ChildAbort(data_dir, "child open: " + engine.status().ToString());

  auto config = BuildWorkloadConfiguration(spec, engine.value()->graph());
  if (!config.ok()) ChildAbort(data_dir, "child config: " + config.status().ToString());
  const ConfigurationEvaluator evaluator(engine.value()->graph(), 1.0);
  const Status loaded =
      engine.value()->LoadConfiguration(config.value(), evaluator);
  if (!loaded.ok()) ChildAbort(data_dir, "child load: " + loaded.ToString());

  auto cells = CellNodeMap(spec, engine.value()->graph());
  if (!cells.ok()) ChildAbort(data_dir, "child cells: " + cells.status().ToString());

  // A bare oracle (no models) tracks the frontier and the expected insert
  // verdicts; the parent recomputes the same sequence after the crash.
  ReferenceOracle oracle(spec.dims);
  for (std::size_t cell = 0; cell < spec.base_history.size(); ++cell) {
    oracle.SetBaseSeries(cell, spec.base_history[cell]);
  }

  // The fault window opens AFTER the catalog record: LoadConfiguration has
  // no retry wrapper, so faults there would abort instead of being
  // absorbed. From here on every insert may tear or fail mid-write.
  if (dirty_disk) {
    ArmDirtyDisk(seed);
  }

  for (std::size_t i = 0; i < kill_after; ++i) {
    const InsertAttempt& attempt = attempts[i];
    std::int64_t time = oracle.frontier();
    if (attempt.behind) time -= 1;
    const OracleInsert verdict = oracle.Insert(attempt.cell, time, attempt.value);
    const Status inserted =
        engine.value()->InsertFact(cells.value()[attempt.cell], time, attempt.value);
    const StatusCode want = ExpectedInsertCode(verdict);
    const StatusCode got = inserted.code();
    if (got != want) {
      ChildAbort(data_dir, "child attempt " + std::to_string(i) +
                               ": verdict mismatch, engine=" +
                               inserted.ToString());
    }
    if (do_compact && i == compact_after) {
      // With a kill point armed the process dies INSIDE this call; without
      // one the compaction must complete cleanly.
      g_storage_kill_point = compact_crash_point;
      const Status compacted = engine.value()->CompactNow();
      if (!compacted.ok()) {
        ChildAbort(data_dir, "child compaction: " + compacted.ToString());
      }
    }
    if (do_second_compact && i == second_compact_after) {
      // No kill point is armed for this one; on a dirty disk it may fail
      // (a rotation or tail append hits a fault) and that is tolerated.
      const Status compacted = engine.value()->CompactNow();
      if (!compacted.ok() && !dirty_disk) {
        ChildAbort(data_dir,
                   "child second compaction: " + compacted.ToString());
      }
    }
  }

  // The crash itself: no destructors, no WAL close, no flushes.
  ::kill(::getpid(), SIGKILL);
  ::_exit(99);  // unreachable
}

/// The sharded crashing process: open a durable ShardedEngine (per-shard
/// WALs under data_dir/shard-<k>), run the attempt prefix through the
/// name-routed insert path, then die without warning. No configuration is
/// loaded, so every shard's WAL holds ONLY kInsert records and recovery is
/// exactly reproducible from the accepted prefix.
[[noreturn]] void RunShardedChild(const WorkloadSpec& spec,
                                  const std::vector<InsertAttempt>& attempts,
                                  std::size_t kill_after,
                                  bool do_second_compact,
                                  std::size_t second_compact_after,
                                  bool do_compact, std::size_t compact_after,
                                  const char* compact_crash_point,
                                  std::size_t num_shards,
                                  const std::string& data_dir,
                                  bool dirty_disk, std::uint64_t seed) {
  storage::SetStorageCrashHook(&StorageKillHook);
  ShardedEngineOptions sharded_options;
  sharded_options.num_shards = num_shards;
  sharded_options.engine.maintenance_threads = 1;
  sharded_options.engine.reestimate_after_updates = 0;
  sharded_options.engine.data_dir = data_dir;
  sharded_options.engine.fsync_policy = FsyncPolicy::kAlways;
  if (dirty_disk) {
    sharded_options.engine.disk_retry_attempts = 8;
    sharded_options.engine.disk_retry_backoff_ms = 0.0;
    sharded_options.engine.disk_failure_threshold = 1u << 20;
  }

  auto graph = BuildWorkloadGraph(spec);
  if (!graph.ok()) {
    ChildAbort(data_dir, "child graph: " + graph.status().ToString());
  }
  auto engine = ShardedEngine::Open(graph.value(), sharded_options);
  if (!engine.ok()) {
    ChildAbort(data_dir, "child sharded open: " + engine.status().ToString());
  }

  if (dirty_disk) {
    ArmDirtyDisk(seed);
  }

  // A bare global oracle tracks the frontier and the expected verdicts. A
  // scatter-gather spec keeps shard frontiers reconcilable with it: every
  // single-cell attempt sits between complete rounds, where every shard's
  // frontier equals the global one.
  ReferenceOracle oracle(spec.dims);
  for (std::size_t cell = 0; cell < spec.base_history.size(); ++cell) {
    oracle.SetBaseSeries(cell, spec.base_history[cell]);
  }

  for (std::size_t i = 0; i < kill_after; ++i) {
    const InsertAttempt& attempt = attempts[i];
    std::int64_t time = oracle.frontier();
    if (attempt.behind) time -= 1;
    const OracleInsert verdict =
        oracle.Insert(attempt.cell, time, attempt.value);
    const Status inserted = engine.value()->InsertFact(
        CellBaseValues(spec, attempt.cell), time, attempt.value);
    if (inserted.code() != ExpectedInsertCode(verdict)) {
      ChildAbort(data_dir, "child sharded attempt " + std::to_string(i) +
                               ": verdict mismatch, engine=" +
                               inserted.ToString());
    }
    if (do_compact && i == compact_after) {
      // The fan-out compacts shard by shard; an armed kill point fires in
      // whichever shard reaches that protocol stage first, leaving the
      // siblings at arbitrary earlier stages — recovery must reconcile a
      // mixed fleet.
      g_storage_kill_point = compact_crash_point;
      const Status compacted = engine.value()->CompactNow();
      if (!compacted.ok()) {
        ChildAbort(data_dir, "child compaction: " + compacted.ToString());
      }
    }
    if (do_second_compact && i == second_compact_after) {
      // No kill point is armed for this one; on a dirty disk it may fail
      // (a rotation or tail append hits a fault) and that is tolerated.
      const Status compacted = engine.value()->CompactNow();
      if (!compacted.ok() && !dirty_disk) {
        ChildAbort(data_dir,
                   "child second compaction: " + compacted.ToString());
      }
    }
  }

  ::kill(::getpid(), SIGKILL);
  ::_exit(99);  // unreachable
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
  ReferenceOracle oracle(spec.dims);
  for (std::size_t cell = 0; cell < spec.base_history.size(); ++cell) {
    oracle.SetBaseSeries(cell, spec.base_history[cell]);
  }
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

}  // namespace

void RemoveDirectoryTree(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d != nullptr) {
    while (dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      const std::string path = dir + "/" + name;
      struct stat st;
      if (::lstat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
        RemoveDirectoryTree(path);  // shard-<k> subdirectories
      } else {
        ::unlink(path.c_str());
      }
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

CrashFuzzReport RunCrashFuzz(const CrashFuzzOptions& options) {
  CrashFuzzReport report;
  const std::size_t num_shards = std::max<std::size_t>(1, options.num_shards);
  const bool sharded = num_shards > 1;
  // The sharded child runs complete rounds only (scatter-gather op mix):
  // partial inserts would let one shard's frontier run ahead of the global
  // oracle's and make the verdict stream ambiguous.
  const std::size_t shape =
      static_cast<std::size_t>(options.seed % NumWorkloadShapes());
  const WorkloadSpec spec =
      sharded ? GenerateScatterGatherWorkload(options.seed, shape,
                                              /*inject_refit_failures=*/false)
              : GenerateWorkload(options.seed, shape,
                                 /*inject_refit_failures=*/false);
  const auto fail = [&](const std::string& what) {
    report.ok = false;
    report.failure = "crash seed=" + std::to_string(options.seed) +
                     " shape=" + spec.shape_name +
                     " shards=" + std::to_string(num_shards) + ": " + what;
    if (!options.keep_dir_on_failure) RemoveDirectoryTree(options.data_dir);
    return report;
  };

  if (options.data_dir.empty()) return fail("data_dir must be set");

  const std::vector<InsertAttempt> attempts = FlattenAttempts(spec);
  report.attempts_total = attempts.size();

  // The crash plan, all seed-derived (independent stream from the
  // workload's so changing the plan never changes the workload).
  Rng rng(options.seed ^ 0xC4A5F2DBULL);
  const std::size_t kill_after =
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
  const bool do_compact =
      (kill_after > 0 && rng.NextBernoulli(0.5)) && !options.dirty_disk;
  const char* compact_crash_point =
      kCompactKillPoints[do_compact ? rng.UniformInt(0, 4) : 0];
  const std::size_t compact_after =
      do_compact ? static_cast<std::size_t>(rng.UniformInt(
                       0, static_cast<std::int64_t>(kill_after) - 1))
                 : 0;
  // The second compaction leg: maybe call CompactNow mid-workload with no
  // kill point armed, so the SIGKILL lands after a completed cut (dirty
  // disk included: a faulted compaction must still leave a recoverable
  // directory). It never runs before the first leg, whose kill point must
  // still find closed history to seal ("segment_written" fires only then);
  // at the same attempt the first leg runs first.
  const bool do_second_compact = kill_after > 0 && rng.NextBernoulli(0.5);
  const std::size_t second_compact_after =
      do_second_compact
          ? static_cast<std::size_t>(rng.UniformInt(
                do_compact ? static_cast<std::int64_t>(compact_after) : 0,
                static_cast<std::int64_t>(kill_after) - 1))
          : 0;
  // A compaction rewrites the WAL tail, so "truncate the last record" no
  // longer maps cleanly onto "drop the last accepted insert" — skip the
  // torn-tail leg on compacting iterations.
  const bool want_torn_tail = rng.NextBernoulli(0.4) && !do_compact;
  // With a kill point armed the child dies inside CompactNow, i.e. right
  // after executing attempt `compact_after` — the surviving prefix is
  // shorter than the planned one, and the second leg never runs.
  const bool killed_in_compaction =
      do_compact && compact_crash_point[0] != '\0';
  const std::size_t effective_kill =
      killed_in_compaction ? compact_after + 1 : kill_after;
  report.attempts_executed = effective_kill;
  report.second_compaction_taken = do_second_compact && !killed_in_compaction;
  report.compaction_attempted = do_compact && compact_after < effective_kill;
  report.compaction_crash_point = compact_crash_point;

  RemoveDirectoryTree(options.data_dir);  // stale state from a prior run

  // ---- phase 1: the crashing child --------------------------------------
  const pid_t pid = ::fork();
  if (pid < 0) return fail(std::string("fork(): ") + ::strerror(errno));
  if (pid == 0) {
    if (sharded) {
      RunShardedChild(spec, attempts, kill_after, do_second_compact,
                      second_compact_after, do_compact, compact_after,
                      compact_crash_point, num_shards, options.data_dir,
                      options.dirty_disk, options.seed);
    }
    RunChild(spec, attempts, kill_after, do_second_compact,
             second_compact_after, do_compact, compact_after,
             compact_crash_point, options.data_dir, options.dirty_disk,
             options.seed);
  }
  int wait_status = 0;
  if (::waitpid(pid, &wait_status, 0) != pid) {
    return fail(std::string("waitpid(): ") + ::strerror(errno));
  }
  report.killed_by_sigkill =
      WIFSIGNALED(wait_status) && WTERMSIG(wait_status) == SIGKILL;
  if (!report.killed_by_sigkill) {
    std::string child_error = "child exited without the planned SIGKILL";
    std::ifstream in(ChildErrorPath(options.data_dir));
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
  bool torn_injected = false;
  const bool accepted_after_second_compact =
      !report.second_compaction_taken ||
      AcceptedPrefix(spec, attempts, second_compact_after + 1).size() <
          accepted.size();
  if (want_torn_tail && !accepted.empty() && accepted_after_second_compact) {
    std::string wal_dir = options.data_dir;
    if (sharded) {
      const std::size_t torn_partition = ShardedEngine::PartitionOf(
          CellBaseValues(spec, accepted.back().cell)[0], num_shards);
      wal_dir += "/shard-" + std::to_string(torn_partition);
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
        torn_injected = true;
        accepted.pop_back();
      }
    }
  }
  report.torn_tail_injected = torn_injected;

  if (sharded) {
    // ---- phase 4 (sharded): recover every shard and compare -------------
    // No models were loaded, so the reference is the accepted stream
    // itself, reconciled per shard: shard p applies its j-th round once
    // every one of ITS cells has a j-th accepted value (independent of the
    // global round boundary); later values stay buffered.
    const ReferenceOracle probe(spec.dims);
    const std::size_t num_cells = probe.num_base_cells();
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

    auto recover_graph = BuildWorkloadGraph(spec);
    if (!recover_graph.ok()) {
      return fail("recovery graph: " + recover_graph.status().ToString());
    }
    ShardedEngineOptions sharded_options;
    sharded_options.num_shards = num_shards;
    sharded_options.engine.maintenance_threads = 1;
    sharded_options.engine.reestimate_after_updates = 0;
    sharded_options.engine.data_dir = options.data_dir;
    sharded_options.engine.fsync_policy = FsyncPolicy::kAlways;
    auto engine = ShardedEngine::Open(recover_graph.value(), sharded_options);
    if (!engine.ok()) {
      return fail("sharded recovery open: " + engine.status().ToString());
    }
    const ShardedEngine& recovered = *engine.value();

    const EngineStats total = recovered.stats();
    report.records_replayed = total.wal_records_replayed;
    if ((total.torn_tail_detected != 0) != torn_injected) {
      return fail("torn_tail_detected=" +
                  std::to_string(total.torn_tail_detected) +
                  " but injected=" + std::to_string(torn_injected));
    }
    if (total.inserts != accepted.size()) {
      return fail("recovered inserts=" + std::to_string(total.inserts) +
                  " want " + std::to_string(accepted.size()));
    }

    for (const std::size_t partition : recovered.active_partitions()) {
      const std::vector<std::size_t>& cells = cells_of_partition[partition];
      std::size_t applied_rounds = accepted.size() + 1;
      std::size_t shard_inserts = 0;
      for (const std::size_t cell : cells) {
        applied_rounds =
            std::min(applied_rounds, accepted_values[cell].size());
        shard_inserts += accepted_values[cell].size();
      }
      const std::size_t shard_pending =
          shard_inserts - applied_rounds * cells.size();
      const F2dbEngine* shard = recovered.shard(partition);
      const EngineStats stats = shard->stats();
      const std::string tag = "shard " + std::to_string(partition);
      if (stats.inserts != shard_inserts) {
        return fail(tag + ": recovered inserts=" +
                    std::to_string(stats.inserts) + " want " +
                    std::to_string(shard_inserts));
      }
      if (stats.time_advances != applied_rounds) {
        return fail(tag + ": recovered time_advances=" +
                    std::to_string(stats.time_advances) + " want " +
                    std::to_string(applied_rounds));
      }
      if (shard->pending_inserts() != shard_pending) {
        return fail(tag + ": recovered pending=" +
                    std::to_string(shard->pending_inserts()) + " want " +
                    std::to_string(shard_pending));
      }

      // The recovered base series, value for value: the stored history
      // plus this shard's applied rounds.
      for (const std::size_t cell : cells) {
        const std::vector<std::string> names = CellBaseValues(spec, cell);
        std::vector<DimensionFilter> filters;
        for (std::size_t d = 0; d < spec.dims.size(); ++d) {
          filters.push_back({spec.dims[d].level_names[0], names[d]});
        }
        auto node = shard->ResolveNode(filters);
        if (!node.ok()) {
          return fail(tag + ": resolve cell " + std::to_string(cell) + ": " +
                      node.status().ToString());
        }
        const TimeSeries& series = shard->graph().series(node.value());
        if (series.size() != spec.history_length + applied_rounds) {
          return fail(tag + ": cell " + std::to_string(cell) +
                      " series length=" + std::to_string(series.size()) +
                      " want " +
                      std::to_string(spec.history_length + applied_rounds));
        }
        for (std::size_t j = 0; j < spec.history_length; ++j) {
          if (!ValuesClose(series[j], spec.base_history[cell][j])) {
            return fail(tag + ": cell " + std::to_string(cell) +
                        " history value diverged at t=" + std::to_string(j));
          }
        }
        for (std::size_t j = 0; j < applied_rounds; ++j) {
          if (!ValuesClose(series[spec.history_length + j],
                           accepted_values[cell][j])) {
            return fail(tag + ": cell " + std::to_string(cell) +
                        " applied value diverged at round " +
                        std::to_string(j));
          }
        }
      }
    }
    report.ok = true;
    RemoveDirectoryTree(options.data_dir);
    return report;
  }

  // The reference state the recovered engine must match: a configured
  // oracle fed exactly the surviving accepted inserts.
  auto oracle_graph = BuildWorkloadGraph(spec);
  if (!oracle_graph.ok()) {
    return fail("oracle graph: " + oracle_graph.status().ToString());
  }
  auto config = BuildWorkloadConfiguration(spec, oracle_graph.value());
  if (!config.ok()) return fail("config: " + config.status().ToString());
  ReferenceOracle oracle(spec.dims);
  for (std::size_t cell = 0; cell < spec.base_history.size(); ++cell) {
    oracle.SetBaseSeries(cell, spec.base_history[cell]);
  }
  InstallOracleConfiguration(spec, config.value(), oracle_graph.value(), oracle);
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    if (oracle.Insert(accepted[i].cell, accepted[i].time, accepted[i].value) !=
        OracleInsert::kAccepted) {
      return fail("accepted prefix replay rejected insert " +
                  std::to_string(i));
    }
  }

  // ---- phase 4: recover and compare -------------------------------------
  EngineOptions engine_options;
  engine_options.maintenance_threads = 1;
  engine_options.reestimate_after_updates = 0;
  engine_options.data_dir = options.data_dir;
  engine_options.fsync_policy = FsyncPolicy::kAlways;
  auto recover_graph = BuildWorkloadGraph(spec);
  if (!recover_graph.ok()) {
    return fail("recovery graph: " + recover_graph.status().ToString());
  }
  auto engine = F2dbEngine::Open(std::move(recover_graph.value()), engine_options);
  if (!engine.ok()) return fail("recovery open: " + engine.status().ToString());

  const EngineStats stats = engine.value()->stats();
  report.records_replayed = stats.wal_records_replayed;
  if ((stats.torn_tail_detected != 0) != torn_injected) {
    return fail("torn_tail_detected=" +
                std::to_string(stats.torn_tail_detected) + " but injected=" +
                std::to_string(torn_injected));
  }
  if (stats.inserts != accepted.size()) {
    return fail("recovered inserts=" + std::to_string(stats.inserts) +
                " want " + std::to_string(accepted.size()));
  }
  if (stats.time_advances != oracle.advances()) {
    return fail("recovered time_advances=" +
                std::to_string(stats.time_advances) + " want " +
                std::to_string(oracle.advances()));
  }
  if (engine.value()->pending_inserts() != oracle.pending_inserts()) {
    return fail("recovered pending=" +
                std::to_string(engine.value()->pending_inserts()) + " want " +
                std::to_string(oracle.pending_inserts()));
  }

  for (const OracleAddress& address : oracle.AllAddresses()) {
    const auto want = oracle.Forecast(address, kForecastHorizon);
    if (!want.has_value()) continue;  // engine reports the same error status
    auto node = engine.value()->graph().NodeFor(ToNodeAddress(address));
    if (!node.ok()) return fail("node of " + address.Key());
    const auto got = engine.value()->ForecastNode(node.value(), kForecastHorizon);
    if (!got.ok()) {
      return fail("forecast " + address.Key() + ": " + got.status().ToString());
    }
    if (got.value().size() != want->size()) {
      return fail("forecast " + address.Key() + ": row count mismatch");
    }
    for (std::size_t h = 0; h < want->size(); ++h) {
      if (!ValuesClose(got.value()[h], (*want)[h])) {
        return fail("forecast " + address.Key() + " h=" + std::to_string(h) +
                    ": engine=" + std::to_string(got.value()[h]) +
                    " oracle=" + std::to_string((*want)[h]));
      }
    }
  }

  report.ok = true;
  RemoveDirectoryTree(options.data_dir);
  return report;
}

}  // namespace f2db::testing
