// Crash fuzzing: kill -9 a durable engine mid-workload, recover, compare.
//
// One RunCrashFuzz() iteration is a differential crash test driven entirely
// by a 64-bit seed:
//   1. generate a workload (the differential harness's seeded generator)
//      and flatten its maintenance ops into an insert-attempt list;
//   2. fork() a child that opens a durable engine (fsync=always) over a
//      fresh data directory, loads the configuration (logged as a WAL
//      kCatalog record), executes a seed-chosen prefix of the attempts —
//      optionally compacting mid-workload, once to completion and once
//      with a SIGKILL inside a seed-chosen protocol stage — and then
//      SIGKILLs itself: no destructors, no flushes, exactly what a power
//      cut leaves;
//   3. optionally tear the WAL tail: truncate a seed-chosen number of
//      bytes off the final record (only when that record is an insert, so
//      the expected surviving prefix stays well-defined);
//   4. reopen the engine in the parent — segment load + WAL replay —
//      and compare against a ReferenceOracle replaying the accepted-insert
//      prefix (minus the torn record): forecasts at every address within
//      the differential tolerances, plus exact agreement on the time
//      frontier, advance count, pending-insert count, and insert counter.
//
// The child disables re-estimation so the WAL holds only kCatalog +
// kInsert records (plus the bookkeeping a compaction's tail rewrites) and
// replay is exactly reproducible by the oracle; the model-install and
// quarantine record kinds and the effect of bookkeeping on lazy
// re-estimation are covered by the recovery integration tests, where
// their effect is directly assertable.
//
// With num_shards > 1 the iteration crashes a ShardedEngine instead: a
// scatter-gather workload (complete insert rounds only, so shard and
// global frontiers stay reconcilable), NO configuration (every per-shard
// WAL holds only kInsert records), per-shard directories under the data
// dir, and the torn tail lands on the WAL of the shard that owns the last
// accepted insert — one shard recovers through truncation while its
// siblings replay intact. Recovery then checks every shard independently:
// per-shard insert/advance/pending counters derived from the accepted
// prefix, and the recovered base series values cell by cell.
//
// fork() requires a single-threaded caller (the child inherits only the
// calling thread); run iterations before starting servers or pools.

#ifndef F2DB_TESTING_CRASH_H_
#define F2DB_TESTING_CRASH_H_

#include <cstdint>
#include <string>

namespace f2db::testing {

struct CrashFuzzOptions {
  /// Drives everything: workload, kill point, compaction points, torn-tail
  /// choice and length.
  std::uint64_t seed = 0;
  /// Scratch directory for this iteration's WAL + segments; removed and
  /// recreated at the start, removed again on success.
  std::string data_dir;
  /// Keep the data directory on failure (replay/debugging).
  bool keep_dir_on_failure = true;
  /// 1 crashes a single durable F2dbEngine (the original mode). > 1
  /// crashes a ShardedEngine with this many partitions: per-shard WAL
  /// directories, a scatter-gather workload, no configuration, and the
  /// torn tail injected into the shard owning the last accepted insert.
  std::size_t num_shards = 1;
  /// Dirty-disk composition: the child arms seeded probabilistic I/O
  /// faults (short WAL writes, fsync EIO) over the whole insert window and
  /// absorbs them with a deep in-line retry budget, so the accepted-insert
  /// accounting stays exact while every fault exercises the append
  /// rollback path — and the SIGKILL lands amid that churn. Failures of
  /// the second (kill-point-free) compaction are tolerated (its rotation
  /// or tail rewrite may hit a fault); the kill-point compaction leg is
  /// skipped because its accounting assumes compactions reach their hooks.
  bool dirty_disk = false;
};

struct CrashFuzzReport {
  bool ok = false;
  /// First divergence, prefixed with the seed for replay.
  std::string failure;

  // What the iteration exercised (for coverage accounting in tests).
  std::size_t attempts_total = 0;     ///< flattened insert attempts in spec
  std::size_t attempts_executed = 0;  ///< attempts before the kill
  std::size_t inserts_accepted = 0;   ///< accepted pre-crash (incl. torn)
  bool killed_by_sigkill = false;
  /// The second, kill-point-free compaction ran before the kill.
  bool second_compaction_taken = false;
  bool torn_tail_injected = false;
  /// A mid-workload compaction was attempted; `compaction_crash_point` is
  /// the storage hook the SIGKILL landed on ("" when the compaction was
  /// allowed to complete).
  bool compaction_attempted = false;
  std::string compaction_crash_point;
  std::size_t records_replayed = 0;   ///< engine recovery counter
};

/// Runs one seeded crash-recovery iteration (see file comment).
CrashFuzzReport RunCrashFuzz(const CrashFuzzOptions& options);

/// Removes `dir` recursively (files and subdirectories — a sharded data
/// dir nests shard-<k> directories). Shared by the fuzzer and the
/// durability tests' scratch-dir handling.
void RemoveDirectoryTree(const std::string& dir);

}  // namespace f2db::testing

#endif  // F2DB_TESTING_CRASH_H_
