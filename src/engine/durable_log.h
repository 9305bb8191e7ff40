// The durable log of one engine (DESIGN.md §10, §13, §15): the WAL, the
// sealed-segment store, disk health, the durable cut (compaction and
// retention), the integrity scrub, the read-only health probe and the one
// background thread that paces them.
//
// The engine above it is the query and maintenance layers of DESIGN.md §5.
// It sees the log through four verbs:
//   - Open recovers the data directory into the engine (segment chain,
//     then the WAL tail), then resumes logging;
//   - Append logs records, under the engine's writer lock, before the
//     state they describe is published (Mutate wraps a whole durable
//     mutation in the disk-fault policy: retry, emergency retention,
//     read-only);
//   - CompactNow takes the durable cut;
//   - ScrubOnce re-verifies what the cuts sealed.
// The log in turn calls back through DurableState, six calls the engine
// implements privately. No WAL epoch, file, manifest, segment, retention
// window, scrub pace, probe sentinel or retry policy is visible above it.
//
// Lock order: the log's compaction serial mutex, then the engine's writer
// mutex (taken inside DurableState::CaptureCut and DropHistoryBefore).
// Appends run under the writer mutex alone.

#ifndef F2DB_ENGINE_DURABLE_LOG_H_
#define F2DB_ENGINE_DURABLE_LOG_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "cube/graph.h"
#include "engine/disk_health.h"
#include "engine/recovery.h"
#include "engine/stats_export.h"
#include "engine/wal.h"
#include "storage/store.h"

namespace f2db {

struct EngineOptions;  // engine.h
struct EngineStats;    // engine.h

/// The durable log's series of F2DB_ENGINE_METRICS, in exposition order
/// (the row format is described in engine/stats_export.h). READ
/// expressions run inside DurableLog::StatsInto, where `disk` is the
/// disk-health counters read once under their lock. An in-memory engine
/// has no log and reports every series at its default.
#define F2DB_DURABLE_LOG_METRICS(METRIC, FAMILY, SAMPLE)                     \
  METRIC(wal_records_appended, std::size_t, OWNED, counter,                  \
         "f2db_wal_records_appended_total",                                  \
         "WAL records appended by this process.", kSum)                      \
  METRIC(wal_bytes, std::size_t, OWNED, counter, "f2db_wal_bytes_total",     \
         "WAL bytes appended by this process.", kSum)                        \
  METRIC(wal_records_replayed, std::size_t, READ(recovery_.records_replayed),\
         counter, "f2db_wal_records_replayed_total",                         \
         "WAL records replayed by recovery at open.", kSum)                  \
  METRIC(torn_tail_detected, std::size_t,                                    \
         READ(recovery_.torn_tail_detected), gauge, "f2db_torn_tail_detected",\
         "1 when recovery truncated a torn final WAL record.", kMax)         \
  METRIC(recovery_duration_ms, double,                                       \
         READ(recovery_.recovery_seconds * 1e3), gauge,                      \
         "f2db_recovery_duration_ms",                                        \
         "Milliseconds recovery took when the engine opened.", kMax)         \
  METRIC(last_compaction_age_seconds, double,                                \
         READ(LastCompactionAgeSeconds()), gauge,                            \
         "f2db_last_compaction_age_seconds",                                 \
         "Seconds since the last completed compaction (the durable cut); "   \
         "-1 when none completed yet.",                                      \
         kStalest)                                                           \
  METRIC(segments_sealed, std::size_t, OWNED, counter,                       \
         "f2db_segments_sealed_total",                                       \
         "Sealed segments written by this process.", kSum)                   \
  METRIC(segment_records_sealed, std::size_t, OWNED, counter,                \
         "f2db_segment_records_sealed_total",                                \
         "Observations sealed into segments by this process.", kSum)         \
  METRIC(segments_live, std::size_t, READ(store_->live_segments()), gauge,   \
         "f2db_segments_live",                                               \
         "Sealed segments the current manifest references.", kSum)           \
  METRIC(segment_live_bytes, std::size_t, READ(store_->live_bytes()), gauge, \
         "f2db_segment_live_bytes",                                          \
         "On-disk bytes of the live sealed-segment chain.", kSum)            \
  METRIC(compactions_completed, std::size_t, OWNED, counter,                 \
         "f2db_compactions_completed_total",                                 \
         "Compactions that committed their manifest.", kSum)                 \
  METRIC(compaction_failures, std::size_t, OWNED, counter,                   \
         "f2db_compaction_failures_total",                                   \
         "Compaction attempts that failed.", kSum)                           \
  METRIC(retention_segments_deleted, std::size_t, OWNED, counter,            \
         "f2db_retention_segments_deleted_total",                            \
         "Sealed segments deleted by retention.", kSum)                      \
  METRIC(retention_records_dropped, std::size_t, OWNED, counter,             \
         "f2db_retention_records_dropped_total",                             \
         "Observations dropped by retention.", kSum)                         \
  METRIC(segment_records_recovered, std::size_t,                             \
         READ(recovery_.segment_records_loaded), counter,                    \
         "f2db_segment_records_recovered_total",                             \
         "Observations restored from sealed segments at open.", kSum)        \
  METRIC(disk_health, std::size_t, READ(health_.state()), gauge,             \
         "f2db_disk_health",                                                 \
         "Disk-health state: 0 ok, 1 degraded, 2 read-only (worst shard in " \
         "sharded expositions).",                                            \
         kMax)                                                               \
  METRIC(io_retries, std::size_t, READ(disk.io_retries), counter,            \
         "f2db_io_retries_total",                                            \
         "In-line retries of failed durability I/O.", kSum)                  \
  METRIC(read_only_entries, std::size_t, READ(disk.read_only_entries),       \
         counter, "f2db_read_only_entries_total",                            \
         "Read-only brownout episodes entered.", kSum)                       \
  METRIC(read_only_exits, std::size_t, READ(disk.read_only_exits), counter,  \
         "f2db_read_only_exits_total",                                       \
         "Read-only brownout episodes exited via the health probe.", kSum)   \
  METRIC(emergency_retentions, std::size_t, OWNED, counter,                  \
         "f2db_emergency_retentions_total",                                  \
         "Emergency retention passes spent on ENOSPC before read-only.",     \
         kSum)                                                               \
  METRIC(scrub_cycles, std::size_t, OWNED, counter, "f2db_scrub_cycles_total",\
         "Completed integrity-scrub passes.", kSum)                          \
  METRIC(scrub_bytes, std::size_t, OWNED, counter, "f2db_scrub_bytes_total", \
         "Bytes re-read and CRC-verified by the scrubber.", kSum)            \
  METRIC(scrub_corruptions, std::size_t, OWNED, counter,                     \
         "f2db_scrub_corruptions_total",                                     \
         "Corrupt durable artifacts detected by the scrubber.", kSum)        \
  METRIC(scrub_reseals, std::size_t, OWNED, counter,                         \
         "f2db_scrub_reseals_total",                                         \
         "Reseal compactions triggered by scrub-detected corruption.", kSum) \
  FAMILY(counter, "f2db_io_failures_total",                                  \
         "Classified durability-I/O failures per errno family.", "err")      \
  SAMPLE(io_failures_eio, std::size_t, READ(disk.io_failures_eio), "eio",    \
         kSum)                                                               \
  SAMPLE(io_failures_enospc, std::size_t, READ(disk.io_failures_enospc),     \
         "enospc", kSum)                                                     \
  SAMPLE(io_failures_other, std::size_t, READ(disk.io_failures_other),       \
         "other", kSum)

/// Outcome of one full scrub pass (F2dbEngine::ScrubOnce).
struct ScrubReport {
  /// Sealed segments whose CRCs were re-verified this pass.
  std::size_t segments_verified = 0;
  /// Bytes read and verified (segments + manifest).
  std::uint64_t bytes_verified = 0;
  /// Corrupt artifacts detected this pass.
  std::size_t corruptions = 0;
  /// A reseal compaction was triggered (corrupt segment, history still in
  /// memory).
  bool resealed = false;
  /// Corruption forced the read-only transition (history no longer
  /// reconstructible from memory).
  bool entered_read_only = false;
};

/// The calls the durable log makes back into the engine it serves.
class DurableState {
 public:
  using Manifest = storage::ManifestData;
  using SegmentChain = std::vector<storage::SegmentData>;

  /// What the engine hands the log at a durable cut (CaptureCut).
  struct Cut {
    /// The live tail rewritten at the head of the fresh WAL epoch: the
    /// configuration, one kBookkeeping record per model not at its
    /// defaults, then the pending inserts.
    std::vector<WalRecord> tail;
    /// The history the cut seals: every period before the frontier.
    std::shared_ptr<const TimeSeriesGraph> graph;
    /// Maintenance counters at the cut, the pending inserts excluded (the
    /// tail's replay adds them back).
    std::uint64_t inserts = 0;
    std::uint64_t time_advances = 0;
    std::uint64_t reestimates = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t refit_failures = 0;
  };

  /// Recovery: installs the history of the sealed segment chain, the
  /// manifest's retention offsets and its counters. Called at most once,
  /// before any WAL record.
  virtual Status ApplySegmentState(const Manifest& manifest,
                                   SegmentChain&& chain) = 0;
  /// Recovery: re-applies one replayed WAL record, in log order.
  virtual Status ApplyWalRecord(const WalRecord& record) = 0;
  /// Recovery is over: publishes whatever the replay left unpublished.
  virtual void EndRecovery() = 0;
  /// Under the writer lock: fills *cut with the tail, the snapshot's graph
  /// and the counters, then runs `write` before any other mutation can be
  /// logged, and returns its status.
  virtual Status CaptureCut(Cut* cut, const std::function<Status()>& write) = 0;
  /// Retention's in-memory half: forgets every series' history before
  /// `tick` (history sums are kept).
  virtual Status DropHistoryBefore(std::int64_t tick) = 0;
  /// Whether the in-memory history still reaches back to `tick`.
  virtual bool HistoryReaches(std::int64_t tick) const = 0;

 protected:
  ~DurableState() = default;
};

/// The durable log of one engine opened over options.data_dir.
class DurableLog {
 public:
  /// Recovers options.data_dir into `state`, resumes the WAL, opens the
  /// segment store and starts the background thread when any cadence
  /// (compaction, probe, scrub) is positive. `options` and `state` must
  /// outlive the log.
  static Result<std::unique_ptr<DurableLog>> Open(const EngineOptions& options,
                                                  DurableState& state);

  /// Stops the background thread and closes the WAL (final fsync unless
  /// the policy is kNone).
  ~DurableLog();

  DurableLog(const DurableLog&) = delete;
  DurableLog& operator=(const DurableLog&) = delete;

  /// Appends records, all or none (WalWriter::AppendAll), and counts them.
  /// Caller holds the engine's writer lock.
  Status Append(std::span<const WalRecord> records);
  Status Append(const WalRecord& record) { return Append({&record, 1}); }

  /// Runs `attempt`, one durable mutation that takes the writer lock and
  /// appends before it mutates, under the disk-fault policy (DESIGN.md
  /// §15): rejected at once while read-only; an I/O failure is retried
  /// with linear backoff, ENOSPC spends the one emergency retention pass,
  /// and a failure streak crossing the threshold turns the log read-only.
  /// Other failures pass through untouched.
  template <typename Attempt>
  Status Mutate(Attempt&& attempt);

  /// The durable cut; see F2dbEngine::CompactNow.
  Status CompactNow();

  /// One full scrub pass; see F2dbEngine::ScrubOnce.
  Status ScrubOnce(ScrubReport* report);

  DiskHealthState health() const { return health_.state(); }
  bool read_only() const { return health_.read_only(); }

  /// Copies the F2DB_DURABLE_LOG_METRICS series into `out`.
  void StatsInto(EngineStats& out) const;

 private:
  struct StatsCounters {
    F2DB_DURABLE_LOG_METRICS(F2DB_METRIC_SLOT_ROW, F2DB_METRIC_SWALLOW,
                             F2DB_METRIC_SLOT_ROW)
  };
  /// A scrub pass in progress: the cursor of ScrubStep.
  struct ScrubPass;

  DurableLog(const EngineOptions& options, DurableState& state);

  /// Decides what follows a failed attempt of Mutate (the `tries`-th):
  /// true to run it again; false to return `status`, which a crossing into
  /// read-only has replaced with the rejection.
  bool RetryAfter(Status& status, std::size_t tries);

  /// The kUnavailable status a read-only log answers mutations with. Its
  /// message leads with "retry-after-ms=<n>; " — the same hint format the
  /// rate limiter uses — so clients reuse ParseRetryAfterMs unchanged.
  Status ReadOnlyRejection() const;

  /// Phase A of a cut, under the writer lock: rotates the WAL to a fresh
  /// epoch and writes `tail` at its head, durably.
  Status RotateLocked(std::span<const WalRecord> tail);

  /// Verifies the next file of `pass` (the manifest last) as ScrubOnce
  /// describes; the manifest or a corruption finishes the pass.
  Status ScrubStep(ScrubPass& pass);

  /// Body of the background thread: compaction, the read-only health
  /// probe and scrub steps, each on its own cadence (DESIGN.md §15).
  void BackgroundLoop();

  /// The one interruptible wait of the background work: sleeps until
  /// `deadline` and returns false, at once, when the log is stopping.
  bool WaitUntil(std::chrono::steady_clock::time_point deadline);

  /// Seconds since the last completed compaction; -1 when none completed.
  double LastCompactionAgeSeconds() const;

  const EngineOptions& options_;
  DurableState& state_;
  StatsCounters stats_;

  /// Disk-health state machine. Internally synchronized; state reads are
  /// lock-free (insert and query hot paths).
  DiskHealth health_;
  /// Clock of last_compaction_seconds_.
  const StopWatch uptime_;

  /// Recovery facts, written once inside Open() before any thread.
  RecoveryInfo recovery_;

  /// The WAL of the current epoch, rotated by each cut. Guarded by the
  /// engine's writer lock.
  WalWriter wal_;

  /// The sealed-segment store. Internally synchronized; compactions
  /// themselves are serialized by compaction_serial_mutex_.
  std::unique_ptr<storage::SegmentStore> store_;

  /// Serializes whole compactions against each other (the background
  /// thread vs. an explicit CompactNow vs. the shutdown path vs. a scrub
  /// reseal), so no compaction observes the state between another's
  /// retention manifest commit and the matching in-memory
  /// DropHistoryBefore. Always acquired BEFORE the engine's writer lock.
  std::mutex compaction_serial_mutex_;

  /// Recovery fell back to a full WAL replay because the on-disk sealed
  /// chain failed validation. The next compaction must reseal the chain
  /// from the in-memory history instead of extending the invalid one —
  /// extending would commit a higher-epoch manifest and truncate the very
  /// WAL epochs the fallback still needs. Written once inside Open();
  /// afterwards set by the scrubber (quarantined segment) and read/cleared
  /// by CompactNow, all under compaction_serial_mutex_.
  bool reseal_segments_ = false;

  /// uptime_-relative stamp of the last completed compaction; negative
  /// when none completed yet.
  std::atomic<double> last_compaction_seconds_{-1.0};

  // ---- the background thread (compaction, probe, scrub) ----
  std::mutex background_mutex_;
  std::condition_variable background_cv_;
  bool stopping_ = false;  ///< guarded by background_mutex_
  std::thread background_thread_;
};

template <typename Attempt>
Status DurableLog::Mutate(Attempt&& attempt) {
  if (read_only()) return ReadOnlyRejection();
  Status status = attempt();
  for (std::size_t tries = 1; !status.ok() && RetryAfter(status, tries);
       ++tries) {
    status = attempt();
  }
  if (status.ok()) health_.RecordSuccess();
  return status;
}

}  // namespace f2db

#endif  // F2DB_ENGINE_DURABLE_LOG_H_
