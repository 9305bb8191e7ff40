// Disk-health state machine: classifies durability-I/O failures and drives
// the read-only brownout (DESIGN.md §15).
//
// Every durable engine owns one DiskHealth. Failure statuses that carry an
// fsio errno marker (storage::ErrnoFromStatus) are classified — ENOSPC vs
// EIO vs other — and counted; a streak of consecutive failures crossing
// the configured threshold transitions the engine to READ-ONLY: queries
// keep serving from COW snapshots (annotated through the degradation
// ladder), INSERTs are rejected with kUnavailable and a retry-after-ms
// hint, and the compaction and scrub tasks park. The engine's background
// probe task re-tests the device and calls ExitReadOnly when a durable
// write succeeds again, so the engine heals without a restart.
//
//     OK ──failure──▶ DEGRADED ──streak ≥ threshold──▶ READ_ONLY
//      ▲                 │                                │
//      └───success───────┘          probe success─────────┘
//
// Thread safety: the state machine is mutex-guarded; state() / read_only()
// are lock-free atomic loads (they sit on the insert and query hot paths).

#ifndef F2DB_ENGINE_DISK_HEALTH_H_
#define F2DB_ENGINE_DISK_HEALTH_H_

#include <atomic>
#include <cstddef>
#include <mutex>

namespace f2db {

/// Exported as the f2db_disk_health gauge: 0 ok, 1 degraded, 2 read-only.
enum class DiskHealthState { kOk = 0, kDegraded = 1, kReadOnly = 2 };

/// Stable display name ("ok", "degraded", "read_only").
const char* DiskHealthStateName(DiskHealthState state);

/// Value snapshot of the tracker's counters (folded into EngineStats).
struct DiskHealthCounters {
  /// In-line retries of a failed durable operation (before giving up).
  std::size_t io_retries = 0;
  /// Classified durability-I/O failures, by errno family.
  std::size_t io_failures_eio = 0;
  std::size_t io_failures_enospc = 0;
  std::size_t io_failures_other = 0;
  /// Read-only episodes entered / exited. entries - exits == 1 while
  /// read-only, 0 otherwise — the accounting the differential wall closes.
  std::size_t read_only_entries = 0;
  std::size_t read_only_exits = 0;
};

class DiskHealth {
 public:
  /// `failure_threshold`: consecutive classified failures before the
  /// read-only transition (>= 1; 0 is clamped to 1).
  explicit DiskHealth(std::size_t failure_threshold);

  DiskHealth(const DiskHealth&) = delete;
  DiskHealth& operator=(const DiskHealth&) = delete;

  /// Records one classified durability failure (`err` from
  /// storage::ErrnoFromStatus; callers skip statuses without a marker).
  /// Returns the state after the transition.
  DiskHealthState RecordFailure(int err);

  /// Records a successful durable operation: ends a failure streak and
  /// returns a DEGRADED engine to OK. Deliberately does NOT exit
  /// read-only — only the probe (ExitReadOnly) does, so exit accounting
  /// has exactly one writer.
  void RecordSuccess();

  /// Counts one in-line retry of a failed durable operation.
  void RecordRetry();

  /// Forces the read-only transition (the scrubber uses this when sealed
  /// history is corrupt and no longer reconstructible from memory).
  /// Returns true when this call performed the transition.
  bool EnterReadOnly();

  /// Probe success: leaves read-only, resets the streak and the emergency
  /// retention token. Returns true when this call performed the
  /// transition.
  bool ExitReadOnly();

  /// One-shot ENOSPC emergency-retention token: true at most once per
  /// failure episode (re-armed by RecordSuccess / ExitReadOnly), so a
  /// full disk triggers exactly one CompactNow retention pass before the
  /// engine declares read-only.
  bool TakeEmergencyRetentionToken();

  /// Lock-free state reads (insert and query hot paths).
  DiskHealthState state() const {
    return static_cast<DiskHealthState>(
        state_.load(std::memory_order_relaxed));
  }
  bool read_only() const { return state() == DiskHealthState::kReadOnly; }

  DiskHealthCounters counters() const;

 private:
  const std::size_t threshold_;
  /// Published copy of the state for lock-free readers.
  std::atomic<int> state_{0};

  mutable std::mutex mutex_;
  std::size_t consecutive_failures_ = 0;  ///< guarded by mutex_
  bool retention_token_used_ = false;     ///< guarded by mutex_
  DiskHealthCounters counters_;           ///< guarded by mutex_
};

}  // namespace f2db

#endif  // F2DB_ENGINE_DISK_HEALTH_H_
