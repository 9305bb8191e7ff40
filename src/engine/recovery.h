// Crash recovery: durable-cut load + WAL tail replay (DESIGN.md §10,
// §13).
//
// RunRecovery() owns the file-level recovery protocol; the engine's
// DurableState says how state is applied:
//   1. create the data directory on first use;
//   2. load the segment manifest — the one durable cut, written by
//      compaction — if it exists (an unreadable manifest falls back to a
//      full WAL replay, because WAL epochs are only deleted after a
//      manifest commit);
//   3. restore history by decoding the sealed segment chain the manifest
//      names and handing it to DurableState::ApplySegmentState (bulk
//      load, no per-record replay); when the chain fails validation, fall
//      back to a full WAL replay from epoch 1;
//   4. delete WAL segments older than the manifest's epoch (redundant
//      segments whose deletion a previous crash interrupted);
//   5. replay every remaining WAL segment in epoch order through
//      DurableState::ApplyWalRecord, tolerating
//      exactly one torn record at the tail of the NEWEST segment (the
//      write a crash interrupted); a tear anywhere else — or a missing
//      epoch — means lost history and fails recovery loudly;
//   6. report where appends must continue (segment epoch + the byte
//      offset the torn tail was truncated to).
//
// RunRecovery reaches the engine only through those two DurableState
// calls; DurableLog::Open runs it and then calls EndRecovery.

#ifndef F2DB_ENGINE_RECOVERY_H_
#define F2DB_ENGINE_RECOVERY_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace f2db {

class DurableState;  // engine/durable_log.h

/// What recovery found — the source of the engine's recovery counters.
struct RecoveryInfo {
  std::uint64_t records_replayed = 0;
  /// A torn final record was detected (and truncated away on reopen).
  bool torn_tail_detected = false;
  /// Wall-clock seconds spent in recovery (exported as
  /// f2db_recovery_duration_ms).
  double recovery_seconds = 0.0;

  /// Sealed segments decoded into state (0 when no valid manifest and
  /// chain survived), and the observations they restored (summed over
  /// base series).
  std::uint64_t segments_loaded = 0;
  std::uint64_t segment_records_loaded = 0;
  /// A manifest existed but was unreadable or its chain failed
  /// validation, so recovery fell back to a full WAL replay (the
  /// half-written-segment crash tolerance).
  bool segment_fallback = false;

  /// Segment appends continue on. When `create_segment` is true the
  /// segment does not exist yet (fresh directory); otherwise reopen it
  /// truncated to `append_valid_bytes`.
  std::uint64_t append_epoch = 1;
  std::uint64_t append_valid_bytes = 0;
  bool create_segment = true;
};

/// Runs the recovery protocol over `data_dir` (created when missing),
/// applying what it recovers to `state`: the sealed segment chain (already
/// CRC-verified and validated against the manifest) at most once, then
/// every replayed WAL record in log order.
Result<RecoveryInfo> RunRecovery(const std::string& data_dir,
                                 DurableState& state);

}  // namespace f2db

#endif  // F2DB_ENGINE_RECOVERY_H_
