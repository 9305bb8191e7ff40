// Crash recovery: durable-cut load + WAL tail replay (DESIGN.md §10,
// §13).
//
// RunRecovery() owns the file-level recovery protocol so the engine only
// has to say how state is applied:
//   1. create the data directory on first use;
//   2. load the segment manifest — the one durable cut, written by
//      compaction — if it exists (an unreadable manifest falls back to a
//      full WAL replay, because WAL epochs are only deleted after a
//      manifest commit);
//   3. restore history by decoding the sealed segment chain the manifest
//      names (bulk load, no per-record replay); when the chain fails
//      validation, fall back to a full WAL replay from epoch 1;
//   4. delete WAL segments older than the manifest's epoch (redundant
//      segments whose deletion a previous crash interrupted);
//   5. replay every remaining WAL segment in epoch order, tolerating
//      exactly one torn record at the tail of the NEWEST segment (the
//      write a crash interrupted); a tear anywhere else — or a missing
//      epoch — means lost history and fails recovery loudly;
//   6. report where appends must continue (segment epoch + the byte
//      offset the torn tail was truncated to).
//
// The callbacks apply state mutations; RunRecovery never touches engine
// internals directly, which keeps the protocol testable against plain
// in-memory accumulators (see tests/integration/recovery_test.cc).

#ifndef F2DB_ENGINE_RECOVERY_H_
#define F2DB_ENGINE_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/wal.h"
#include "storage/manifest.h"
#include "storage/segment.h"

namespace f2db {

/// How the recovered state is applied (all optional; an unset callback
/// skips that phase, which the dry-run inspection tools use).
/// apply_segments is called at most once, before any WAL record.
struct RecoveryCallbacks {
  /// Installs history decoded from the sealed segment chain. The chain is
  /// already CRC-verified and validated against the manifest (contiguous,
  /// ascending, consistent node sets).
  std::function<Status(const storage::ManifestData&,
                       std::vector<storage::SegmentData>&&)>
      apply_segments;
  /// Applies one replayed WAL record, in log order.
  std::function<Status(const WalRecord&)> apply_record;
};

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

/// Runs the recovery protocol over `data_dir` (created when missing).
Result<RecoveryInfo> RunRecovery(const std::string& data_dir,
                                 const RecoveryCallbacks& callbacks);

}  // namespace f2db

#endif  // F2DB_ENGINE_RECOVERY_H_
