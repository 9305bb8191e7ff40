// Checkpoints: atomic snapshots of the durable engine state (DESIGN.md §10).
//
// A checkpoint captures everything recovery needs to rebuild an
// EngineSnapshot without replaying history from the beginning of time: the
// base fact series (aggregates are recomputed), the stored derivation
// schemes, every published model (serialized parameters + state plus the
// invalidation/quarantine bookkeeping), the buffered-but-unapplied insert
// batches, and the maintenance counters at the cut. It also records the
// WAL epoch from which replay must continue — the engine rotates the WAL
// to a fresh epoch at the instant the snapshot is pinned, so
// (checkpoint, segments >= epoch) is always a consistent pair.
//
// Atomicity comes from the classic tmp + fsync + rename + dir-fsync dance:
// readers only ever observe either the previous complete checkpoint or the
// new complete one, never a partial write. A CRC32C trailer over the whole
// body makes silent corruption (bit rot, torn sector despite the rename)
// fail loudly at load time, and a leading version byte makes format drift
// fail loudly instead of misparsing (the golden-file tests pin the bytes).

#ifndef F2DB_ENGINE_CHECKPOINT_H_
#define F2DB_ENGINE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/status.h"

namespace f2db {

/// On-disk checkpoint format version; bumped on any layout change.
inline constexpr std::uint8_t kCheckpointFormatVersion = 1;

/// One published model inside a checkpoint.
struct CheckpointModel {
  std::uint32_t node = 0;
  bool invalid = false;
  std::uint64_t updates_since_estimate = 0;
  std::uint64_t refit_failures = 0;
  bool quarantined = false;
  double creation_seconds = 0.0;
  /// ModelFactory::SerializeModel text (single line, no spaces).
  std::string payload;
};

/// The complete durable state at one cut.
struct CheckpointState {
  /// Replay WAL segments with epoch >= this value on top of the snapshot.
  std::uint64_t wal_epoch = 1;

  // Maintenance counters at the cut, restored so post-recovery stats are
  // continuous with the pre-crash process.
  std::uint64_t inserts = 0;
  std::uint64_t time_advances = 0;
  std::uint64_t reestimates = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t refit_failures = 0;

  /// Start time shared by every base series.
  std::int64_t base_start_time = 0;
  /// Full history per base node (node id, values). Aggregated series are
  /// rebuilt bottom-up on load — same summation order as the live engine.
  std::vector<std::pair<std::uint32_t, std::vector<double>>> base_series;
  /// schemes[i] = (target, sources); uncovered nodes are omitted.
  std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> schemes;
  std::vector<CheckpointModel> models;
  /// Buffered inserts that had not completed a period: (time, slot, value).
  std::vector<std::tuple<std::int64_t, std::uint64_t, double>> pending;
};

/// "<dir>/checkpoint.f2db" — the one live checkpoint of a data directory.
std::string CheckpointPath(const std::string& dir);

/// Renders the checkpoint body (header, sections, CRC trailer) — exposed
/// for the golden-file format tests. Fully deterministic: equal states
/// render byte-identical text.
std::string SerializeCheckpoint(const CheckpointState& state);

/// Parses text produced by SerializeCheckpoint, verifying the version byte
/// and the CRC trailer.
Result<CheckpointState> ParseCheckpoint(const std::string& text);

/// Writes `state` to `dir` atomically (tmp + fsync + rename + dir fsync).
/// On any failure the tmp file is removed and the previous checkpoint is
/// untouched.
Status WriteCheckpoint(const std::string& dir, const CheckpointState& state);

/// Loads the checkpoint of `dir`. kNotFound when none exists (fresh data
/// directory); kInternal when one exists but fails validation — recovery
/// must refuse to serve rather than start from silently wrong state.
Result<CheckpointState> LoadCheckpoint(const std::string& dir);

}  // namespace f2db

#endif  // F2DB_ENGINE_CHECKPOINT_H_
