#include "engine/recovery.h"

#include <errno.h>
#include <string.h>
#include <unistd.h>

#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "storage/fsio.h"
#include "storage/store.h"

namespace f2db {
namespace {

/// The durable cut older versions wrote besides the manifest; never read,
/// only named when history is missing.
constexpr const char* kLegacyCheckpointFile = "checkpoint.f2db";

bool HasLegacyCheckpoint(const std::string& data_dir) {
  return ::access((data_dir + "/" + kLegacyCheckpointFile).c_str(), F_OK) ==
         0;
}

/// The lost-history error. A directory whose newest durable cut is a
/// legacy checkpoint lands here (its WAL starts past the epoch replay
/// needs), so the message names the file when it is present.
Status MissingHistory(const std::string& data_dir, std::string message) {
  if (HasLegacyCheckpoint(data_dir)) {
    message += std::string("; ") + kLegacyCheckpointFile +
               " is present: it was written by an older version, which this "
               "version no longer reads — open the directory with that "
               "version and compact it first";
  }
  return Status::Internal(message);
}

}  // namespace

Result<RecoveryInfo> RunRecovery(const std::string& data_dir,
                                 const RecoveryCallbacks& callbacks) {
  const StopWatch watch;
  RecoveryInfo info;

  // Parent directories must already exist — a data directory is
  // configured explicitly, not discovered.
  Status status = storage::EnsureDir(data_dir);
  if (!status.ok()) return status;

  // Phase 1: the durable cut. kNotFound means no compaction has committed
  // yet; an unreadable manifest only disables the segment fast path (WAL
  // epochs are deleted strictly after a manifest commit, so a full replay
  // still covers everything the manifest would have).
  const std::string segments_dir = storage::SegmentsDirFor(data_dir);
  std::optional<storage::ManifestData> manifest;
  auto manifest_result = storage::ReadManifestFile(segments_dir);
  if (manifest_result.ok()) {
    manifest = std::move(manifest_result.value());
  } else if (manifest_result.status().code() != StatusCode::kNotFound) {
    info.segment_fallback = true;
    F2DB_LOG(kWarning) << "recovery: segment manifest unreadable ("
                       << manifest_result.status().ToString()
                       << "); falling back to a full WAL replay";
  }

  // Phase 2: the manifest bulk-loads history from the sealed segment
  // chain. When the chain fails validation (the half-written-segment
  // crash case) fall back to replaying the WAL from epoch 1, which still
  // exists as long as no later compaction truncated it. segment_fallback
  // tells the engine so its next compaction RESEALS the chain from memory
  // instead of extending the invalid one — extending would truncate
  // exactly the epochs this fallback depends on.
  std::uint64_t replay_from_epoch = 1;
  bool segment_base = false;
  if (manifest.has_value()) {
    auto chain_result = storage::ReadSegmentChain(segments_dir, *manifest);
    if (chain_result.ok()) {
      segment_base = true;
      replay_from_epoch = manifest->wal_epoch;
      std::vector<storage::SegmentData> chain =
          std::move(chain_result.value());
      info.segments_loaded = chain.size();
      for (const storage::SegmentData& segment : chain) {
        info.segment_records_loaded +=
            segment.count * static_cast<std::uint64_t>(segment.series.size());
      }
      if (callbacks.apply_segments) {
        status = callbacks.apply_segments(*manifest, std::move(chain));
        if (!status.ok()) return status;
      }
    } else {
      info.segment_fallback = true;
      F2DB_LOG(kWarning) << "recovery: sealed segment chain invalid ("
                         << chain_result.status().ToString()
                         << "); falling back to a full WAL replay";
    }
  }

  // Phase 3: the WAL segments. Epochs older than the manifest's are fully
  // covered by it — a previous crash interrupted their deletion, so finish
  // the job here.
  auto epochs_result = ListWalEpochs(data_dir);
  if (!epochs_result.ok()) return epochs_result.status();
  std::vector<std::uint64_t> epochs;
  for (const std::uint64_t epoch : epochs_result.value()) {
    if (epoch < replay_from_epoch) {
      const std::string stale = WalPath(data_dir, epoch);
      if (::unlink(stale.c_str()) != 0 && errno != ENOENT) {
        return Status::Unavailable("cannot delete stale WAL segment " + stale +
                                   ": " + ::strerror(errno));
      }
      continue;
    }
    epochs.push_back(epoch);
  }

  if (epochs.empty()) {
    if (segment_base) {
      // Compaction rewrites the live tail (catalog, model bookkeeping,
      // pending inserts) into the manifest's epoch BEFORE committing the
      // manifest, and the manifest commit happens before any deletion —
      // so this epoch must exist. Losing it means losing acknowledged
      // state: fail loudly instead of starting silently wrong.
      return MissingHistory(
          data_dir, "segment manifest references WAL epoch " +
                        std::to_string(replay_from_epoch) +
                        " but no WAL segment file exists — log history is "
                        "damaged");
    }
    // A legacy cut with no WAL left is history this version cannot read.
    if (HasLegacyCheckpoint(data_dir)) {
      return MissingHistory(data_dir,
                            "WAL history is missing: no WAL segment exists");
    }
    // Fresh directory: start a new segment at the replay epoch.
    info.append_epoch = replay_from_epoch;
    info.append_valid_bytes = 0;
    info.create_segment = true;
    info.recovery_seconds = watch.ElapsedSeconds();
    return info;
  }

  // Phase 4: replay, oldest epoch first. Rotation bumps epochs one at a
  // time and deletion only runs after a durable manifest, so a missing
  // leading epoch or a gap in the sequence means a segment (= history)
  // went missing.
  if (epochs.front() != replay_from_epoch) {
    return MissingHistory(
        data_dir, "WAL history is missing: replay must start at epoch " +
                      std::to_string(replay_from_epoch) +
                      " but the oldest segment is " +
                      std::to_string(epochs.front()));
  }
  for (std::size_t i = 0; i + 1 < epochs.size(); ++i) {
    if (epochs[i + 1] != epochs[i] + 1) {
      return Status::Internal(
          "WAL epoch gap: segment " + std::to_string(epochs[i] + 1) +
          " is missing (have " + std::to_string(epochs[i]) + " and " +
          std::to_string(epochs[i + 1]) + ")");
    }
  }
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    const bool last_segment = (i + 1 == epochs.size());
    auto segment = ReadWalSegment(WalPath(data_dir, epochs[i]));
    if (!segment.ok()) return segment.status();
    if (segment.value().torn_tail && !last_segment) {
      // Only the newest segment can legitimately end mid-record; a tear in
      // an older one means records after it were acknowledged and lost.
      return Status::Internal("torn record inside non-final WAL segment " +
                              WalPath(data_dir, epochs[i]) +
                              " — log history is damaged");
    }
    for (const WalRecord& record : segment.value().records) {
      if (callbacks.apply_record) {
        status = callbacks.apply_record(record);
        if (!status.ok()) return status;
      }
      ++info.records_replayed;
    }
    if (last_segment) {
      info.torn_tail_detected = segment.value().torn_tail;
      info.append_epoch = epochs[i];
      info.append_valid_bytes = segment.value().valid_bytes;
      info.create_segment = false;
    }
  }

  info.recovery_seconds = watch.ElapsedSeconds();
  return info;
}

}  // namespace f2db
