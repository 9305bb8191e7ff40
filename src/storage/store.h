// SegmentStore: a shard's sealed-segment directory (DESIGN.md §13).
//
// Owns "<data_dir>/segments/": the manifest, the chain of sealed segment
// files, and their lifecycle (seal, retention delete, orphan cleanup).
// Mutations are driven by the engine's compaction path, which is
// serialized; the store only guards its cached manifest with a mutex so
// the stats exporter can read the live-chain gauges concurrently.

#ifndef F2DB_STORAGE_STORE_H_
#define F2DB_STORAGE_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/manifest.h"
#include "storage/segment.h"

namespace f2db::storage {

/// "<data_dir>/segments".
std::string SegmentsDirFor(const std::string& data_dir);

/// Reads and fully validates every segment the manifest references, in
/// chain order: per-file CRCs, manifest agreement (seq, range, series
/// count, byte size), contiguity of consecutive ranges, and an identical
/// node set in every segment. Any failure rejects the whole chain —
/// recovery then falls back to a full WAL replay.
Result<std::vector<SegmentData>> ReadSegmentChain(
    const std::string& segments_dir, const ManifestData& manifest);

/// The sealed-segment directory of one shard.
class SegmentStore {
 public:
  /// Creates/opens "<data_dir>/segments", loads the manifest when present,
  /// and removes stale "*.tmp" files and segment files the manifest does
  /// not reference. An unparsable manifest is treated as absent for
  /// serving (recovery has already fallen back to a full WAL replay),
  /// but it and the now-unreferenced segments are quarantined as
  /// "*.corrupt" — never deleted — with a loud error log, so the data a
  /// flipped manifest bit orphaned stays available for offline repair.
  static Result<std::unique_ptr<SegmentStore>> Open(
      const std::string& data_dir);

  const std::string& dir() const { return dir_; }
  bool has_manifest() const;
  /// Snapshot copy of the current manifest (empty default when absent).
  ManifestData manifest() const;
  /// Sequence number the next sealed segment should use.
  std::uint64_t next_seq() const;

  /// Durably writes one segment file (does NOT touch the manifest) and
  /// returns its encoded size. Fires the "segment_written" crash hook.
  Result<std::uint64_t> WriteSegment(const SegmentData& segment);

  /// Atomically publishes `next` as the manifest — the commit point of a
  /// compaction. Fires the manifest rename crash hooks.
  Status CommitManifest(ManifestData next);

  /// Reads the full chain the current manifest references.
  Result<std::vector<SegmentData>> ReadChain() const;

  /// Unlinks one segment file (idempotent; used after a retention commit).
  Status DeleteSegmentFile(std::uint64_t seq);

  /// Live-chain gauges for the stats exporter.
  std::uint64_t live_segments() const;
  std::uint64_t live_bytes() const;

 private:
  explicit SegmentStore(std::string dir) : dir_(std::move(dir)) {}

  const std::string dir_;
  mutable std::mutex mutex_;
  bool has_manifest_ = false;
  ManifestData manifest_;
};

}  // namespace f2db::storage

#endif  // F2DB_STORAGE_STORE_H_
