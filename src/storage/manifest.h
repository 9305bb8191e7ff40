// The segment manifest: the commit point of compaction (DESIGN.md §13).
//
// A manifest names the shard's sealed segment chain, the WAL epoch from
// which replay must resume, the engine counters at the seal cut, and the
// per-base-series sums retention has dropped (so history sums — and with
// them derivation weights — stay exact after old raw history is deleted).
//
// Format v1 is line-oriented text with a CRC32C trailer:
//
//   f2db-manifest v1
//   epoch <wal epoch>
//   sealed <from> <to>
//   counters <inserts> <advances> <reestimates> <quarantines> <refit-fails>
//   dropped <records>
//   offsets <k>
//   <node> <sum %.17g>            x k
//   segments <m>
//   <seq> <start> <count> <num_series> <bytes>    x m
//   crc <crc32c of everything above, %08x>
//
// The manifest is published by atomic rename and is the engine's one
// durable cut: recovery bulk-loads the chain it names and replays the WAL
// from its epoch.

#ifndef F2DB_STORAGE_MANIFEST_H_
#define F2DB_STORAGE_MANIFEST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace f2db::storage {

/// File name of the manifest inside a segments directory.
inline constexpr char kManifestFileName[] = "MANIFEST";

/// One chain entry: the identity and footprint of a sealed segment.
struct ManifestSegment {
  std::uint64_t seq = 0;
  std::int64_t start_time = 0;
  std::uint64_t count = 0;
  std::uint32_t num_series = 0;
  std::uint64_t bytes = 0;
};

/// The full durable state of a shard's segment chain.
struct ManifestData {
  /// Replay resumes from this WAL epoch; everything older is covered by
  /// the chain (plus the rewritten live tail at the head of this epoch).
  std::uint64_t wal_epoch = 0;
  /// Sealed period range [sealed_from, sealed_to) across the chain,
  /// including ranges later dropped by retention.
  std::int64_t sealed_from = 0;
  std::int64_t sealed_to = 0;
  /// Engine counters at the seal cut (restored on segment-based recovery).
  std::uint64_t inserts = 0;
  std::uint64_t time_advances = 0;
  std::uint64_t reestimates = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t refit_failures = 0;
  /// Total raw records retention has dropped over the shard's lifetime.
  std::uint64_t records_dropped = 0;
  /// Per-base-node sum of retention-dropped observations, ascending by
  /// node. history_sum(node) = live Sum() + aggregated offset.
  std::vector<std::pair<std::uint32_t, double>> offsets;
  /// The live chain, ascending and contiguous by (seq, time range).
  std::vector<ManifestSegment> segments;
};

/// Renders the manifest text including the CRC trailer.
std::string SerializeManifest(const ManifestData& manifest);

/// Parses and CRC-verifies a manifest image.
Result<ManifestData> ParseManifest(std::string_view text);

/// Durably publishes the manifest in `dir` via atomic rename, firing the
/// "before_manifest_rename"/"after_manifest_rename" crash hooks around
/// the commit.
Status WriteManifestFile(const std::string& dir, const ManifestData& manifest);

/// Reads and parses "<dir>/MANIFEST"; NotFound when absent.
Result<ManifestData> ReadManifestFile(const std::string& dir);

}  // namespace f2db::storage

#endif  // F2DB_STORAGE_MANIFEST_H_
