// Write-ahead log: the durability substrate of the engine (DESIGN.md §10).
//
// Every state-changing maintenance operation — fact inserts, configuration
// (catalog DDL) installs, lazy-refit model publications, and quarantine
// transitions — is appended to the WAL *before* the in-memory snapshot is
// published, so a crash can always be replayed from the last compaction
// (sealed segments + manifest) plus the WAL tail. Records are
// length-prefixed and CRC32C-framed:
//
//   file header:  "F2DBWAL" | version byte (kWalFormatVersion) |
//                 u64 epoch (little-endian)
//   record:       u32 length | u32 crc32c(type+payload) | u8 type | payload
//
// The log is segmented by EPOCH: a compaction rotates appends into
// wal-<epoch+1>.log, rewrites the live tail (catalog, per-model refit
// bookkeeping, pending inserts) there, seals the closed history, and
// deletes the older segments only after the manifest naming the new epoch
// is durable — so at every instant the data directory holds a consistent
// (manifest, WAL-suffix) pair. Recovery replays every segment with
// epoch >= the manifest's epoch in order and tolerates exactly one torn
// record at the tail of the LAST segment (the in-flight write the crash
// interrupted); a torn record anywhere else means lost history and fails
// recovery loudly instead of misparsing.
//
// Fsync policy (group commit): kNone never syncs (the OS flushes),
// kAlways syncs after every append (an acked insert is durable), kBatch
// syncs once per `batch_records` appends. A failed fsync UNDOES the
// append (ftruncate back to the pre-append offset) so the caller's error
// and the on-disk state agree: a rejected operation is never replayed.

#ifndef F2DB_ENGINE_WAL_H_
#define F2DB_ENGINE_WAL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace f2db {

/// On-disk format version; bumped on any layout change so old binaries
/// fail loudly instead of misparsing (checked by the golden-file tests).
inline constexpr std::uint8_t kWalFormatVersion = 1;

/// When appended records are flushed to stable storage.
enum class FsyncPolicy {
  kNone,    ///< Never fsync; durability is best-effort (OS page cache).
  kBatch,   ///< Group commit: fsync every `wal_batch_records` appends.
  kAlways,  ///< fsync after every append; an acked operation is durable.
};

/// Stable display name ("none", "batch", "always").
const char* FsyncPolicyName(FsyncPolicy policy);

/// Parses "none" / "batch" / "always" (the CLI flag format).
Result<FsyncPolicy> ParseFsyncPolicy(const std::string& text);

/// One logical WAL record. Exactly the fields of its kind are meaningful.
struct WalRecord {
  enum class Kind : std::uint8_t {
    kInsert = 1,        ///< One accepted fact: node, time, value.
    kCatalog = 2,       ///< Full configuration install (serialized catalog).
    kModelInstall = 3,  ///< Lazy-refit publication: node + serialized model.
    kQuarantine = 4,    ///< Node crossed the quarantine threshold.
    /// Compaction tail: one model's refit bookkeeping at the cut.
    kBookkeeping = 5,
  };

  Kind kind = Kind::kInsert;
  /// kInsert / kModelInstall / kQuarantine / kBookkeeping.
  std::uint32_t node = 0;
  std::int64_t time = 0;       ///< kInsert.
  double value = 0.0;          ///< kInsert; kModelInstall: creation_seconds.
  /// kQuarantine: refit failures at transition; kBookkeeping: consecutive
  /// refit failures.
  std::uint64_t count = 0;
  std::string payload;         ///< kCatalog / kModelInstall: serialized text.
  /// kBookkeeping: incremental updates since the last estimate.
  std::uint64_t updates = 0;
  bool invalid = false;        ///< kBookkeeping.
  bool quarantined = false;    ///< kBookkeeping.

  static WalRecord Insert(std::uint32_t node, std::int64_t time, double value);
  static WalRecord Catalog(std::string serialized);
  static WalRecord ModelInstall(std::uint32_t node, double creation_seconds,
                                std::string serialized_model);
  static WalRecord Quarantine(std::uint32_t node, std::uint64_t failures);
  static WalRecord Bookkeeping(std::uint32_t node, bool invalid,
                               std::uint64_t updates_since_estimate,
                               std::uint64_t refit_failures,
                               bool quarantined);
};

/// Encodes one record into its framed wire form (length, CRC, type,
/// payload) — exposed for the format tests.
std::string EncodeWalRecord(const WalRecord& record);

/// EncodeWalRecord into `*out`, replacing its contents; allocates nothing
/// once *out has the capacity of the frame.
void EncodeWalRecordInto(const WalRecord& record, std::string* out);

/// Decodes the body of a framed record (type byte + payload, CRC already
/// verified by the reader).
Result<WalRecord> DecodeWalRecordBody(std::string_view body);

/// The WAL file of `epoch` inside `dir` ("<dir>/wal-00000042.log").
std::string WalPath(const std::string& dir, std::uint64_t epoch);

/// Epochs of every wal-*.log inside `dir`, sorted ascending.
Result<std::vector<std::uint64_t>> ListWalEpochs(const std::string& dir);

/// Outcome of reading one WAL segment.
struct WalReadResult {
  std::vector<WalRecord> records;
  /// True when the segment ends in a torn record (short frame or CRC
  /// mismatch at the tail); `valid_bytes` is then the offset of the tear.
  bool torn_tail = false;
  /// Offset one past the last fully valid record (header included).
  std::uint64_t valid_bytes = 0;
  std::uint64_t epoch = 0;
};

/// Reads every valid record of one segment. A torn tail is reported, not an
/// error; a missing file, a bad header, or a version mismatch is an error.
Result<WalReadResult> ReadWalSegment(const std::string& path);

/// Appends framed records to one WAL segment. Not thread-safe: the engine
/// serializes all appends behind its writer mutex.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();

  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Creates segment `epoch` inside `dir` (fails when it already exists —
  /// epochs are never reused) and writes the header.
  static Result<WalWriter> Create(const std::string& dir, std::uint64_t epoch,
                                  FsyncPolicy policy,
                                  std::size_t batch_records);

  /// Reopens an existing segment for append after recovery, truncating a
  /// torn tail at `valid_bytes` first.
  static Result<WalWriter> Reopen(const std::string& dir, std::uint64_t epoch,
                                  std::uint64_t valid_bytes,
                                  FsyncPolicy policy,
                                  std::size_t batch_records);

  bool open() const { return fd_ >= 0; }
  std::uint64_t epoch() const { return epoch_; }

  /// Framed append + policy-driven sync. On an fsync failure the appended
  /// bytes are truncated away before the error returns, so disk and caller
  /// agree the record does not exist.
  Status Append(const WalRecord& record);

  /// Append for several records at once: one write(2) and at most one
  /// policy sync (kBatch counts every record toward its group). All or
  /// none of them exist when it returns.
  Status AppendAll(std::span<const WalRecord> records);

  /// Forces an fsync of everything appended so far (compaction rotation
  /// and clean shutdown call this regardless of policy).
  Status Sync();

  /// Closes the segment (final Sync unless the policy is kNone).
  void Close();

  /// Records appended through this writer since it was opened.
  std::uint64_t records_appended() const { return records_appended_; }
  /// Bytes appended through this writer since it was opened.
  std::uint64_t bytes_appended() const { return bytes_appended_; }

 private:
  WalWriter(int fd, std::uint64_t epoch, std::uint64_t offset,
            FsyncPolicy policy, std::size_t batch_records)
      : fd_(fd),
        epoch_(epoch),
        offset_(offset),
        policy_(policy),
        batch_records_(batch_records) {}

  int fd_ = -1;
  std::uint64_t epoch_ = 0;
  /// Current end-of-log offset (the rollback point of a failed sync).
  std::uint64_t offset_ = 0;
  FsyncPolicy policy_ = FsyncPolicy::kBatch;
  std::size_t batch_records_ = 64;
  std::size_t unsynced_records_ = 0;
  std::uint64_t records_appended_ = 0;
  std::uint64_t bytes_appended_ = 0;
  /// The frames being appended, kept so that their capacity is reused.
  std::string frame_;
};

}  // namespace f2db

#endif  // F2DB_ENGINE_WAL_H_
