#include "engine/wal.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/crc32c.h"
#include "storage/fsio.h"

namespace f2db {
namespace {

constexpr char kWalMagic[7] = {'F', '2', 'D', 'B', 'W', 'A', 'L'};
/// magic + version byte + u64 epoch.
constexpr std::size_t kWalHeaderBytes = sizeof(kWalMagic) + 1 + 8;
/// u32 length + u32 crc.
constexpr std::size_t kFramePrefixBytes = 8;
/// kBookkeeping flag bits.
constexpr std::uint8_t kBookkeepingInvalid = 1;
constexpr std::uint8_t kBookkeepingQuarantined = 2;

void PutU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutF64(std::string* out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

std::uint32_t GetU32(std::string_view in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(in[at + i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t GetU64(std::string_view in, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[at + i]))
         << (8 * i);
  }
  return v;
}

double GetF64(std::string_view in, std::size_t at) {
  const std::uint64_t bits = GetU64(in, at);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Routed through the storage choke point so the io.wal_append site can
/// inject EIO/ENOSPC and torn short writes (DESIGN.md §15).
Status WriteAllFd(int fd, const char* data, std::size_t size) {
  return storage::WriteAllFd(fd, data, size, storage::kIoSiteWalAppend, "wal");
}

Status FsyncFd(int fd, const char* what) {
  return storage::FsyncFd(fd, storage::kIoSiteWalFsync, what);
}

std::string EncodeWalHeader(std::uint64_t epoch) {
  std::string out;
  out.append(kWalMagic, sizeof(kWalMagic));
  out.push_back(static_cast<char>(kWalFormatVersion));
  PutU64(&out, epoch);
  return out;
}

/// Appends the type byte + payload that the record CRC covers.
void AppendWalBody(const WalRecord& record, std::string* out) {
  out->push_back(static_cast<char>(record.kind));
  switch (record.kind) {
    case WalRecord::Kind::kInsert:
      PutU32(out, record.node);
      PutU64(out, static_cast<std::uint64_t>(record.time));
      PutF64(out, record.value);
      break;
    case WalRecord::Kind::kCatalog:
      out->append(record.payload);
      break;
    case WalRecord::Kind::kModelInstall:
      PutU32(out, record.node);
      PutF64(out, record.value);
      out->append(record.payload);
      break;
    case WalRecord::Kind::kQuarantine:
      PutU32(out, record.node);
      PutU64(out, record.count);
      break;
    case WalRecord::Kind::kBookkeeping:
      PutU32(out, record.node);
      out->push_back(static_cast<char>(
          (record.invalid ? kBookkeepingInvalid : 0) |
          (record.quarantined ? kBookkeepingQuarantined : 0)));
      PutU64(out, record.updates);
      PutU64(out, record.count);
      break;
  }
}

/// Appends one framed record (length, CRC, type, payload) to `*out`.
void AppendWalFrame(const WalRecord& record, std::string* out) {
  // The prefix is written once the body, which it describes, is in place.
  const std::size_t start = out->size();
  out->append(kFramePrefixBytes, '\0');
  AppendWalBody(record, out);
  const std::string_view body =
      std::string_view(*out).substr(start + kFramePrefixBytes);
  const std::uint32_t length = static_cast<std::uint32_t>(body.size());
  const std::uint32_t crc = Crc32c(body);
  for (int i = 0; i < 4; ++i) {
    (*out)[start + i] = static_cast<char>(length >> (8 * i));
    (*out)[start + 4 + i] = static_cast<char>(crc >> (8 * i));
  }
}

}  // namespace

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNone:
      return "none";
    case FsyncPolicy::kBatch:
      return "batch";
    case FsyncPolicy::kAlways:
      return "always";
  }
  return "unknown";
}

Result<FsyncPolicy> ParseFsyncPolicy(const std::string& text) {
  if (text == "none") return FsyncPolicy::kNone;
  if (text == "batch") return FsyncPolicy::kBatch;
  if (text == "always") return FsyncPolicy::kAlways;
  return Status::InvalidArgument("unknown fsync policy: \"" + text +
                                 "\" (want none|batch|always)");
}

WalRecord WalRecord::Insert(std::uint32_t node, std::int64_t time,
                            double value) {
  WalRecord r;
  r.kind = Kind::kInsert;
  r.node = node;
  r.time = time;
  r.value = value;
  return r;
}

WalRecord WalRecord::Catalog(std::string serialized) {
  WalRecord r;
  r.kind = Kind::kCatalog;
  r.payload = std::move(serialized);
  return r;
}

WalRecord WalRecord::ModelInstall(std::uint32_t node, double creation_seconds,
                                  std::string serialized_model) {
  WalRecord r;
  r.kind = Kind::kModelInstall;
  r.node = node;
  r.value = creation_seconds;
  r.payload = std::move(serialized_model);
  return r;
}

WalRecord WalRecord::Quarantine(std::uint32_t node, std::uint64_t failures) {
  WalRecord r;
  r.kind = Kind::kQuarantine;
  r.node = node;
  r.count = failures;
  return r;
}

WalRecord WalRecord::Bookkeeping(std::uint32_t node, bool invalid,
                                 std::uint64_t updates_since_estimate,
                                 std::uint64_t refit_failures,
                                 bool quarantined) {
  WalRecord r;
  r.kind = Kind::kBookkeeping;
  r.node = node;
  r.invalid = invalid;
  r.updates = updates_since_estimate;
  r.count = refit_failures;
  r.quarantined = quarantined;
  return r;
}

std::string EncodeWalRecord(const WalRecord& record) {
  std::string out;
  EncodeWalRecordInto(record, &out);
  return out;
}

void EncodeWalRecordInto(const WalRecord& record, std::string* out) {
  out->clear();
  AppendWalFrame(record, out);
}

Result<WalRecord> DecodeWalRecordBody(std::string_view body) {
  if (body.empty()) return Status::InvalidArgument("empty WAL record body");
  WalRecord record;
  const auto kind = static_cast<WalRecord::Kind>(
      static_cast<unsigned char>(body[0]));
  record.kind = kind;
  const std::string_view rest = body.substr(1);
  switch (kind) {
    case WalRecord::Kind::kInsert:
      if (rest.size() != 4 + 8 + 8) {
        return Status::InvalidArgument("bad insert record size");
      }
      record.node = GetU32(rest, 0);
      record.time = static_cast<std::int64_t>(GetU64(rest, 4));
      record.value = GetF64(rest, 12);
      return record;
    case WalRecord::Kind::kCatalog:
      record.payload.assign(rest);
      return record;
    case WalRecord::Kind::kModelInstall:
      if (rest.size() < 4 + 8) {
        return Status::InvalidArgument("bad model-install record size");
      }
      record.node = GetU32(rest, 0);
      record.value = GetF64(rest, 4);
      record.payload.assign(rest.substr(12));
      return record;
    case WalRecord::Kind::kQuarantine:
      if (rest.size() != 4 + 8) {
        return Status::InvalidArgument("bad quarantine record size");
      }
      record.node = GetU32(rest, 0);
      record.count = GetU64(rest, 4);
      return record;
    case WalRecord::Kind::kBookkeeping: {
      if (rest.size() != 4 + 1 + 8 + 8) {
        return Status::InvalidArgument("bad bookkeeping record size");
      }
      const auto flags = static_cast<std::uint8_t>(rest[4]);
      if ((flags & ~(kBookkeepingInvalid | kBookkeepingQuarantined)) != 0) {
        return Status::InvalidArgument("bad bookkeeping record flags");
      }
      record.node = GetU32(rest, 0);
      record.invalid = (flags & kBookkeepingInvalid) != 0;
      record.quarantined = (flags & kBookkeepingQuarantined) != 0;
      record.updates = GetU64(rest, 5);
      record.count = GetU64(rest, 13);
      return record;
    }
  }
  return Status::InvalidArgument("unknown WAL record kind " +
                                 std::to_string(static_cast<int>(kind)));
}

std::string WalPath(const std::string& dir, std::uint64_t epoch) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%08llu.log",
                static_cast<unsigned long long>(epoch));
  return dir + "/" + name;
}

Result<std::vector<std::uint64_t>> ListWalEpochs(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::NotFound("cannot open data dir: " + dir + ": " +
                            ::strerror(errno));
  }
  std::vector<std::uint64_t> epochs;
  while (dirent* entry = ::readdir(d)) {
    unsigned long long epoch = 0;
    int consumed = 0;
    if (std::sscanf(entry->d_name, "wal-%8llu.log%n", &epoch, &consumed) == 1 &&
        consumed == static_cast<int>(std::strlen(entry->d_name))) {
      epochs.push_back(epoch);
    }
  }
  ::closedir(d);
  std::sort(epochs.begin(), epochs.end());
  return epochs;
}

Result<WalReadResult> ReadWalSegment(const std::string& path) {
  F2DB_ASSIGN_OR_RETURN(const std::string data,
                        storage::ReadFileToString(path));
  WalReadResult result;
  if (data.size() < kWalHeaderBytes ||
      std::memcmp(data.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::InvalidArgument("not an f2db WAL segment: " + path);
  }
  const auto version =
      static_cast<std::uint8_t>(data[sizeof(kWalMagic)]);
  if (version != kWalFormatVersion) {
    return Status::InvalidArgument(
        "WAL format version mismatch in " + path + ": file has v" +
        std::to_string(version) + ", this build reads v" +
        std::to_string(kWalFormatVersion));
  }
  result.epoch = GetU64(data, sizeof(kWalMagic) + 1);

  std::size_t pos = kWalHeaderBytes;
  result.valid_bytes = pos;
  while (pos < data.size()) {
    if (data.size() - pos < kFramePrefixBytes) {
      result.torn_tail = true;  // partial length/CRC prefix
      break;
    }
    const std::uint32_t length = GetU32(data, pos);
    const std::uint32_t crc = GetU32(data, pos + 4);
    if (length == 0 || data.size() - pos - kFramePrefixBytes < length) {
      result.torn_tail = true;  // record body cut short
      break;
    }
    const std::string_view body(data.data() + pos + kFramePrefixBytes, length);
    if (Crc32c(body) != crc) {
      result.torn_tail = true;  // bits of the body never hit the platter
      break;
    }
    auto record = DecodeWalRecordBody(body);
    if (!record.ok()) {
      // A valid CRC with an undecodable body is corruption the framing
      // cannot explain — fail loudly rather than dropping history.
      return Status::Internal("corrupt WAL record in " + path + " at offset " +
                              std::to_string(pos) + ": " +
                              record.status().message());
    }
    result.records.push_back(std::move(record).value());
    pos += kFramePrefixBytes + length;
    result.valid_bytes = pos;
  }
  return result;
}

WalWriter::~WalWriter() { Close(); }

WalWriter::WalWriter(WalWriter&& other) noexcept
    : fd_(other.fd_),
      epoch_(other.epoch_),
      offset_(other.offset_),
      policy_(other.policy_),
      batch_records_(other.batch_records_),
      unsynced_records_(other.unsynced_records_),
      records_appended_(other.records_appended_),
      bytes_appended_(other.bytes_appended_),
      frame_(std::move(other.frame_)) {
  other.fd_ = -1;
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    epoch_ = other.epoch_;
    offset_ = other.offset_;
    policy_ = other.policy_;
    batch_records_ = other.batch_records_;
    unsynced_records_ = other.unsynced_records_;
    records_appended_ = other.records_appended_;
    bytes_appended_ = other.bytes_appended_;
    frame_ = std::move(other.frame_);
    other.fd_ = -1;
  }
  return *this;
}

Result<WalWriter> WalWriter::Create(const std::string& dir,
                                    std::uint64_t epoch, FsyncPolicy policy,
                                    std::size_t batch_records) {
  const std::string path = WalPath(dir, epoch);
  const failpoint::Fault fault = failpoint::Evaluate(storage::kIoSiteWalCreate);
  if (fault.injected()) return storage::IoError("create", path, fault.err);
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Unavailable("cannot create WAL segment " + path + ": " +
                               ::strerror(errno));
  }
  const std::string header = EncodeWalHeader(epoch);
  Status written = WriteAllFd(fd, header.data(), header.size());
  if (written.ok()) written = FsyncFd(fd, "wal header");
  if (written.ok()) written = storage::SyncDir(dir);
  if (!written.ok()) {
    ::close(fd);
    ::unlink(path.c_str());
    return written;
  }
  return WalWriter(fd, epoch, header.size(), policy, batch_records);
}

Result<WalWriter> WalWriter::Reopen(const std::string& dir,
                                    std::uint64_t epoch,
                                    std::uint64_t valid_bytes,
                                    FsyncPolicy policy,
                                    std::size_t batch_records) {
  const std::string path = WalPath(dir, epoch);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::Unavailable("cannot reopen WAL segment " + path + ": " +
                               ::strerror(errno));
  }
  // Cut the torn tail before the first new append lands behind it.
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0 ||
      ::lseek(fd, 0, SEEK_END) < 0) {
    const Status status = Status::Unavailable(
        "cannot truncate torn WAL tail in " + path + ": " + ::strerror(errno));
    ::close(fd);
    return status;
  }
  return WalWriter(fd, epoch, valid_bytes, policy, batch_records);
}

Status WalWriter::Append(const WalRecord& record) {
  return AppendAll(std::span<const WalRecord>(&record, 1));
}

Status WalWriter::AppendAll(std::span<const WalRecord> records) {
  if (fd_ < 0) return Status::FailedPrecondition("WAL writer is closed");
  if (records.empty()) return Status::OK();
  frame_.clear();
  for (const WalRecord& record : records) AppendWalFrame(record, &frame_);
  const std::string& frame = frame_;
  const Status written = WriteAllFd(fd_, frame.data(), frame.size());
  if (!written.ok()) {
    // A failed write(2) may still have landed a prefix of the frame (short
    // write, ENOSPC mid-call). Truncate back to the last durable record so
    // torn bytes can never sit in FRONT of a later successful append —
    // recovery only tolerates a tear at the very tail. If even the
    // rollback fails the segment is unusable; close it so every further
    // append is refused.
    if (::ftruncate(fd_, static_cast<off_t>(offset_)) != 0 ||
        ::lseek(fd_, 0, SEEK_END) < 0) {
      ::close(fd_);
      fd_ = -1;
    }
    return written;
  }
  bool want_sync = policy_ == FsyncPolicy::kAlways;
  if (policy_ == FsyncPolicy::kBatch) {
    unsynced_records_ += records.size();
    want_sync = unsynced_records_ >= std::max<std::size_t>(1, batch_records_);
  }
  if (want_sync) {
    const Status synced = FsyncFd(fd_, "wal");
    if (!synced.ok()) {
      // Roll the append back: the record was rejected, so it must not be
      // replayed after a later crash. If even the rollback fails the
      // segment is unusable; close it so every further append is refused.
      if (::ftruncate(fd_, static_cast<off_t>(offset_)) != 0 ||
          ::lseek(fd_, 0, SEEK_END) < 0) {
        ::close(fd_);
        fd_ = -1;
      }
      return synced;
    }
    unsynced_records_ = 0;
  }
  offset_ += frame.size();
  records_appended_ += records.size();
  bytes_appended_ += frame.size();
  return Status::OK();
}

Status WalWriter::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("WAL writer is closed");
  F2DB_RETURN_IF_ERROR(FsyncFd(fd_, "wal"));
  unsynced_records_ = 0;
  return Status::OK();
}

void WalWriter::Close() {
  if (fd_ < 0) return;
  if (policy_ != FsyncPolicy::kNone) ::fsync(fd_);
  ::close(fd_);
  fd_ = -1;
}

}  // namespace f2db
