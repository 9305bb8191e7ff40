#include "storage/segment.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/crc32c.h"
#include "storage/codec.h"
#include "storage/fsio.h"

namespace f2db::storage {
namespace {

constexpr std::size_t kHeaderSize = 40;
constexpr std::size_t kHeaderCrcOffset = 36;
constexpr std::size_t kBlockHeaderSize = 16;

Status Corrupt(const char* what) {
  return Status::InvalidArgument(std::string("segment: ") + what);
}

}  // namespace

std::string SegmentFileName(std::uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%08" PRIu64 ".f2ds", seq);
  return name;
}

std::string SegmentPath(const std::string& dir, std::uint64_t seq) {
  return dir + "/" + SegmentFileName(seq);
}

Result<std::string> EncodeSegment(const SegmentData& segment) {
  // Block headers carry count and the series count as u32; a larger
  // segment would encode a file its own decoder rejects ("block count
  // mismatch"), so refuse at encode time instead of producing it.
  constexpr std::uint64_t kU32Max = 0xffffffffu;
  if (segment.count > kU32Max || segment.series.size() > kU32Max) {
    return Status::InvalidArgument(
        "segment: count or series count exceeds format v1's u32 range");
  }
  std::string out;
  out.append(kSegmentMagic, 7);
  out.push_back(static_cast<char>(kSegmentFormatVersion));
  PutU64(&out, segment.seq);
  PutU64(&out, static_cast<std::uint64_t>(segment.start_time));
  PutU64(&out, segment.count);
  PutU32(&out, static_cast<std::uint32_t>(segment.series.size()));
  PutU32(&out, Crc32c(out.data(), out.size()));

  std::vector<std::int64_t> times(segment.count);
  for (std::uint64_t i = 0; i < segment.count; ++i) {
    times[i] = segment.start_time + static_cast<std::int64_t>(i);
  }
  for (const SegmentSeries& series : segment.series) {
    if (series.values.size() != segment.count) {
      return Status::InvalidArgument("segment: series length != count");
    }
    F2DB_ASSIGN_OR_RETURN(const std::string enc,
                          EncodeSeriesBlock(times, series.values));
    PutU32(&out, series.node);
    PutU32(&out, static_cast<std::uint32_t>(segment.count));
    PutU32(&out, static_cast<std::uint32_t>(enc.size()));
    // The CRC spans the 12 block-header bytes just appended AND the
    // payload, so a flip anywhere in the block — including the node id —
    // is caught by decode.
    const std::uint32_t meta_crc = Crc32c(out.data() + out.size() - 12, 12);
    PutU32(&out, Crc32c(enc.data(), enc.size(), meta_crc));
    out += enc;
  }
  return out;
}

Result<SegmentData> DecodeSegment(std::string_view bytes) {
  if (bytes.size() < kHeaderSize) return Corrupt("short header");
  if (std::memcmp(bytes.data(), kSegmentMagic, 7) != 0) {
    return Corrupt("bad magic");
  }
  const std::uint8_t version = static_cast<std::uint8_t>(bytes[7]);
  if (version != kSegmentFormatVersion) return Corrupt("unsupported version");
  const std::uint32_t header_crc = GetU32(bytes.data() + kHeaderCrcOffset);
  if (header_crc != Crc32c(bytes.data(), kHeaderCrcOffset)) {
    return Corrupt("header CRC mismatch");
  }

  SegmentData segment;
  segment.seq = GetU64(bytes.data() + 8);
  segment.start_time = static_cast<std::int64_t>(GetU64(bytes.data() + 16));
  segment.count = GetU64(bytes.data() + 24);
  const std::uint32_t num_series = GetU32(bytes.data() + 32);
  segment.series.reserve(num_series);

  std::size_t offset = kHeaderSize;
  std::vector<std::int64_t> times;
  for (std::uint32_t s = 0; s < num_series; ++s) {
    if (bytes.size() - offset < kBlockHeaderSize) {
      return Corrupt("truncated block header");
    }
    SegmentSeries series;
    series.node = GetU32(bytes.data() + offset);
    const std::uint32_t count = GetU32(bytes.data() + offset + 4);
    const std::uint32_t enc_len = GetU32(bytes.data() + offset + 8);
    const std::uint32_t enc_crc = GetU32(bytes.data() + offset + 12);
    const std::uint32_t meta_crc = Crc32c(bytes.data() + offset, 12);
    offset += kBlockHeaderSize;
    if (count != segment.count) return Corrupt("block count mismatch");
    if (bytes.size() - offset < enc_len) return Corrupt("truncated block");
    const std::string_view enc = bytes.substr(offset, enc_len);
    offset += enc_len;
    if (enc_crc != Crc32c(enc.data(), enc.size(), meta_crc)) {
      return Corrupt("block CRC mismatch");
    }
    F2DB_RETURN_IF_ERROR(
        DecodeSeriesBlock(enc, count, &times, &series.values));
    for (std::uint32_t i = 0; i < count; ++i) {
      if (times[i] != segment.start_time + static_cast<std::int64_t>(i)) {
        return Corrupt("irregular time axis");
      }
    }
    segment.series.push_back(std::move(series));
  }
  if (offset != bytes.size()) return Corrupt("trailing bytes");
  return segment;
}

Status WriteSegmentFile(const std::string& dir, const SegmentData& segment,
                        std::uint64_t* bytes_written) {
  F2DB_ASSIGN_OR_RETURN(const std::string bytes, EncodeSegment(segment));
  F2DB_RETURN_IF_ERROR(WriteFileDurably(SegmentPath(dir, segment.seq), bytes,
                                        /*hook_before_rename=*/nullptr,
                                        /*hook_after_rename=*/nullptr,
                                        kIoSiteSegmentWrite));
  if (bytes_written != nullptr) *bytes_written = bytes.size();
  FireStorageCrashHook("segment_written");
  return Status::OK();
}

Result<SegmentData> ReadSegmentFile(const std::string& path) {
  F2DB_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  auto decoded = DecodeSegment(bytes);
  if (!decoded.ok()) {
    return Status(decoded.status().code(),
                  path + ": " + decoded.status().message());
  }
  return decoded;
}

}  // namespace f2db::storage
