// Bit-level time-series compression for sealed segments (DESIGN.md §13).
//
// One series block encodes N (timestamp, value) points:
//
//   zigzag varint t[0]                                  (byte-aligned)
//   64 raw bits of value[0]                             (bit stream from here)
//   per point i >= 1:
//     timestamp: delta-of-delta, zigzagged, bucketed
//       dod == 0        -> '0'
//       fits  7 bits    -> '10'   + 7 bits
//       fits  9 bits    -> '110'  + 9 bits
//       fits 12 bits    -> '1110' + 12 bits
//       else            -> '1111' + 64 bits
//     value: Gorilla-style XOR against the previous value
//       xor == 0                         -> '0'
//       fits the previous window         -> '1' '0' + window bits
//       new window                       -> '1' '1' + 5-bit leading-zero
//                                           count + 6-bit length (0 = 64)
//                                           + meaningful bits
//
// The stream is padded to a byte boundary with zero bits; the decoder
// verifies the padding so truncation and trailing garbage are detected
// even before the segment CRC check. Values are compressed at the bit
// level, so every double bit pattern round-trips exactly (NaN payloads,
// infinities, negative zero, denormals). Timestamps may be irregular; the
// only requirement is that consecutive deltas fit in int64.
//
// The point count is NOT part of the block — the segment frames each
// block with an explicit count and a CRC (segment.h).
//
// The fixed-width little-endian integers of the WAL frames and the segment
// headers are written and read by the Put/Get helpers at the end.

#ifndef F2DB_STORAGE_CODEC_H_
#define F2DB_STORAGE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace f2db::storage {

/// Appends bits MSB-first into a byte string.
class BitWriter {
 public:
  void PutBit(bool bit);
  /// Appends the low `count` bits of `value`, most significant first.
  void PutBits(std::uint64_t value, int count);
  /// The stream so far, zero-padded to a byte boundary.
  std::string Take() { return std::move(bytes_); }
  std::size_t size_bytes() const { return bytes_.size(); }

 private:
  std::string bytes_;
  int free_bits_ = 0;  ///< Unused low bits of the last byte.
};

/// Reads bits MSB-first from a byte string; all reads are bounds-checked.
class BitReader {
 public:
  explicit BitReader(std::string_view bytes) : bytes_(bytes) {}

  /// False when the stream is exhausted.
  bool GetBit(bool* out);
  /// Reads `count` bits into the low bits of `*out`; false on overrun.
  bool GetBits(int count, std::uint64_t* out);
  /// Bits left in the stream (including byte padding).
  std::size_t remaining_bits() const {
    return bytes_.size() * 8 - consumed_bits_;
  }
  /// True when every remaining bit (at most 7 of padding) is zero.
  bool PaddingIsZero();

 private:
  std::string_view bytes_;
  std::size_t consumed_bits_ = 0;
};

/// Compresses aligned timestamp/value columns into one block.
/// `times.size()` must equal `values.size()`; empty input yields an empty
/// block.
Result<std::string> EncodeSeriesBlock(const std::vector<std::int64_t>& times,
                                      const std::vector<double>& values);

/// Decompresses a block of exactly `count` points. Truncated or malformed
/// input (including nonzero padding) fails with InvalidArgument and leaves
/// the outputs unspecified.
Status DecodeSeriesBlock(std::string_view block, std::size_t count,
                         std::vector<std::int64_t>* times,
                         std::vector<double>* values);

/// Appends `v` as 4 little-endian bytes.
inline void PutU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

/// Appends `v` as 8 little-endian bytes.
inline void PutU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

/// Reads 4 little-endian bytes at `p`.
inline std::uint32_t GetU32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  return v;
}

/// Reads 8 little-endian bytes at `p`.
inline std::uint64_t GetU64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  return v;
}

}  // namespace f2db::storage

#endif  // F2DB_STORAGE_CODEC_H_
