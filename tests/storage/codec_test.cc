// Segment codec tests: the delta-of-delta + Gorilla-XOR bit format pinned
// golden, property round-tripped, and hardened against truncation.
//
// The golden pin is load-bearing: segment v1 files live on disk across
// binary upgrades, so any change to the bit layout must either reproduce
// these exact bytes or bump kSegmentFormatVersion.

#include "storage/codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "testing/property.h"
#include "testing/replay_hint.h"

namespace f2db::storage {
namespace {

using testing::PropertyIterations;
using testing::PropertySeed;
using testing::ReplayHint;
using testing::SubSeed;

/// Bit-exact comparison: NaN payloads, signed zeroes, and denormals must
/// all survive the XOR compressor unchanged.
bool SameBits(double a, double b) {
  std::uint64_t ab = 0, bb = 0;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

void ExpectRoundTrip(const std::vector<std::int64_t>& times,
                     const std::vector<double>& values,
                     const std::string& context) {
  auto block = EncodeSeriesBlock(times, values);
  ASSERT_TRUE(block.ok()) << context << ": " << block.status().ToString();
  std::vector<std::int64_t> got_times;
  std::vector<double> got_values;
  ASSERT_TRUE(
      DecodeSeriesBlock(block.value(), times.size(), &got_times, &got_values)
          .ok())
      << context;
  ASSERT_EQ(got_times.size(), times.size()) << context;
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(got_times[i], times[i]) << context << " point " << i;
    EXPECT_TRUE(SameBits(got_values[i], values[i]))
        << context << " point " << i << ": " << values[i] << " vs "
        << got_values[i];
  }
}

TEST(SegmentCodecTest, GoldenBitPin) {
  // Dense timestamps (every delta-of-delta zero after the first delta) and
  // values exercising the repeat, same-window, and new-window XOR paths.
  const std::vector<std::int64_t> times = {3, 4, 5, 6, 7};
  const std::vector<double> values = {10.0, 10.0, 12.5, 12.5, -3.0};
  auto block = EncodeSeriesBlock(times, values);
  ASSERT_TRUE(block.ok());
  const std::string golden(
      "\x06\x40\x24\x00\x00\x00\x00\x00\x00\x81\x1b\x04\xd1\x81\x08\x02"
      "\x10",
      17);
  EXPECT_EQ(block.value(), golden);
}

TEST(SegmentCodecTest, EmptyBlock) {
  auto block = EncodeSeriesBlock({}, {});
  ASSERT_TRUE(block.ok());
  EXPECT_TRUE(block.value().empty());
  std::vector<std::int64_t> times;
  std::vector<double> values;
  EXPECT_TRUE(DecodeSeriesBlock("", 0, &times, &values).ok());
  EXPECT_TRUE(times.empty());
  EXPECT_TRUE(values.empty());
}

TEST(SegmentCodecTest, RoundTripEdgeValues) {
  // NaN-adjacent and boundary bit patterns, in one block so the XOR chain
  // crosses every special value.
  const double quiet_nan = std::numeric_limits<double>::quiet_NaN();
  double payload_nan = quiet_nan;
  {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &payload_nan, sizeof(bits));
    bits |= 0x000DEADBEEFULL;  // non-default payload must survive
    std::memcpy(&payload_nan, &bits, sizeof(bits));
  }
  const std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      quiet_nan,
      payload_nan,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::min(),
      1.0,
  };
  std::vector<std::int64_t> times(values.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    times[i] = static_cast<std::int64_t>(i);
  }
  ExpectRoundTrip(times, values, "edge values");
}

TEST(SegmentCodecTest, OverlongFirstTimeVarintRejected) {
  // A 10-byte varint whose final byte sets bits beyond bit 63 would be
  // silently truncated by the shift; the decoder must reject the
  // non-canonical spelling like every other malformed input.
  std::string block(9, '\xff');
  block.push_back('\x7f');   // bits 69..63 set — beyond the u64 range
  block.append(8, '\x00');   // first value word
  std::vector<std::int64_t> times;
  std::vector<double> values;
  EXPECT_FALSE(DecodeSeriesBlock(block, 1, &times, &values).ok());
}

TEST(SegmentCodecTest, TenByteCanonicalVarintRoundTrips) {
  // INT64_MIN zigzags to UINT64_MAX — the canonical 10-byte varint whose
  // last byte is exactly 0x01. It must still decode.
  ExpectRoundTrip({std::numeric_limits<std::int64_t>::min()}, {1.5},
                  "10-byte canonical varint");
}

TEST(SegmentCodecTest, RoundTripConstantRuns) {
  // Long constant runs are the best case: one bit per repeated point.
  const std::vector<double> values(500, 42.25);
  std::vector<std::int64_t> times(values.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    times[i] = 100 + static_cast<std::int64_t>(i);
  }
  auto block = EncodeSeriesBlock(times, values);
  ASSERT_TRUE(block.ok());
  // ~9 bytes of bootstrap + ~2 bits per (timestamp, value) pair after.
  EXPECT_LT(block.value().size(), 16 + 2 * values.size() / 8);
  ExpectRoundTrip(times, values, "constant run");
}

TEST(SegmentCodecTest, RoundTripRandomSeries) {
  const std::uint64_t base = PropertySeed();
  const std::size_t iterations = PropertyIterations(50);
  for (std::size_t i = 0; i < iterations; ++i) {
    Rng rng(SubSeed(base, "codec-random-" + std::to_string(i)));
    const std::size_t n =
        static_cast<std::size_t>(rng.UniformInt(1, 400));
    std::vector<std::int64_t> times(n);
    std::vector<double> values(n);
    std::int64_t t = rng.UniformInt(-1000, 1000);
    double level = rng.Uniform(-100.0, 100.0);
    for (std::size_t j = 0; j < n; ++j) {
      // Irregular timestamps: dense runs, gaps, occasional huge jumps.
      times[j] = t;
      t += rng.NextBernoulli(0.1) ? rng.UniformInt(1, 1 << 20)
                                  : rng.UniformInt(1, 3);
      level += rng.Gaussian(0.0, 5.0);
      values[j] = rng.NextBernoulli(0.05) ? 0.0 : level;
    }
    ExpectRoundTrip(times, values,
                    "random series " + std::to_string(i) + "\n" +
                        ReplayHint(base));
  }
}

TEST(SegmentCodecTest, EveryTruncationRejected) {
  const std::vector<std::int64_t> times = {3, 4, 5, 9, 10, 11, 40};
  const std::vector<double> values = {1.5, 2.5, 2.5, -7.0, 0.0, 1e300, -0.0};
  auto block = EncodeSeriesBlock(times, values);
  ASSERT_TRUE(block.ok());
  std::vector<std::int64_t> got_times;
  std::vector<double> got_values;
  for (std::size_t len = 0; len < block.value().size(); ++len) {
    const Status status =
        DecodeSeriesBlock(std::string_view(block.value()).substr(0, len),
                          times.size(), &got_times, &got_values);
    EXPECT_FALSE(status.ok()) << "decoded from a " << len << "-byte prefix";
  }
}

TEST(SegmentCodecTest, CountMismatchRejected) {
  // The count lives in the CRC-authenticated block header, so disk
  // corruption can never reach the decoder with a wrong count; these
  // bounds are for API misuse. A too-small count leaves non-zero payload
  // bits behind; a too-large one eventually exhausts the stream. (A count
  // off by one CAN alias the zero padding as a phantom repeat point —
  // inherent to Gorilla-style zero-biased buckets, and exactly why the
  // count is CRC-framed.)
  const std::vector<std::int64_t> times = {1, 2, 3};
  const std::vector<double> values = {5.0, 6.0, 7.0};
  auto block = EncodeSeriesBlock(times, values);
  ASSERT_TRUE(block.ok());
  std::vector<std::int64_t> got_times;
  std::vector<double> got_values;
  EXPECT_FALSE(
      DecodeSeriesBlock(block.value(), 2, &got_times, &got_values).ok());
  EXPECT_FALSE(
      DecodeSeriesBlock(block.value(), 16, &got_times, &got_values).ok());
}

TEST(SegmentCodecTest, NonzeroPaddingRejected) {
  const std::vector<std::int64_t> times = {1, 2, 3};
  const std::vector<double> values = {5.0, 6.25, 7.0};
  auto block = EncodeSeriesBlock(times, values);
  ASSERT_TRUE(block.ok());
  std::string tampered = block.value();
  tampered.back() = static_cast<char>(tampered.back() | 0x01);
  std::vector<std::int64_t> got_times;
  std::vector<double> got_values;
  const Status status =
      DecodeSeriesBlock(tampered, times.size(), &got_times, &got_values);
  EXPECT_FALSE(status.ok());
}

TEST(SegmentCodecTest, BitIoRoundTrip) {
  BitWriter writer;
  writer.PutBit(true);
  writer.PutBits(0x2Au, 7);
  writer.PutBits(0xDEADBEEFCAFEF00DULL, 64);
  writer.PutBit(false);
  writer.PutBit(true);
  const std::string bytes = writer.Take();
  BitReader reader(bytes);
  bool bit = false;
  std::uint64_t word = 0;
  ASSERT_TRUE(reader.GetBit(&bit));
  EXPECT_TRUE(bit);
  ASSERT_TRUE(reader.GetBits(7, &word));
  EXPECT_EQ(word, 0x2Au);
  ASSERT_TRUE(reader.GetBits(64, &word));
  EXPECT_EQ(word, 0xDEADBEEFCAFEF00DULL);
  ASSERT_TRUE(reader.GetBit(&bit));
  EXPECT_FALSE(bit);
  ASSERT_TRUE(reader.GetBit(&bit));
  EXPECT_TRUE(bit);
  EXPECT_TRUE(reader.PaddingIsZero());
  // Exhaustion is reported, not UB.
  BitReader empty("");
  EXPECT_FALSE(empty.GetBit(&bit));
  EXPECT_FALSE(empty.GetBits(1, &word));
}

}  // namespace
}  // namespace f2db::storage
