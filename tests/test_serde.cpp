// SPDX-License-Identifier: MIT

#include "common/serde.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>

#include "alloc_probe.h"
#include "net/wire.h"
#include "recovery/crc32.h"

namespace scec {
namespace {

TEST(Serde, ScalarRoundTrip) {
  std::string buf;
  BinaryWriter writer(&buf);
  writer.WriteU8(0xAB);
  writer.WriteU32(0xDEADBEEF);
  writer.WriteU64(0x0123456789ABCDEFULL);
  writer.WriteDouble(3.141592653589793);
  writer.WriteDouble(-0.0);
  writer.WriteDouble(std::numeric_limits<double>::infinity());
  EXPECT_EQ(buf.size(), 1u + 4 + 8 + 3 * 8);

  BinaryReader reader(buf);
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  double d1, d2, d3;
  ASSERT_TRUE(reader.ReadU8(&u8).ok());
  ASSERT_TRUE(reader.ReadU32(&u32).ok());
  ASSERT_TRUE(reader.ReadU64(&u64).ok());
  ASSERT_TRUE(reader.ReadDouble(&d1).ok());
  ASSERT_TRUE(reader.ReadDouble(&d2).ok());
  ASSERT_TRUE(reader.ReadDouble(&d3).ok());
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(d1, 3.141592653589793);
  EXPECT_EQ(d2, 0.0);
  EXPECT_TRUE(std::signbit(d2));
  EXPECT_TRUE(std::isinf(d3));
}

TEST(Serde, LittleEndianOnTheWire) {
  std::string buf;
  BinaryWriter writer(&buf);
  writer.WriteU32(0x04030201u);
  writer.WriteU64Vector({0x0807060504030201ull});
  EXPECT_EQ(buf, std::string("\x01\x02\x03\x04\x01\x00\x00\x00"
                             "\x01\x02\x03\x04\x05\x06\x07\x08",
                             16));
}

TEST(Serde, StringRoundTrip) {
  std::string buf;
  BinaryWriter writer(&buf);
  writer.WriteString("hello");
  writer.WriteString("");
  writer.WriteString(std::string("\0with\0nuls", 10));

  BinaryReader reader(buf);
  std::string a, b, c;
  ASSERT_TRUE(reader.ReadString(&a).ok());
  ASSERT_TRUE(reader.ReadString(&b).ok());
  ASSERT_TRUE(reader.ReadString(&c).ok());
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c, std::string("\0with\0nuls", 10));
}

TEST(Serde, VectorRoundTrip) {
  std::string buf;
  BinaryWriter writer(&buf);
  writer.WriteU64Vector({1, 2, 3});
  writer.WriteSizeVector({7, 8});
  writer.WriteDoubleVector({1.5, -2.5});
  writer.WriteDoubleVector({});

  BinaryReader reader(buf);
  std::vector<uint64_t> u;
  std::vector<size_t> s;
  std::vector<double> d, empty{9.0};
  ASSERT_TRUE(reader.ReadU64Vector(&u).ok());
  ASSERT_TRUE(reader.ReadSizeVector(&s).ok());
  ASSERT_TRUE(reader.ReadDoubleVector(&d).ok());
  ASSERT_TRUE(reader.ReadDoubleVector(&empty).ok());
  EXPECT_EQ(u, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(s, (std::vector<size_t>{7, 8}));
  EXPECT_EQ(d, (std::vector<double>{1.5, -2.5}));
  EXPECT_TRUE(empty.empty());
}

TEST(Serde, WriterAppendsToTheCallersBuffer) {
  std::string buf = "head";
  BinaryWriter writer(&buf);
  writer.WriteU32(0);
  writer.WriteBytes("tail");
  writer.PatchU32(4, 0x64636261u);
  EXPECT_EQ(buf, "headabcdtail");
}

TEST(Serde, ReaderIsACursorOverAView) {
  const std::string buf = "abcdefgh";
  BinaryReader reader(buf);
  std::string_view head;
  ASSERT_TRUE(reader.ReadBytes(3, &head).ok());
  EXPECT_EQ(head, "abc");
  EXPECT_EQ(head.data(), buf.data());  // a view, not a copy
  EXPECT_EQ(reader.offset(), 3u);
  EXPECT_EQ(reader.remaining(), 5u);
  EXPECT_EQ(reader.ReadBytes(6, &head).code(), ErrorCode::kDecodeFailure);
}

TEST(Serde, TruncatedStreamIsDecodeFailure) {
  std::string buf;
  BinaryWriter writer(&buf);
  writer.WriteU32(42);

  BinaryReader reader(buf);
  uint64_t v;  // asks for 8 bytes but only 4 available
  const Status status = reader.ReadU64(&v);
  EXPECT_EQ(status.code(), ErrorCode::kDecodeFailure);
}

TEST(Serde, OversizedStringRejected) {
  std::string buf;
  BinaryWriter writer(&buf);
  writer.WriteU32(1000);  // claims 1000 bytes, provides none
  BinaryReader reader(buf);
  std::string s;
  EXPECT_EQ(reader.ReadString(&s, /*max_len=*/10).code(),
            ErrorCode::kDecodeFailure);
}

TEST(Serde, OversizedVectorRejected) {
  std::string buf;
  BinaryWriter writer(&buf);
  writer.WriteU32(0xFFFFFFFF);
  BinaryReader reader(buf);
  std::vector<uint64_t> v;
  EXPECT_EQ(reader.ReadU64Vector(&v, 100).code(), ErrorCode::kDecodeFailure);
}

TEST(Serde, EmptyStreamFailsCleanly) {
  BinaryReader reader(std::string_view{});
  uint8_t v;
  EXPECT_FALSE(reader.ReadU8(&v).ok());
}

TEST(Serde, StreamEdgesWriteOnceAndReadToTheEnd) {
  std::stringstream stream;
  ASSERT_TRUE(WriteToStream(stream, std::string_view("bytes\0in", 8)).ok());
  EXPECT_EQ(ReadStream(stream), std::string("bytes\0in", 8));
}

// A count whose bytes exceed remaining() is rejected before any resize, so
// a hostile prefix cannot make the reader allocate more than its input.
TEST(SerdeHostileLength, CountsBeyondTheInputAreRejectedBeforeAllocating) {
  std::string hostile;
  BinaryWriter writer(&hostile);
  writer.WriteU32(1u << 26);  // within max_len, far beyond the input
  writer.WriteU64(7);
  testutil::ScopedAllocProbe probe;
  std::vector<double> d;
  std::vector<uint64_t> u;
  std::vector<size_t> s;
  std::string str;
  EXPECT_EQ(BinaryReader(hostile).ReadDoubleVector(&d).code(),
            ErrorCode::kDecodeFailure);
  EXPECT_EQ(BinaryReader(hostile).ReadU64Vector(&u).code(),
            ErrorCode::kDecodeFailure);
  EXPECT_EQ(BinaryReader(hostile).ReadSizeVector(&s).code(),
            ErrorCode::kDecodeFailure);
  EXPECT_EQ(BinaryReader(hostile).ReadString(&str, 1u << 30).code(),
            ErrorCode::kDecodeFailure);
  EXPECT_TRUE(d.empty() && u.empty() && s.empty() && str.empty());
  if (testutil::kAllocProbeActive) {
    // Only the error text of the returned Status is allocated.
    EXPECT_LE(probe.largest(), 64u);
  }
}

TEST(SerdeHostileLength, QueryBodyWithHugeCountAllocatesNoMoreThanItsInput) {
  // rpc_id, share_id, then a vector count of 2^26 with no values behind it.
  std::string body;
  BinaryWriter writer(&body);
  writer.WriteU64(1);
  writer.WriteU64(2);
  writer.WriteU32(1u << 26);
  ASSERT_EQ(body.size(), 20u);
  size_t largest = 0;
  const Result<net::QueryMsg> decoded = [&] {
    testutil::ScopedAllocProbe probe;
    Result<net::QueryMsg> result = net::QueryMsg::Decode(body);
    largest = probe.largest();
    return result;
  }();
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kDecodeFailure);
  if (!testutil::kAllocProbeActive) GTEST_SKIP() << "allocator not probed";
  // Nothing larger than the input is allocated, apart from the Status's own
  // error text.
  EXPECT_LE(largest,
            std::max(body.size(), decoded.status().message().size() + 1));
}

// The byte-at-a-time definition the slice-by-8 Crc32 must agree with.
uint32_t ReferenceCrc32(const unsigned char* p, size_t len) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownAnswer) {
  EXPECT_EQ(recovery::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(recovery::Crc32("", 0), 0u);
}

TEST(Crc32, SliceBy8MatchesByteAtATimeAtEveryLengthAndAlignment) {
  std::array<unsigned char, 2100 + 8> buf;
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& b : buf) {
    x ^= x << 13, x ^= x >> 7, x ^= x << 17;
    b = static_cast<unsigned char>(x);
  }
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; len <= 2100; ++len) {
      ASSERT_EQ(recovery::Crc32(buf.data() + start, len),
                ReferenceCrc32(buf.data() + start, len))
          << "start " << start << " len " << len;
    }
  }
}

TEST(Crc32, SeedChainsAcrossSplits) {
  const std::string text = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = recovery::Crc32(text.data(), text.size());
  for (size_t cut = 0; cut <= text.size(); ++cut) {
    const uint32_t head = recovery::Crc32(text.data(), cut);
    EXPECT_EQ(recovery::Crc32(text.data() + cut, text.size() - cut, head),
              whole);
  }
}

}  // namespace
}  // namespace scec
