#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/rng.h"
#include "trace/trace_io.h"

namespace leopard {
namespace {

std::vector<Trace> SampleTraces() {
  Trace locking_read = MakeReadTrace(5, 1, {10, 20}, {{1, 100}});
  locking_read.for_update = true;
  Trace scan = MakeReadTrace(5, 1, {22, 25}, {{2, 200}});
  scan.range_first = 2;
  scan.range_count = 4;
  Trace miss = MakeReadTrace(5, 1, {26, 27}, {});
  miss.absent_reads = {7, 9};
  return {
      MakeWriteTrace(0, 0, {1, 2}, {{1, 100}, {2, 200}}),
      MakeCommitTrace(0, 0, {3, 4}),
      locking_read,
      scan,
      miss,
      MakeWriteTrace(5, 1, {30, 33}, {{2, 777}, {3, kTombstoneValue}}),
      MakeAbortTrace(5, 1, {40, 41}),
  };
}

TEST(TraceIoTest, EncodeDecodeRoundTrip) {
  auto traces = SampleTraces();
  auto decoded = DecodeTraces(EncodeTraces(traces));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), traces.size());
  for (size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ((*decoded)[i].ToString(), traces[i].ToString());
  }
  // Extended fields survive the round trip.
  EXPECT_TRUE((*decoded)[2].for_update);
  EXPECT_EQ((*decoded)[3].range_first, 2u);
  EXPECT_EQ((*decoded)[3].range_count, 4u);
  EXPECT_EQ((*decoded)[4].absent_reads, (std::vector<Key>{7, 9}));
  EXPECT_EQ((*decoded)[5].write_set[1].value, kTombstoneValue);
}

// Regression for the campaign path: a range scan's scanned interval
// [range_first, range_first + range_count) must survive the codec
// *bit-exactly* — decode followed by re-encode reproduces the original
// bytes, so no field (range bounds, absent keys, FOR UPDATE flag, ...) is
// silently normalized or dropped anywhere in the record layout.
TEST(TraceIoTest, RangeScanReencodeIsByteIdentical) {
  Trace scan = MakeReadTrace(11, 3, {100, 140}, {{64, 7}, {66, 9}});
  scan.range_first = 64;
  scan.range_count = 16;
  scan.absent_reads = {65, 67, 79};
  Trace edge = MakeReadTrace(12, 3, {150, 151}, {});
  edge.range_first = ~Key{0} - 3;  // scan window touching the key-space end
  edge.range_count = 4;
  edge.for_update = true;
  const std::vector<Trace> traces = {scan, edge};

  const std::string bytes = EncodeTraces(traces);
  auto decoded = DecodeTraces(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), traces.size());
  EXPECT_EQ((*decoded)[0].range_first, 64u);
  EXPECT_EQ((*decoded)[0].range_count, 16u);
  EXPECT_EQ((*decoded)[0].absent_reads, (std::vector<Key>{65, 67, 79}));
  EXPECT_EQ((*decoded)[1].range_first, ~Key{0} - 3);
  EXPECT_EQ((*decoded)[1].range_count, 4u);
  EXPECT_TRUE((*decoded)[1].for_update);
  EXPECT_EQ(EncodeTraces(*decoded), bytes);
}

TEST(TraceIoTest, EmptyStreamRoundTrip) {
  auto decoded = DecodeTraces(EncodeTraces({}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(TraceIoTest, RejectsWrongMagic) {
  EXPECT_FALSE(DecodeTraces("not a trace file").ok());
  EXPECT_FALSE(DecodeTraces("").ok());
}

TEST(TraceIoTest, RejectsTruncated) {
  std::string bytes = EncodeTraces(SampleTraces());
  for (size_t cut : {bytes.size() - 1, bytes.size() - 7, size_t{12}}) {
    EXPECT_FALSE(DecodeTraces(bytes.substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

TEST(TraceIoTest, RejectsBadOpCode) {
  std::string bytes = EncodeTraces({MakeCommitTrace(1, 0, {1, 2})});
  bytes[8] = 9;  // corrupt the op byte after the magic
  EXPECT_FALSE(DecodeTraces(bytes).ok());
}

// The fixed-size record header is 29 bytes (op u8, client u32, txn u64,
// ts_bef u64, ts_aft u64), so the first record's read-set count lives at
// bytes 37..40 of the encoded stream (after the 8-byte magic).
constexpr size_t kFirstReadCountOffset = 8 + 29;

TEST(TraceIoTest, RejectsAbsurdSetLength) {
  // A count field of 0xFFFFFFFF must fail cleanly — and before any
  // allocation sized from it (a naive reserve would ask for 64 GiB).
  std::string bytes = EncodeTraces({MakeReadTrace(1, 0, {1, 2}, {{1, 7}})});
  for (size_t i = 0; i < 4; ++i) {
    bytes[kFirstReadCountOffset + i] = static_cast<char>(0xff);
  }
  auto decoded = DecodeTraces(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("absurd"), std::string::npos)
      << decoded.status();
}

TEST(TraceIoTest, RejectsCountBeyondRemainingBytes) {
  // A plausible-looking count that the remaining bytes cannot hold (65536
  // entries = 1 MiB claimed, a few bytes present) is rejected up front.
  std::string bytes = EncodeTraces({MakeReadTrace(1, 0, {1, 2}, {{1, 7}})});
  bytes[kFirstReadCountOffset] = 0;
  bytes[kFirstReadCountOffset + 1] = 0;
  bytes[kFirstReadCountOffset + 2] = 1;  // little-endian 0x00010000
  bytes[kFirstReadCountOffset + 3] = 0;
  auto decoded = DecodeTraces(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(TraceIoTest, DecodeErrorsCarryRecordContext) {
  auto traces = SampleTraces();
  std::string bytes = EncodeTraces(traces);
  // Cut past the 8-byte integrity footer and into the last record, so the
  // failure is a genuine mid-record truncation.
  auto decoded = DecodeTraces(bytes.substr(0, bytes.size() - 11));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("record "), std::string::npos)
      << decoded.status();
}

TEST(TraceIoTest, TruncationInsideFooterIsAPartialSentinel) {
  // A cut inside the footer itself is not a record error: the sentinel was
  // reached, so integrity was promised but cannot be verified.
  std::string bytes = EncodeTraces(SampleTraces());
  auto decoded = DecodeTraces(bytes.substr(0, bytes.size() - 3));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("partial CRC sentinel"),
            std::string::npos)
      << decoded.status();
}

TEST(TraceIoTest, CorruptFileErrorsNameThePath) {
  std::string path = ::testing::TempDir() + "/leopard_trace_io_corrupt.bin";
  std::string bytes = EncodeTraces(SampleTraces());
  bytes.resize(bytes.size() - 5);  // truncate mid-record
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  }
  auto read = ReadTraceFile(path);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find(path), std::string::npos)
      << read.status();
  std::remove(path.c_str());
}

TEST(TraceIoTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/leopard_trace_io_test.bin";
  auto traces = SampleTraces();
  ASSERT_TRUE(WriteTraceFile(path, traces).ok());
  auto read = ReadTraceFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  ASSERT_EQ(read->size(), traces.size());
  EXPECT_EQ((*read)[2].ToString(), traces[2].ToString());
  std::remove(path.c_str());
}

TEST(TraceIoTest, CrcFooterIsWrittenAndVerified) {
  std::string bytes = EncodeTraces(SampleTraces());
  bool had_crc = false;
  auto decoded = DecodeTraces(bytes, &had_crc);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(had_crc);
  EXPECT_EQ(decoded->size(), SampleTraces().size());
}

TEST(TraceIoTest, CrcMismatchIsAHardError) {
  std::string bytes = EncodeTraces(SampleTraces());
  // Flip one payload bit: every record still parses, the checksum must not.
  bytes[20] = static_cast<char>(bytes[20] ^ 0x01);
  auto decoded = DecodeTraces(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("checksum"), std::string::npos)
      << decoded.status();
}

TEST(TraceIoTest, LegacyFileWithoutFooterStillDecodes) {
  auto traces = SampleTraces();
  // Reconstruct the pre-footer layout: magic + records, no trailer.
  std::string bytes = EncodeTraces(traces);
  bytes.resize(bytes.size() - 8);
  bool had_crc = true;
  auto decoded = DecodeTraces(bytes, &had_crc);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_FALSE(had_crc);
  ASSERT_EQ(decoded->size(), traces.size());
  EXPECT_EQ((*decoded)[0].ToString(), traces[0].ToString());
}

/// The bytewise table-driven CRC32 that every footer was written with before
/// the slicing-by-8 kernel; the reference the kernel must match bit for bit.
uint32_t BytewiseCrc32(const std::string& bytes) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  uint32_t crc = 0xFFFFFFFFu;
  for (char ch : bytes) {
    crc = table[(crc ^ static_cast<uint8_t>(ch)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string RandomBytes(Rng& rng, size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.Next());
  return out;
}

TEST(Crc32Test, StandardCheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(check.data(), 0), 0u);
}

TEST(Crc32Test, MatchesBytewiseReferenceOnRandomBuffers) {
  Rng rng(7);
  for (size_t n : {1u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 64u, 1000u, 65539u}) {
    const std::string buf = RandomBytes(rng, n + 3);
    // Every start alignment: the kernel reads 8-byte words at any offset.
    for (size_t start = 0; start < 4; ++start) {
      const std::string part = buf.substr(start, n);
      EXPECT_EQ(Crc32(part.data(), part.size()), BytewiseCrc32(part))
          << "n=" << n << " start=" << start;
      EXPECT_EQ(Crc32(buf.data() + start, n), BytewiseCrc32(part))
          << "n=" << n << " start=" << start;
    }
  }
}

TEST(Crc32Test, StreamedAtEverySplitEqualsOneShot) {
  Rng rng(11);
  const std::string buf = RandomBytes(rng, 200);
  const uint32_t whole = Crc32(buf.data(), buf.size());
  for (size_t split = 0; split <= buf.size(); ++split) {
    const uint32_t head = Crc32Update(0, buf.data(), split);
    EXPECT_EQ(Crc32Update(head, buf.data() + split, buf.size() - split),
              whole)
        << "split " << split;
  }
  // Many small appends, as the WAL folds batch after batch.
  uint32_t crc = 0;
  for (size_t pos = 0, step = 1; pos < buf.size(); pos += step, ++step) {
    crc = Crc32Update(crc, buf.data() + pos, std::min(step, buf.size() - pos));
  }
  EXPECT_EQ(crc, whole);
}

TEST(TraceIoTest, MissingFileIsNotFound) {
  auto read = ReadTraceFile("/no/such/leopard/file");
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace leopard
