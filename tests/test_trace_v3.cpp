/**
 * @file
 * Tests for the v3 block-framed trace format: the whole-file read and
 * write status contract, block framing and the strict corruption
 * contract, and the bounded-memory streaming source.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.hpp"
#include "common/io.hpp"
#include "trace/streaming_source.hpp"
#include "trace/trace_v3.hpp"
#include "trace/varint.hpp"
#include "workloads/workload.hpp"

namespace vpsim
{
namespace
{

std::string
tempPath(const std::string &name)
{
    const char *dir = std::getenv("TMPDIR");
    return std::string(dir ? dir : "/tmp") + "/" + name;
}

struct InjectorGuard
{
    ~InjectorGuard() { io::configureFaultInjection(""); }
};

std::vector<unsigned char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<unsigned char>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::vector<unsigned char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/**
 * Walk the block frames of a v3 image and return the file offset of
 * block @p index's frame header (records seen before it in *skipped).
 */
std::size_t
blockOffset(const std::vector<unsigned char> &bytes, std::size_t index,
            std::uint64_t *records_before = nullptr,
            std::uint32_t *record_count = nullptr)
{
    auto u32 = [&bytes](std::size_t at) {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(bytes[at + i]) << (8 * i);
        return v;
    };
    std::size_t offset = v3HeaderBytes;
    std::uint64_t before = 0;
    for (std::size_t b = 0;; ++b) {
        EXPECT_EQ(std::string(bytes.begin() + offset,
                              bytes.begin() + offset + 4),
                  "VPB3");
        const std::uint32_t count = u32(offset + 4);
        if (b == index) {
            if (records_before)
                *records_before = before;
            if (record_count)
                *record_count = count;
            return offset;
        }
        before += count;
        offset += v3BlockFrameBytes + u32(offset + 8) + 4;
    }
}

void
expectSameRecords(const std::vector<TraceRecord> &got,
                  const std::vector<TraceRecord> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i].seq, want[i].seq) << "record " << i;
        ASSERT_EQ(got[i].pc, want[i].pc) << "record " << i;
        ASSERT_EQ(got[i].nextPc, want[i].nextPc) << "record " << i;
        ASSERT_EQ(got[i].result, want[i].result) << "record " << i;
        ASSERT_EQ(got[i].op, want[i].op) << "record " << i;
        ASSERT_EQ(got[i].rd, want[i].rd) << "record " << i;
        ASSERT_EQ(got[i].rs1, want[i].rs1) << "record " << i;
        ASSERT_EQ(got[i].rs2, want[i].rs2) << "record " << i;
        ASSERT_EQ(got[i].taken, want[i].taken) << "record " << i;
    }
}

// TraceIo: the whole-file readTraceV3()/writeTraceV3() contract at the
// default block size, the configuration every trace-cache entry uses.

TEST(TraceIo, RoundTripsARealTrace)
{
    const auto original = captureWorkloadTrace("compress", 5000);
    const std::string path = tempPath("vpsim_roundtrip.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original).isOk());
    std::vector<TraceRecord> reloaded;
    ASSERT_TRUE(readTraceV3(path, &reloaded).isOk());
    expectSameRecords(reloaded, original);
    std::remove(path.c_str());
}

TEST(TraceIo, EmptyTraceRoundTrips)
{
    // An empty file must also stream as a clean, immediate end.
    const std::string path = tempPath("vpsim_empty.vptrace");
    ASSERT_TRUE(writeTraceV3(path, {}).isOk());
    StreamingTraceSource source;
    ASSERT_TRUE(source.open(path).isOk());
    TraceSpan block;
    EXPECT_FALSE(source.nextBlock(block));
    EXPECT_TRUE(source.status().isOk()) << source.status().message();
    std::remove(path.c_str());
}

TEST(TraceIo, StatusApiRoundTrips)
{
    // One record per block: the most framing per record the format
    // allows.
    const auto original = captureWorkloadTrace("go", 2000);
    const std::string path = tempPath("vpsim_status_roundtrip.vptrace");
    const Status written = writeTraceV3(path, original, 1);
    ASSERT_TRUE(written.isOk()) << written.message();
    std::vector<TraceRecord> reloaded;
    const Status read = readTraceV3(path, &reloaded);
    ASSERT_TRUE(read.isOk()) << read.message();
    expectSameRecords(reloaded, original);
    std::remove(path.c_str());
}

TEST(TraceIo, StatusApiNamesTheMissingFile)
{
    const std::string path = tempPath("vpsim_status_missing.vptrace");
    std::vector<TraceRecord> out;
    const Status read = readTraceV3(path, &out);
    ASSERT_FALSE(read.isOk());
    EXPECT_EQ(read.code(), StatusCode::kIo);
    EXPECT_NE(read.message().find(path), std::string::npos)
        << "error must name the offending file: " << read.message();
}

TEST(TraceIo, StatusApiRejectsTrailingBytes)
{
    const std::string path = tempPath("vpsim_status_trailing.vptrace");
    ASSERT_TRUE(
        writeTraceV3(path, captureWorkloadTrace("go", 100)).isOk());
    std::vector<unsigned char> bytes = slurp(path);
    bytes.push_back('X'); // shorter than any frame header
    spit(path, bytes);
    std::vector<TraceRecord> out;
    const Status read = readTraceV3(path, &out);
    ASSERT_FALSE(read.isOk());
    EXPECT_NE(read.message().find("trailing"), std::string::npos)
        << read.message();
    std::remove(path.c_str());
}

TEST(TraceIo, StatusApiRejectsBadMagic)
{
    const std::string path = tempPath("vpsim_status_badmagic.vptrace");
    spit(path, {'J', 'U', 'N', 'K', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0});
    std::vector<TraceRecord> out;
    const Status read = readTraceV3(path, &out);
    ASSERT_FALSE(read.isOk());
    EXPECT_EQ(read.code(), StatusCode::kCorrupt);
    EXPECT_NE(read.message().find("magic"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIo, VersionMismatchReportsFoundAndExpected)
{
    const std::string path = tempPath("vpsim_version.vptrace");
    ASSERT_TRUE(
        writeTraceV3(path, captureWorkloadTrace("go", 50)).isOk());
    std::vector<unsigned char> bytes = slurp(path);
    bytes[4] = 1; // a stale version byte
    spit(path, bytes);

    std::vector<TraceRecord> out;
    const Status read = readTraceV3(path, &out);
    ASSERT_FALSE(read.isOk());
    EXPECT_EQ(read.code(), StatusCode::kCorrupt);
    EXPECT_NE(read.message().find("version 1"), std::string::npos)
        << "must report the version found: " << read.message();
    EXPECT_NE(read.message().find(
                  "expected " + std::to_string(traceFormatVersionV3)),
              std::string::npos)
        << "must report the version expected: " << read.message();
    std::remove(path.c_str());
}

TEST(TraceIo, ChecksumCatchesFlippedPayloadByte)
{
    // A flipped bit inside the first record's encoding: no structural
    // check can see it, only the block checksum.
    const std::string path = tempPath("vpsim_bitflip.vptrace");
    ASSERT_TRUE(
        writeTraceV3(path, captureWorkloadTrace("go", 200)).isOk());
    std::vector<unsigned char> bytes = slurp(path);
    bytes[v3HeaderBytes + v3BlockFrameBytes + 1] ^= 0x40;
    spit(path, bytes);

    std::vector<TraceRecord> out;
    const Status read = readTraceV3(path, &out);
    ASSERT_FALSE(read.isOk());
    EXPECT_EQ(read.code(), StatusCode::kCorrupt);
    EXPECT_NE(read.message().find("checksum mismatch"),
              std::string::npos)
        << read.message();
    EXPECT_NE(read.message().find(path), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFooterIsCorrupt)
{
    // Every block intact, trailer gone: an interrupted capture. Strict
    // reads refuse it.
    const auto original = captureWorkloadTrace("go", 100);
    const std::string path = tempPath("vpsim_nofooter.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original).isOk());
    std::vector<unsigned char> bytes = slurp(path);
    bytes.resize(bytes.size() - v3TrailerBytes);
    spit(path, bytes);

    std::vector<TraceRecord> out;
    const Status read = readTraceV3(path, &out);
    ASSERT_FALSE(read.isOk());
    EXPECT_EQ(read.code(), StatusCode::kCorrupt);
    EXPECT_NE(read.message().find("trailer"), std::string::npos)
        << read.message();
    std::remove(path.c_str());
}

TEST(TraceIo, CorruptionCodesAndMessagesArePinned)
{
    // The trace cache quarantines on code and message, and the
    // streaming source reads through the same reader, so each
    // block-level corruption has one exact diagnosis.
    const auto trace = captureWorkloadTrace("go", 1200);
    const std::string path = tempPath("vpsim_v3_corrupt.vptrace");
    ASSERT_TRUE(writeTraceV3(path, trace, 256).isOk());
    const std::vector<unsigned char> pristine = slurp(path);
    const std::size_t second = blockOffset(pristine, 1);
    const auto expect_corrupt = [&](const std::vector<unsigned char> &bytes,
                                    const std::string &message) {
        spit(path, bytes);
        std::vector<TraceRecord> out;
        const Status read = readTraceV3(path, &out);
        ASSERT_FALSE(read.isOk());
        EXPECT_EQ(read.code(), StatusCode::kCorrupt);
        EXPECT_EQ(read.message(), message);
    };

    std::vector<unsigned char> bytes = pristine;
    bytes[second + v3BlockFrameBytes + 5] ^= 0x10; // payload bit rot
    expect_corrupt(bytes, "block checksum mismatch at block 1 in " + path +
                              " (stored 7d73e2db, computed 5c8726d4)");
    bytes = pristine;
    bytes[second] = 'X'; // frame magic
    expect_corrupt(bytes, "bad block magic at block 1 in " + path);
    bytes = pristine;
    bytes.resize(second + v3BlockFrameBytes + 7); // cut mid-block
    expect_corrupt(bytes, "trace block 1: unexpected end of file in " +
                              path + " (truncated?)");
    bytes = pristine;
    bytes.resize(pristine.size() - 3); // torn trailer
    expect_corrupt(bytes, "trace trailer: unexpected end of file in " +
                              path + " (truncated?)");
    bytes = pristine;
    bytes.insert(bytes.end(), {'?', '?'}); // trailing junk
    expect_corrupt(bytes,
                   "trailing bytes after trailer in trace file: " + path);
    bytes = pristine;
    bytes[0] = 'J'; // file magic
    expect_corrupt(bytes, "bad trace file magic: " + path);
    bytes = pristine;
    bytes[4] = 1; // stale version byte
    expect_corrupt(bytes, "unsupported trace file version 1 in " + path +
                              " (expected 3)");
    std::remove(path.c_str());
}

TEST(TraceV3, RoundTripsARealTraceAcrossBlocks)
{
    const auto original = captureWorkloadTrace("compress", 5000);
    const std::string path = tempPath("vpsim_v3_roundtrip.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 512).isOk());

    std::vector<TraceRecord> reloaded;
    ASSERT_TRUE(readTraceV3(path, &reloaded).isOk());
    expectSameRecords(reloaded, original);
    std::remove(path.c_str());
}

TEST(TraceV3, EmptyTraceRoundTrips)
{
    const std::string path = tempPath("vpsim_v3_empty.vptrace");
    ASSERT_TRUE(writeTraceV3(path, {}).isOk());
    std::vector<TraceRecord> reloaded = {TraceRecord()};
    ASSERT_TRUE(readTraceV3(path, &reloaded).isOk());
    EXPECT_TRUE(reloaded.empty());
    std::remove(path.c_str());
}

TEST(TraceV3, StreamedAppendsMatchTheWholeFileWriterByteForByte)
{
    const auto original = captureWorkloadTrace("go", 3000);
    const std::string whole = tempPath("vpsim_v3_whole.vptrace");
    const std::string streamed = tempPath("vpsim_v3_streamed.vptrace");
    ASSERT_TRUE(writeTraceV3(whole, original, 256).isOk());

    TraceV3Writer writer;
    ASSERT_TRUE(writer.open(streamed, 256).isOk());
    // Deliberately ragged span sizes: block framing must not depend on
    // how append() batches arrive.
    std::size_t at = 0;
    const std::size_t steps[] = {1, 100, 17, 1000, 3};
    std::size_t step = 0;
    while (at < original.size()) {
        const std::size_t n =
            std::min(steps[step++ % 5], original.size() - at);
        ASSERT_TRUE(
            writer.append(TraceSpan(original.data() + at, n)).isOk());
        at += n;
    }
    ASSERT_TRUE(writer.finish().isOk());
    EXPECT_EQ(writer.recordsWritten(), original.size());

    EXPECT_EQ(slurp(whole), slurp(streamed));
    std::remove(whole.c_str());
    std::remove(streamed.c_str());
}

TEST(TraceV3, CompressesWellBelowTheV2Format)
{
    // The retired v2 format stored every record as 45 packed bytes:
    // five u64 fields plus op, rd, rs1, rs2 and taken.
    constexpr std::size_t v2PackedRecordBytes = 5 * 8 + 5;
    const auto original = captureWorkloadTrace("compress", 5000);
    const std::string v3 = tempPath("vpsim_v3_sizecheck_v3.vptrace");
    ASSERT_TRUE(writeTraceV3(v3, original).isOk());
    const std::size_t v2_bytes = original.size() * v2PackedRecordBytes;
    const std::size_t v3_bytes = slurp(v3).size();
    EXPECT_LT(v3_bytes * 2, v2_bytes)
        << "delta/varint encoding should at least halve the 45-byte "
           "packed records (got "
        << v3_bytes << " vs " << v2_bytes << ")";
    std::remove(v3.c_str());
}

TEST(TraceV3, RejectsBadMagicVersionAndHeaderRot)
{
    const auto original = captureWorkloadTrace("go", 500);
    const std::string path = tempPath("vpsim_v3_header.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original).isOk());
    const std::vector<unsigned char> good = slurp(path);
    std::vector<TraceRecord> out;

    std::vector<unsigned char> bad = good;
    bad[0] = 'J';
    spit(path, bad);
    Status got = readTraceV3(path, &out);
    ASSERT_FALSE(got.isOk());
    EXPECT_EQ(got.code(), StatusCode::kCorrupt);
    EXPECT_NE(got.message().find("bad trace file magic"),
              std::string::npos);

    bad = good;
    bad[4] = 2;
    spit(path, bad);
    got = readTraceV3(path, &out);
    ASSERT_FALSE(got.isOk());
    EXPECT_NE(got.message().find("unsupported trace file version 2"),
              std::string::npos);

    bad = good;
    bad[9] ^= 0x40; // records-per-block field: caught by header CRC.
    spit(path, bad);
    got = readTraceV3(path, &out);
    ASSERT_FALSE(got.isOk());
    EXPECT_NE(got.message().find("header checksum mismatch"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceV3, FlippedBlockFailsStrictNamingTheBlock)
{
    const auto original = captureWorkloadTrace("compress", 4000);
    const std::string path = tempPath("vpsim_v3_flip.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 512).isOk());

    std::vector<unsigned char> bytes = slurp(path);
    std::uint64_t records_before = 0;
    const std::size_t offset = blockOffset(bytes, 2, &records_before);
    bytes[offset + v3BlockFrameBytes + 7] ^= 0x01; // payload bit rot
    spit(path, bytes);

    std::vector<TraceRecord> out;
    const Status strict = readTraceV3(path, &out);
    ASSERT_FALSE(strict.isOk());
    EXPECT_EQ(strict.code(), StatusCode::kCorrupt);
    EXPECT_NE(strict.message().find("checksum mismatch at block 2"),
              std::string::npos)
        << strict.message();
    // The read stops at the damage: the blocks before it, nothing else.
    expectSameRecords(
        out, std::vector<TraceRecord>(
                 original.begin(),
                 original.begin() +
                     static_cast<std::ptrdiff_t>(records_before)));
    std::remove(path.c_str());
}

TEST(TraceV3, TruncationMidBlockFailsStrict)
{
    const auto original = captureWorkloadTrace("go", 4000);
    const std::string path = tempPath("vpsim_v3_trunc.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 512).isOk());

    std::vector<unsigned char> bytes = slurp(path);
    std::uint64_t records_before = 0;
    const std::size_t offset = blockOffset(bytes, 3, &records_before);
    bytes.resize(offset + v3BlockFrameBytes + 5); // cut mid-payload
    spit(path, bytes);

    std::vector<TraceRecord> out;
    const Status strict = readTraceV3(path, &out);
    ASSERT_FALSE(strict.isOk());
    EXPECT_EQ(strict.code(), StatusCode::kCorrupt);
    EXPECT_EQ(strict.message(), "trace block 3: unexpected end of file in " +
                                    path + " (truncated?)");
    expectSameRecords(
        out, std::vector<TraceRecord>(
                 original.begin(),
                 original.begin() +
                     static_cast<std::ptrdiff_t>(records_before)));
    std::remove(path.c_str());
}

TEST(TraceV3, TrailingGarbageFailsStrict)
{
    const auto original = captureWorkloadTrace("go", 1000);
    const std::string path = tempPath("vpsim_v3_trailing.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 256).isOk());
    std::vector<unsigned char> bytes = slurp(path);
    for (int i = 0; i < 100; ++i)
        bytes.push_back(static_cast<unsigned char>(i * 7));
    spit(path, bytes);

    std::vector<TraceRecord> out;
    const Status strict = readTraceV3(path, &out);
    ASSERT_FALSE(strict.isOk());
    EXPECT_EQ(strict.code(), StatusCode::kCorrupt);
    EXPECT_NE(strict.message().find("trailing bytes"),
              std::string::npos)
        << strict.message();
    std::remove(path.c_str());
}

TEST(TraceV3, InjectedCaptureEnospcFailsTheAppend)
{
    // Writes go out per block of 64 records, three each (frame header,
    // payload, CRC footer) after the header's one. The first append
    // writes block 0 (writes 2-4); the second completes block 1, whose
    // frame header is write 5.
    InjectorGuard guard;
    io::configureFaultInjection("write:5:enospc");
    const auto original = captureWorkloadTrace("go", 100);
    const std::string path = tempPath("vpsim_v3_capfault.vptrace");
    TraceV3Writer writer;
    ASSERT_TRUE(writer.open(path, 64).isOk());
    ASSERT_TRUE(writer.append(TraceSpan(original)).isOk());
    const Status second = writer.append(TraceSpan(original));
    ASSERT_FALSE(second.isOk());
    EXPECT_EQ(second.code(), StatusCode::kIo);
    EXPECT_NE(second.message().find("trace block frame: write error on " +
                                    path),
              std::string::npos)
        << second.message();
    EXPECT_NE(second.message().find("No space left on device"),
              std::string::npos)
        << second.message();
    writer.close();
    std::remove(path.c_str());
}

/** Little-endian store of the low @p width bytes of @p value. */
void
putLe(std::vector<unsigned char> &bytes, std::size_t at, std::uint64_t value,
      int width)
{
    for (int i = 0; i < width; ++i)
        bytes[at + i] = static_cast<unsigned char>(value >> (8 * i));
}

/** Little-endian u32 at @p at. */
std::uint32_t
getLe32(const std::vector<unsigned char> &bytes, std::size_t at)
{
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i)
        value |= static_cast<std::uint32_t>(bytes[at + i]) << (8 * i);
    return value;
}

/**
 * Payload offsets at which each record of the block framed at
 * @p frame starts, plus the payload's end.
 */
std::vector<std::size_t>
recordStarts(const std::vector<unsigned char> &bytes, std::size_t frame)
{
    const std::uint32_t count = getLe32(bytes, frame + 4);
    std::vector<std::size_t> starts;
    std::size_t p = frame + v3BlockFrameBytes;
    for (std::uint32_t i = 0; i < count; ++i) {
        starts.push_back(p);
        for (int field = 0; field < 5; ++field) {
            while (bytes[p] & 0x80u)
                ++p;
            ++p;
        }
        p += 4;
    }
    starts.push_back(p);
    return starts;
}

/** Recompute the frame CRC of the block framed at @p frame. */
void
resealBlock(std::vector<unsigned char> &bytes, std::size_t frame)
{
    const std::uint32_t payload_bytes = getLe32(bytes, frame + 8);
    putLe(bytes, frame + v3BlockFrameBytes + payload_bytes,
          crc32(bytes.data() + frame, v3BlockFrameBytes + payload_bytes),
          4);
}

/** Give record @p index of the block at @p frame an opcode >= NumOpCodes. */
void
breakOpcode(std::vector<unsigned char> &bytes, std::size_t frame,
            std::size_t index)
{
    const std::vector<std::size_t> starts = recordStarts(bytes, frame);
    unsigned char &op = bytes[starts[index + 1] - 4];
    op = static_cast<unsigned char>(
        (op & 0x80u) | static_cast<unsigned char>(OpCode::NumOpCodes));
    resealBlock(bytes, frame);
}

/**
 * Make the first varint of record @p index of the block at @p frame
 * over-long: pad it to maxVarintBytes groups and set the continuation
 * bit on every one, so it claims an 11th byte. A decoder that stopped
 * after maxVarintBytes without rejecting would read the original value
 * and stay aligned, so only the length check can catch this.
 */
void
overlongVarint(std::vector<unsigned char> &bytes, std::size_t frame,
               std::size_t index)
{
    const std::size_t first = recordStarts(bytes, frame)[index];
    std::size_t last = first;
    while (bytes[last] & 0x80u)
        ++last;
    const std::size_t extra = maxVarintBytes - (last + 1 - first);
    bytes[last] |= 0x80u;
    bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(last + 1),
                 extra, 0x80u);
    const std::uint32_t payload_bytes = getLe32(bytes, frame + 8);
    putLe(bytes, frame + 8, payload_bytes + extra, 4);
    resealBlock(bytes, frame);
}

/** Append @p slack zero bytes to the payload of the block at @p frame. */
void
addSlack(std::vector<unsigned char> &bytes, std::size_t frame,
         std::size_t slack)
{
    const std::uint32_t payload_bytes = getLe32(bytes, frame + 8);
    bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(
                                     frame + v3BlockFrameBytes +
                                     payload_bytes),
                 slack, 0x00);
    putLe(bytes, frame + 8, payload_bytes + slack, 4);
    resealBlock(bytes, frame);
}

TEST(TraceV3Load, IntactFileReservesItsDestinationOnce)
{
    // 20 blocks: the parent's per-block reserve reallocated at each.
    const auto original = captureWorkloadTrace("go", 20000);
    const std::string path = tempPath("vpsim_v3_reserve.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 1024).isOk());

    TraceV3Reader reader;
    ASSERT_TRUE(reader.open(path).isOk());
    EXPECT_EQ(reader.recordsHint(), original.size())
        << "the hint is the trailer's count";
    reader.close();

    std::vector<TraceRecord> loaded;
    ASSERT_TRUE(readTraceV3(path, &loaded).isOk());
    expectSameRecords(loaded, original);
    EXPECT_EQ(loaded.capacity(), loaded.size())
        << "one reservation from the trailer, no growth";
    std::remove(path.c_str());
}

TEST(TraceV3Load, FreshDestinationEqualsTheCapture)
{
    // 70,001 records: a partial tail block at every block size, and one
    // full 65,536-record block before it at the default size. The load
    // appends every block into the destination reserved from the
    // trailer (3.4 MB, the whole-trace buffer path).
    const auto original = captureWorkloadTrace("perl", 70001);
    ASSERT_EQ(original.size(), 70001u);
    const std::string path = tempPath("vpsim_v3_fresh.vptrace");
    for (const std::uint32_t per_block : {1u, 7u, 65536u}) {
        SCOPED_TRACE(per_block);
        ASSERT_TRUE(writeTraceV3(path, original, per_block).isOk());
        std::vector<TraceRecord> loaded;
        const Status read = readTraceV3(path, &loaded);
        ASSERT_TRUE(read.isOk()) << read.message();
        expectSameRecords(loaded, original);
        EXPECT_EQ(loaded.capacity(), loaded.size());

        // A destination that already holds a longer trace is cleared
        // and refilled, not decoded over.
        std::vector<TraceRecord> reused = captureWorkloadTrace("go", 80000);
        ASSERT_TRUE(readTraceV3(path, &reused).isOk());
        expectSameRecords(reused, original);
    }
    std::remove(path.c_str());
}

TEST(TraceV3Load, ReadBlockDecodesInPlaceOrAppends)
{
    // 5 full 7-record blocks and a 3-record tail, read through one
    // reused block vector that starts shorter than a block.
    const auto original = captureWorkloadTrace("li", 38);
    const std::string path = tempPath("vpsim_v3_inplace.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 7).isOk());
    TraceV3Reader reader;
    ASSERT_TRUE(reader.open(path).isOk());
    std::vector<TraceRecord> block(3);
    const TraceRecord *data = nullptr;
    std::size_t delivered = 0;
    TraceV3Reader::Block outcome = TraceV3Reader::Block::kDelivered;
    for (;;) {
        std::size_t count = 0;
        ASSERT_TRUE(reader.readBlock(&block, 0, &count, &outcome).isOk());
        if (outcome == TraceV3Reader::Block::kEnd)
            break;
        if (data == nullptr) {
            EXPECT_EQ(block.size(), 7u) << "cut to the offset, appended";
            data = block.data();
        }
        EXPECT_EQ(block.data(), data) << "later blocks decode in place";
        EXPECT_EQ(block.size(), 7u) << "a short tail leaves the size";
        const std::vector<TraceRecord> got(block.begin(),
                                           block.begin() + count);
        const std::vector<TraceRecord> want(
            original.begin() + static_cast<std::ptrdiff_t>(delivered),
            original.begin() +
                static_cast<std::ptrdiff_t>(delivered + count));
        expectSameRecords(got, want);
        delivered += count;
    }
    EXPECT_EQ(delivered, original.size());
    std::remove(path.c_str());
}

TEST(TraceV3Load, LyingTrailerCountIsCappedAndStillRejected)
{
    const auto original = captureWorkloadTrace("go", 3000);
    const std::string path = tempPath("vpsim_v3_lying_trailer.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 512).isOk());
    std::vector<unsigned char> bytes = slurp(path);
    const std::size_t trailer = bytes.size() - v3TrailerBytes;
    putLe(bytes, trailer + 4, std::uint64_t{1} << 40, 8);
    putLe(bytes, trailer + 20, crc32(bytes.data() + trailer, 20), 4);
    spit(path, bytes);
    const std::size_t cap = bytes.size() / 9;

    TraceV3Reader reader;
    ASSERT_TRUE(reader.open(path).isOk());
    EXPECT_EQ(reader.recordsHint(), cap);
    reader.close();

    std::vector<TraceRecord> out;
    const Status strict = readTraceV3(path, &out);
    ASSERT_FALSE(strict.isOk());
    EXPECT_EQ(strict.code(), StatusCode::kCorrupt);
    EXPECT_NE(strict.message().find("trailer mismatch"),
              std::string::npos)
        << strict.message();
    EXPECT_LE(out.capacity(), cap);
    std::remove(path.c_str());
}

TEST(TraceV3Load, TrailerReadErrorFailsTheOpen)
{
    // Reads 1 and 2 of an open are the header and the trailer. An I/O
    // error on the trailer fails the open (the cache retries kIo), it
    // does not degrade to a load without a hint.
    InjectorGuard guard;
    const auto original = captureWorkloadTrace("go", 3000);
    const std::string path = tempPath("vpsim_v3_trailer_eio.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 512).isOk());
    io::configureFaultInjection("read:2:eio");
    std::vector<TraceRecord> out;
    const Status read = readTraceV3(path, &out);
    ASSERT_FALSE(read.isOk());
    EXPECT_EQ(read.code(), StatusCode::kIo);
    EXPECT_NE(read.message().find("trace trailer: read error on " + path),
              std::string::npos)
        << read.message();

    ASSERT_TRUE(readTraceV3(path, &out).isOk()) << "the clause fired once";
    expectSameRecords(out, original);
    EXPECT_EQ(out.capacity(), out.size());
    std::remove(path.c_str());
}

TEST(TraceV3Load, FailedOpenLeavesTheReaderReusable)
{
    // A junk file fails the open on its magic, and an injected trailer
    // read error fails it after the header checked out; either way the
    // next open() on the same reader, or the same streaming source,
    // must succeed and deliver every record.
    InjectorGuard guard;
    const auto original = captureWorkloadTrace("go", 3000);
    const std::string good = tempPath("vpsim_v3_reopen_good.vptrace");
    const std::string junk = tempPath("vpsim_v3_reopen_junk.vptrace");
    ASSERT_TRUE(writeTraceV3(good, original, 512).isOk());
    spit(junk, std::vector<unsigned char>(64, 'x'));

    for (const bool trailer_eio : {false, true}) {
        SCOPED_TRACE(trailer_eio ? "trailer read error" : "junk file");
        const std::string &bad = trailer_eio ? good : junk;

        TraceV3Reader reader;
        if (trailer_eio)
            io::configureFaultInjection("read:2:eio");
        ASSERT_FALSE(reader.open(bad).isOk());
        EXPECT_FALSE(reader.isOpen());
        ASSERT_TRUE(reader.open(good).isOk());
        std::vector<TraceRecord> records;
        std::size_t delivered = 0;
        TraceV3Reader::Block outcome = TraceV3Reader::Block::kDelivered;
        while (outcome == TraceV3Reader::Block::kDelivered) {
            std::size_t count = 0;
            ASSERT_TRUE(
                reader.readBlock(&records, delivered, &count, &outcome)
                    .isOk());
            delivered += count;
        }
        records.resize(delivered);
        expectSameRecords(records, original);
        reader.close();

        StreamingTraceSource source;
        if (trailer_eio)
            io::configureFaultInjection("read:2:eio");
        ASSERT_FALSE(source.open(bad).isOk());
        ASSERT_TRUE(source.open(good).isOk());
        std::vector<TraceRecord> streamed;
        TraceSpan block;
        while (source.nextBlock(block))
            streamed.insert(streamed.end(), block.begin(), block.end());
        EXPECT_TRUE(source.status().isOk()) << source.status().message();
        expectSameRecords(streamed, original);
    }
    std::remove(good.c_str());
    std::remove(junk.c_str());
}

TEST(TraceV3Load, TruncatedFrameAndOverlongPayloadLengthFailStrict)
{
    const auto original = captureWorkloadTrace("go", 3072);
    const std::string path = tempPath("vpsim_v3_truncated_frames.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 512).isOk());
    const std::vector<unsigned char> clean = slurp(path);

    // A file cut 7 bytes into its first frame, right after the block
    // magic.
    spit(path, std::vector<unsigned char>(clean.begin(),
                                          clean.begin() + v3HeaderBytes + 7));
    std::vector<TraceRecord> out;
    Status read = readTraceV3(path, &out);
    EXPECT_EQ(read.code(), StatusCode::kCorrupt);
    EXPECT_EQ(read.message(), "trace block 0: unexpected end of file in " +
                                  path + " (truncated?)");
    EXPECT_TRUE(out.empty());

    // Block 3's payload length now runs past the end of the file, over
    // the intact blocks 4 and 5: the read ends there, whole or streamed.
    std::vector<unsigned char> bytes = clean;
    const std::size_t frame = blockOffset(bytes, 3);
    ASSERT_GT(frame + 27000, bytes.size());
    putLe(bytes, frame + 8, 27000, 4);
    spit(path, bytes);
    const std::vector<TraceRecord> before(original.begin(),
                                          original.begin() + 3 * 512);
    const std::string named = "trace block 3: unexpected end of file in " +
                              path + " (truncated?)";
    read = readTraceV3(path, &out);
    EXPECT_EQ(read.code(), StatusCode::kCorrupt);
    EXPECT_EQ(read.message(), named);
    expectSameRecords(out, before);

    StreamingTraceSource source;
    ASSERT_TRUE(source.open(path).isOk());
    std::vector<TraceRecord> streamed;
    TraceSpan span;
    while (source.nextBlock(span))
        streamed.insert(streamed.end(), span.begin(), span.end());
    EXPECT_EQ(source.status().code(), StatusCode::kCorrupt);
    EXPECT_EQ(source.status().message(), named);
    expectSameRecords(streamed, before);
    std::remove(path.c_str());
}

/**
 * Records whose encodings run from the 9-byte minimum to 45 bytes:
 * every fourth one has 10-byte varints in all four fields the writer
 * encodes (huge seq jumps, PC and next-PC swings across the whole
 * address space, result ~0), the rest only a 10-byte result or nothing
 * long. The reserved memAddr field is always written as one zero byte;
 * payloadWithAddresses() puts 10-byte varints there too.
 */
std::vector<TraceRecord>
extremeRecords(std::size_t n)
{
    std::vector<TraceRecord> records(n);
    SeqNum seq = 0;
    for (std::size_t i = 0; i < n; ++i) {
        TraceRecord &r = records[i];
        const bool wild = i % 4 == 1;
        seq += wild ? (std::uint64_t{1} << 62) + i : 1;
        r.seq = seq;
        r.pc = wild ? (std::uint64_t{1} << 63) + 8 * i : 0x1000 + 4 * i;
        r.nextPc = wild ? 4 * i : r.pc + instBytes;
        r.result = i % 2 == 1 ? ~std::uint64_t{0} : i;
        r.op = wild ? OpCode::Ld : OpCode::Add;
        r.taken = i % 3 == 0;
        r.rd = static_cast<RegIndex>(i % 32);
        r.rs1 = static_cast<RegIndex>((i + 1) % 32);
        r.rs2 = static_cast<RegIndex>((i + 2) % 32);
    }
    return records;
}

TEST(TraceV3Load, TenByteVarintsRoundTripAcrossTheBoundsCheckSwitch)
{
    // Block sizes 1-24 move the point where fewer than a worst-case
    // record's bytes remain (and decoding switches to per-byte bounds
    // checks) across records of every length, long ones included.
    const auto original = extremeRecords(97);
    const std::string path = tempPath("vpsim_v3_varint10.vptrace");
    for (std::uint32_t per_block = 1; per_block <= 24; ++per_block) {
        SCOPED_TRACE("records per block " + std::to_string(per_block));
        ASSERT_TRUE(writeTraceV3(path, original, per_block).isOk());
        std::vector<TraceRecord> loaded;
        ASSERT_TRUE(readTraceV3(path, &loaded).isOk());
        expectSameRecords(loaded, original);

        StreamingTraceSource source;
        ASSERT_TRUE(source.open(path).isOk());
        std::vector<TraceRecord> streamed;
        TraceSpan block;
        while (source.nextBlock(block))
            streamed.insert(streamed.end(), block.begin(), block.end());
        EXPECT_TRUE(source.status().isOk());
        expectSameRecords(streamed, original);
    }
    std::remove(path.c_str());
}

/**
 * The payload of @p records as writers before the memAddr field was
 * reserved encoded it: the same fields, with the effective address
 * @p mem_addr(i) of record i absolute in the first record and as a
 * signed delta after it.
 */
template <typename MemAddr>
std::vector<unsigned char>
payloadWithAddresses(TraceSpan records, std::size_t first_index,
                     MemAddr mem_addr)
{
    std::vector<unsigned char> payload(records.size() *
                                       (5 * maxVarintBytes + 4));
    unsigned char *out = payload.data();
    for (std::size_t i = 0; i < records.size(); ++i) {
        const TraceRecord &r = records[i];
        const Addr mem = mem_addr(first_index + i);
        if (i == 0) {
            out = putVarint(out, r.seq);
            out = putVarint(out, r.pc);
        } else {
            const TraceRecord &prev = records[i - 1];
            out = putSignedVarint(
                out, static_cast<std::int64_t>(r.seq - (prev.seq + 1)));
            out = putSignedVarint(
                out, static_cast<std::int64_t>(r.pc - prev.pc));
        }
        out = putSignedVarint(out, static_cast<std::int64_t>(
                                       r.nextPc - r.fallThrough()));
        if (i == 0) {
            out = putVarint(out, mem);
        } else {
            const Addr prev_mem = mem_addr(first_index + i - 1);
            out = putSignedVarint(
                out, static_cast<std::int64_t>(mem - prev_mem));
        }
        out = putVarint(out, r.result);
        *out++ = static_cast<unsigned char>(static_cast<unsigned char>(r.op) |
                                            (r.taken ? 0x80u : 0x00u));
        *out++ = r.rd;
        *out++ = r.rs1;
        *out++ = r.rs2;
    }
    payload.resize(static_cast<std::size_t>(out - payload.data()));
    return payload;
}

TEST(TraceV3Load, FilesThatCarryEffectiveAddressesStillLoad)
{
    // Format version 3 used to carry each load's and store's effective
    // address in the field that is now written 0. A file written then
    // must still load, and to the same records: re-encode every block
    // of a fresh file in the old layout, with nonzero addresses and
    // 10-byte deltas (in the bulk loop and the checked tail alike),
    // under resealed frame CRCs.
    const auto original = extremeRecords(200);
    const auto mem_addr = [](std::size_t i) -> Addr {
        if (i % 4 == 1)
            return (std::uint64_t{1} << 63) + i;
        return i % 4 == 3 ? 0x10000000 + 8 * i : 0;
    };
    const std::uint32_t per_block = 64;
    const std::string path = tempPath("vpsim_v3_old_layout.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, per_block).isOk());
    std::vector<unsigned char> bytes = slurp(path);
    const std::size_t written = bytes.size();
    const std::size_t blocks = (original.size() + per_block - 1) / per_block;
    for (std::size_t b = blocks; b-- > 0;) {
        const std::size_t frame = blockOffset(bytes, b);
        const std::size_t first = b * per_block;
        const auto payload = payloadWithAddresses(
            TraceSpan(original).subspan(first, per_block), first, mem_addr);
        const auto at = bytes.begin() + static_cast<std::ptrdiff_t>(
                                            frame + v3BlockFrameBytes);
        bytes.erase(at, at + getLe32(bytes, frame + 8));
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(
                                         frame + v3BlockFrameBytes),
                     payload.begin(), payload.end());
        putLe(bytes, frame + 8, payload.size(), 4);
        resealBlock(bytes, frame);
    }
    ASSERT_GT(bytes.size(), written + 50 * 9)
        << "the old layout spends 9 more bytes on each wild address";
    spit(path, bytes);

    std::vector<TraceRecord> loaded;
    const Status read = readTraceV3(path, &loaded);
    ASSERT_TRUE(read.isOk()) << read.message();
    expectSameRecords(loaded, original);

    StreamingTraceSource source;
    ASSERT_TRUE(source.open(path).isOk());
    std::vector<TraceRecord> streamed;
    TraceSpan span;
    while (source.nextBlock(span))
        streamed.insert(streamed.end(), span.begin(), span.end());
    EXPECT_TRUE(source.status().isOk()) << source.status().message();
    expectSameRecords(streamed, original);
    std::remove(path.c_str());
}

TEST(TraceV3Load, ElevenByteVarintInTheBulkIsCorrupt)
{
    // Record 1 of block 0 starts with a 10-byte seq delta. Setting the
    // continuation bit of its last byte makes it claim an 11th byte;
    // re-framing (payload length, CRC) leaves the decoder as the only
    // check that can see it, in the bulk loop of a 64-record payload.
    const auto original = extremeRecords(128);
    const std::string path = tempPath("vpsim_v3_varint11.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 64).isOk());
    std::vector<unsigned char> bytes = slurp(path);
    const std::size_t frame = blockOffset(bytes, 0);
    const std::vector<std::size_t> starts = recordStarts(bytes, frame);
    ASSERT_GE(starts.back() - starts[1], 5 * maxVarintBytes + 4)
        << "record 1 must be decoded in the bulk loop";
    overlongVarint(bytes, frame, 1);
    spit(path, bytes);

    std::vector<TraceRecord> out;
    const Status strict = readTraceV3(path, &out);
    ASSERT_FALSE(strict.isOk());
    EXPECT_EQ(strict.code(), StatusCode::kCorrupt);
    EXPECT_NE(strict.message().find("corrupt record encoding in block 0"),
              std::string::npos)
        << strict.message();
    EXPECT_TRUE(out.empty());
    std::remove(path.c_str());
}

/**
 * @p path holds @p original with block @p bad (of @p per_block records)
 * damaged under a valid CRC. Every reader must reject exactly that
 * block: a whole read and a stream both fail naming it, after
 * delivering every record before it and none of it.
 */
void
expectOnlyTheDecoderRejectsBlock(const std::string &path,
                                 const std::vector<TraceRecord> &original,
                                 std::size_t bad, std::size_t per_block)
{
    const std::string named =
        "corrupt record encoding in block " + std::to_string(bad);
    const std::vector<TraceRecord> before(
        original.begin(),
        original.begin() + static_cast<std::ptrdiff_t>(bad * per_block));

    std::vector<TraceRecord> out;
    const Status strict = readTraceV3(path, &out);
    ASSERT_FALSE(strict.isOk());
    EXPECT_EQ(strict.code(), StatusCode::kCorrupt);
    EXPECT_NE(strict.message().find(named), std::string::npos)
        << strict.message();
    expectSameRecords(out, before);

    StreamingTraceSource source;
    ASSERT_TRUE(source.open(path).isOk());
    std::vector<TraceRecord> streamed;
    TraceSpan span;
    while (source.nextBlock(span))
        streamed.insert(streamed.end(), span.begin(), span.end());
    EXPECT_EQ(source.status().code(), StatusCode::kCorrupt);
    EXPECT_NE(source.status().message().find(named), std::string::npos)
        << source.status().message();
    expectSameRecords(streamed, before);
}

/**
 * The decoder-only rejections: an opcode >= NumOpCodes, slack after the
 * declared records and an over-long varint, each once where the bulk
 * loop decodes it (a worst-case record still fits) and once in the
 * checked tail.
 */
TEST(TraceV3Load, DecoderRejectsBadOpcodesAndSlackInBulkAndTail)
{
    constexpr std::size_t perBlock = 64;
    constexpr std::size_t bad = 1;
    const auto original = captureWorkloadTrace("go", 3 * perBlock + 5);
    const std::string path = tempPath("vpsim_v3_decoder_rejects.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, perBlock).isOk());
    const std::vector<unsigned char> clean = slurp(path);
    const std::size_t frame = blockOffset(clean, bad);
    const std::vector<std::size_t> starts = recordStarts(clean, frame);
    const std::size_t end = starts.back();
    const auto in_bulk = [&](std::size_t start, std::size_t slack) {
        return end + slack - start >= 5 * maxVarintBytes + 4;
    };
    // Record 1 is the bulk loop's first; the last one is in the tail,
    // unless enough slack follows it to keep the bulk loop going.
    ASSERT_TRUE(in_bulk(starts[1], 0));
    ASSERT_FALSE(in_bulk(starts[perBlock - 1], 0));
    ASSERT_FALSE(in_bulk(starts[perBlock - 1], 1));
    ASSERT_TRUE(in_bulk(starts[perBlock - 1], 64));

    struct Damage
    {
        const char *name;
        std::vector<unsigned char> bytes;
    };
    std::vector<Damage> cases = {{"opcode in the bulk", clean},
                                 {"opcode in the tail", clean},
                                 {"slack after the bulk", clean},
                                 {"slack after the tail", clean},
                                 {"over-long varint in the bulk", clean},
                                 {"over-long varint in the tail", clean}};
    breakOpcode(cases[0].bytes, frame, 1);
    breakOpcode(cases[1].bytes, frame, perBlock - 1);
    addSlack(cases[2].bytes, frame, 64);
    addSlack(cases[3].bytes, frame, 1);
    overlongVarint(cases[4].bytes, frame, 1);
    overlongVarint(cases[5].bytes, frame, perBlock - 1);
    ASSERT_FALSE(in_bulk(starts[perBlock - 1], maxVarintBytes))
        << "an over-long varint must not pull the last record into the "
           "bulk";
    for (const Damage &damage : cases) {
        SCOPED_TRACE(damage.name);
        spit(path, damage.bytes);
        expectOnlyTheDecoderRejectsBlock(path, original, bad, perBlock);
    }
    std::remove(path.c_str());
}

TEST(StreamingSource, DeliversTheWholeTraceInOrder)
{
    const auto original = captureWorkloadTrace("compress", 5000);
    const std::string path = tempPath("vpsim_v3_stream.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 512).isOk());

    StreamingTraceSource source;
    ASSERT_TRUE(source.open(path).isOk());
    std::vector<TraceRecord> got;
    TraceSpan block;
    while (source.nextBlock(block, 300)) {
        EXPECT_LE(block.size(), 300u);
        got.insert(got.end(), block.begin(), block.end());
    }
    EXPECT_TRUE(source.status().isOk());
    EXPECT_EQ(source.recordsDelivered(), original.size());
    expectSameRecords(got, original);

    // reset() rewinds to the first record.
    source.reset();
    ASSERT_TRUE(source.nextBlock(block, 8));
    ASSERT_EQ(block.size(), 8u);
    EXPECT_EQ(block[0].seq, original[0].seq);
    EXPECT_EQ(block[0].pc, original[0].pc);
    std::remove(path.c_str());
}

TEST(StreamingSource, SpansNeverCrossBlockBoundaries)
{
    const auto original = captureWorkloadTrace("go", 2000);
    const std::string path = tempPath("vpsim_v3_stream_bounds.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 512).isOk());

    StreamingTraceSource source;
    ASSERT_TRUE(source.open(path).isOk());
    TraceSpan block;
    std::uint64_t seen = 0;
    while (source.nextBlock(block, TraceSpan::noLimit)) {
        EXPECT_LE(block.size(), 512u)
            << "a delivery must stay within one decoded block";
        seen += block.size();
    }
    EXPECT_EQ(seen, original.size());
    std::remove(path.c_str());
}

TEST(StreamingSource, FlippedBlockEndsTheStreamWithAStickyError)
{
    const auto original = captureWorkloadTrace("compress", 4000);
    const std::string path = tempPath("vpsim_v3_stream_flip.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 512).isOk());
    std::vector<unsigned char> bytes = slurp(path);
    const std::size_t offset = blockOffset(bytes, 1);
    bytes[offset + v3BlockFrameBytes + 3] ^= 0x10;
    spit(path, bytes);

    StreamingTraceSource source;
    ASSERT_TRUE(source.open(path).isOk());
    TraceSpan block;
    std::uint64_t records = 0;
    while (source.nextBlock(block))
        records += block.size();
    EXPECT_EQ(records, 512u) << "block 0, and nothing of block 1 on";
    EXPECT_EQ(source.status().code(), StatusCode::kCorrupt);
    EXPECT_NE(source.status().message().find(
                  "checksum mismatch at block 1"),
              std::string::npos)
        << source.status().message();
    EXPECT_FALSE(source.nextBlock(block)) << "the end is sticky";
    EXPECT_EQ(source.status().code(), StatusCode::kCorrupt);
    std::remove(path.c_str());
}

TEST(StreamingSource, ResetReusesTheDecodedBlockBuffer)
{
    const auto original = captureWorkloadTrace("go", 2000);
    const std::string path = tempPath("vpsim_v3_stream_reset.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 256).isOk());

    StreamingTraceSource source;
    ASSERT_TRUE(source.open(path).isOk());
    // A partial read that crosses into the second block, so the one
    // block buffer has already been decoded over once.
    TraceSpan block;
    ASSERT_TRUE(source.nextBlock(block, 200));
    const TraceRecord *const buffer = block.data();
    ASSERT_TRUE(source.nextBlock(block, 200));
    ASSERT_TRUE(source.nextBlock(block, 200));
    EXPECT_EQ(block[0].seq, original[256].seq)
        << "the third delivery starts the second block";
    EXPECT_EQ(block.data(), buffer)
        << "the second block is decoded into the first block's buffer";

    source.reset();
    std::vector<TraceRecord> got;
    ASSERT_TRUE(source.nextBlock(block, 100));
    EXPECT_EQ(block.data(), buffer) << "reset keeps the buffer";
    do {
        EXPECT_GE(block.data(), buffer);
        EXPECT_LE(block.data() + block.size(), buffer + 256)
            << "every span lies inside the one block buffer";
        got.insert(got.end(), block.begin(), block.end());
    } while (source.nextBlock(block, 100));
    EXPECT_TRUE(source.status().isOk());
    EXPECT_EQ(source.recordsDelivered(), original.size());
    expectSameRecords(got, original);
    std::remove(path.c_str());
}

TEST(StreamingSource, ShortLastBlockDeliversOnlyItsOwnRecords)
{
    // The last block is decoded over the storage of a full one; only
    // its own 5 records may come out, none of the previous block's.
    const auto original = captureWorkloadTrace("compress", 3 * 256 + 5);
    const std::string path = tempPath("vpsim_v3_stream_short.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 256).isOk());

    StreamingTraceSource source;
    ASSERT_TRUE(source.open(path).isOk());
    std::vector<TraceRecord> got;
    std::vector<std::size_t> sizes;
    TraceSpan span;
    while (source.nextBlock(span, TraceSpan::noLimit)) {
        sizes.push_back(span.size());
        got.insert(got.end(), span.begin(), span.end());
    }
    EXPECT_TRUE(source.status().isOk());
    EXPECT_EQ(sizes, (std::vector<std::size_t>{256, 256, 256, 5}));
    expectSameRecords(got, original);

    // The same after a rewind, when the storage already holds a block.
    source.reset();
    got.clear();
    while (source.nextBlock(span, 100))
        got.insert(got.end(), span.begin(), span.end());
    expectSameRecords(got, original);
    std::remove(path.c_str());
}

TEST(StreamingSource, MissingFileReadsAsExhaustedWithStickyError)
{
    StreamingTraceSource source;
    const Status opened =
        source.open(tempPath("vpsim_v3_stream_missing.vptrace"));
    ASSERT_FALSE(opened.isOk());
    TraceSpan block;
    EXPECT_FALSE(source.nextBlock(block));
    EXPECT_FALSE(source.status().isOk());
    EXPECT_EQ(source.status().code(), StatusCode::kIo);
}

} // namespace
} // namespace vpsim
