/**
 * @file
 * Tests for the v3 block-framed trace format: the whole-file read and
 * write status contract, block framing and the strict corruption
 * contract, and the bounded-memory streaming source.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
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

/** Replace the payload of the block framed at @p frame, resealed. */
void
replacePayload(std::vector<unsigned char> &bytes, std::size_t frame,
               const std::vector<unsigned char> &payload)
{
    const auto at = bytes.begin() +
                    static_cast<std::ptrdiff_t>(frame + v3BlockFrameBytes);
    bytes.erase(at, at + getLe32(bytes, frame + 8));
    bytes.insert(bytes.begin() +
                     static_cast<std::ptrdiff_t>(frame + v3BlockFrameBytes),
                 payload.begin(), payload.end());
    putLe(bytes, frame + 8, payload.size(), 4);
    resealBlock(bytes, frame);
}

void
expectSameRecords(const std::vector<TraceRecord> &got,
                  const std::vector<TraceRecord> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
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
    bytes[recordStarts(bytes, second)[1]] = 0x02; // sequence gap of 1
    resealBlock(bytes, second);
    expect_corrupt(bytes, "record sequence number is not its position in "
                          "block 1 of " + path);
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

TEST(TraceV3, CapturedFilesAreByteStable)
{
    // Size and CRC-32 of whole v3 files of 20k-instruction captures at
    // the default block size, pinned from files written while a record
    // still stored its sequence number: encoding each sequence number
    // from the record's position writes the same bytes.
    struct Pinned
    {
        const char *benchmark;
        std::size_t bytes;
        std::uint32_t crc;
    };
    const std::string path = tempPath("vpsim_v3_pinned.vptrace");
    for (const Pinned &pinned : {Pinned{"go", 190134, 0x01fcbd25},
                                 Pinned{"perl", 196140, 0xa3409201},
                                 Pinned{"compress", 214089, 0x69059afe}}) {
        SCOPED_TRACE(pinned.benchmark);
        ASSERT_TRUE(
            writeTraceV3(path, captureWorkloadTrace(pinned.benchmark, 20000))
                .isOk());
        const std::vector<unsigned char> bytes = slurp(path);
        EXPECT_EQ(bytes.size(), pinned.bytes);
        EXPECT_EQ(crc32(bytes.data(), bytes.size()), pinned.crc);
    }
    std::remove(path.c_str());
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

/**
 * Cut the last @p cut bytes off the payload of the block at @p frame.
 * The frame still declares its records, in at least 9 bytes each.
 */
void
cutPayload(std::vector<unsigned char> &bytes, std::size_t frame,
           std::size_t cut)
{
    const std::uint32_t payload_bytes = getLe32(bytes, frame + 8);
    ASSERT_GE(payload_bytes - cut, getLe32(bytes, frame + 4) * 9u)
        << "the frame check must let the cut payload through";
    const auto payload_end = bytes.begin() + static_cast<std::ptrdiff_t>(
                                                 frame + v3BlockFrameBytes +
                                                 payload_bytes);
    bytes.erase(payload_end - static_cast<std::ptrdiff_t>(cut), payload_end);
    putLe(bytes, frame + 8, payload_bytes - cut, 4);
    resealBlock(bytes, frame);
}

/**
 * Set the continuation bit in every payload byte of the block at
 * @p frame: each record then claims 54 bytes, six times the 9 the
 * frame check allows per record, so a decoder that stops only at the
 * declared count reads far past the payload.
 */
void
floodPayload(std::vector<unsigned char> &bytes, std::size_t frame)
{
    const std::size_t payload = frame + v3BlockFrameBytes;
    std::fill(bytes.begin() + static_cast<std::ptrdiff_t>(payload),
              bytes.begin() + static_cast<std::ptrdiff_t>(
                                  payload + getLe32(bytes, frame + 8)),
              0xff);
    resealBlock(bytes, frame);
}

/**
 * Declare one record more in the block at @p frame than its payload
 * holds, and one more per block in the resealed file header, so the
 * frame check still passes.
 */
void
raiseCount(std::vector<unsigned char> &bytes, std::size_t frame)
{
    const std::uint32_t count = getLe32(bytes, frame + 4) + 1;
    ASSERT_GE(getLe32(bytes, frame + 8), count * 9u)
        << "the frame check must let the raised count through";
    putLe(bytes, 8, getLe32(bytes, 8) + 1, 4);
    putLe(bytes, 12, crc32(bytes.data(), 12), 4);
    putLe(bytes, frame + 4, count, 4);
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
 * Records whose encodings run from the 9-byte minimum to 36 bytes:
 * every fourth one has 10-byte varints in the three fields that carry
 * the record's own data (PC and next-PC swings across the whole
 * address space, result ~0), the rest only a 10-byte result or nothing
 * long. The writer encodes each sequence number as the record's
 * position (a one-byte gap after a block's first record), and the
 * reserved memAddr field as one zero byte; handPayload() puts 10-byte
 * varints in both.
 */
std::vector<TraceRecord>
extremeRecords(std::size_t n)
{
    std::vector<TraceRecord> records(n);
    for (std::size_t i = 0; i < n; ++i) {
        TraceRecord &r = records[i];
        const bool wild = i % 4 == 1;
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

TEST(TraceV3Load, TenByteVarintsRoundTripAtEveryBlockEnd)
{
    // Block sizes 1-24 put records of every length, 10-byte varints
    // included, first and last in a block, so the one record loop
    // starts and ends payloads on each of them.
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
 * A hand-built payload for @p records, the first at trace position
 * @p first_index: the writer's fields, except that record i carries
 * the sequence number @p seq_of(i) and the effective address
 * @p mem_addr(i), both absolute in the first record and as signed
 * deltas after it. With seq_of(i) == i and a nonzero mem_addr this is
 * how writers before the memAddr field was reserved encoded a block.
 */
template <typename SeqOf, typename MemAddr>
std::vector<unsigned char>
handPayload(TraceSpan records, std::size_t first_index, SeqOf seq_of,
            MemAddr mem_addr)
{
    std::vector<unsigned char> payload(records.size() *
                                       (5 * maxVarintBytes + 4));
    unsigned char *out = payload.data();
    for (std::size_t i = 0; i < records.size(); ++i) {
        const TraceRecord &r = records[i];
        const std::size_t at = first_index + i;
        const Addr mem = mem_addr(at);
        if (i == 0) {
            out = putVarint(out, seq_of(at));
            out = putVarint(out, r.pc);
        } else {
            const TraceRecord &prev = records[i - 1];
            out = putSignedVarint(out, static_cast<std::int64_t>(
                                           seq_of(at) - (seq_of(at - 1) + 1)));
            out = putSignedVarint(
                out, static_cast<std::int64_t>(r.pc - prev.pc));
        }
        out = putSignedVarint(out, static_cast<std::int64_t>(
                                       r.nextPc - r.fallThrough()));
        if (i == 0) {
            out = putVarint(out, mem);
        } else {
            const Addr prev_mem = mem_addr(at - 1);
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
        const auto payload = handPayload(
            TraceSpan(original).subspan(first, per_block), first,
            [](std::size_t at) { return SeqNum{at}; }, mem_addr);
        replacePayload(bytes, frame, payload);
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
    // Record 1 of block 0 starts with its one-byte sequence gap.
    // Padding it to maxVarintBytes bytes with the continuation bit set
    // on every one makes it claim an 11th byte; re-framing (payload
    // length, CRC) leaves the decoder as the only check that can see
    // it, in the bulk loop of a 64-record payload.
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
expectOnlyTheDecoderRejectsBlock(
    const std::string &path, const std::vector<TraceRecord> &original,
    std::size_t bad, std::size_t per_block,
    const std::string &diagnosis = "corrupt record encoding")
{
    const std::string named =
        diagnosis + " in block " + std::to_string(bad) + " of " + path;
    const std::vector<TraceRecord> before(
        original.begin(),
        original.begin() + static_cast<std::ptrdiff_t>(bad * per_block));

    std::vector<TraceRecord> out;
    const Status strict = readTraceV3(path, &out);
    ASSERT_FALSE(strict.isOk());
    EXPECT_EQ(strict.code(), StatusCode::kCorrupt);
    EXPECT_EQ(strict.message(), named);
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
}

/**
 * The decoder-only rejections: an opcode >= NumOpCodes, slack after the
 * declared records, an over-long varint, a payload that ends inside a
 * record or before the last declared one, a count one past the
 * payload's records, and records that claim more bytes than the
 * payload holds. Each damages a block with other blocks before and
 * after it.
 */
TEST(TraceV3Load, DecoderRejectsBadOpcodesSlackAndPayloadsThatEndEarly)
{
    constexpr std::size_t perBlock = 64;
    constexpr std::size_t bad = 1;
    // compress: block 1 encodes its 64 records in 674 bytes, so it can
    // lose 54 and still pass the frame's 9-bytes-per-record floor.
    const auto original = captureWorkloadTrace("compress", 3 * perBlock + 5);
    const std::string path = tempPath("vpsim_v3_decoder_rejects.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, perBlock).isOk());
    const std::vector<unsigned char> clean = slurp(path);
    const std::size_t frame = blockOffset(clean, bad);

    struct Damage
    {
        const char *name;
        std::vector<unsigned char> bytes;
    };
    std::vector<Damage> cases = {{"opcode in record 1", clean},
                                 {"opcode in the last record", clean},
                                 {"64 bytes of slack", clean},
                                 {"1 byte of slack", clean},
                                 {"over-long varint in record 1", clean},
                                 {"over-long varint in the last record",
                                  clean},
                                 {"payload cut by 1 byte", clean},
                                 {"payload cut by 10 bytes", clean},
                                 {"payload cut by 54 bytes", clean},
                                 {"one record more than the payload",
                                  clean},
                                 {"continuation bits throughout", clean}};
    breakOpcode(cases[0].bytes, frame, 1);
    breakOpcode(cases[1].bytes, frame, perBlock - 1);
    addSlack(cases[2].bytes, frame, 64);
    addSlack(cases[3].bytes, frame, 1);
    overlongVarint(cases[4].bytes, frame, 1);
    overlongVarint(cases[5].bytes, frame, perBlock - 1);
    cutPayload(cases[6].bytes, frame, 1);
    cutPayload(cases[7].bytes, frame, 10);
    cutPayload(cases[8].bytes, frame, 5 * maxVarintBytes + 4);
    raiseCount(cases[9].bytes, frame);
    floodPayload(cases[10].bytes, frame);
    for (const Damage &damage : cases) {
        SCOPED_TRACE(damage.name);
        spit(path, damage.bytes);
        expectOnlyTheDecoderRejectsBlock(path, original, bad, perBlock);
    }
    std::remove(path.c_str());
}

TEST(TraceV3Load, SequenceNumberOffItsPositionIsCorrupt)
{
    // A record's sequence number is its position: the writer encodes
    // it and the reader checks it. Block 1 is rebuilt by hand with one
    // record off its position by 2^62, a 10-byte gap (its successors
    // follow on densely from it): the block's first record, one the
    // bulk loop decodes and the last, which the checked tail decodes.
    // Each must fail naming the block, read whole and streamed, under
    // a valid CRC.
    constexpr std::size_t perBlock = 64;
    constexpr std::size_t bad = 1;
    constexpr std::size_t first = bad * perBlock;
    const auto original = extremeRecords(3 * perBlock + 5);
    const std::string path = tempPath("vpsim_v3_seq_jump.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, perBlock).isOk());
    const std::vector<unsigned char> clean = slurp(path);
    const std::size_t frame = blockOffset(clean, bad);
    const TraceSpan records = TraceSpan(original).subspan(first, perBlock);
    const auto no_address = [](std::size_t) { return Addr{0}; };
    const auto jump_at = [&](std::size_t off) {
        return handPayload(records, first,
                           [off](std::size_t at) {
                               return SeqNum{at} +
                                      (at >= off ? SeqNum{1} << 62 : 0);
                           },
                           no_address);
    };
    const auto dense = handPayload(
        records, first, [](std::size_t at) { return SeqNum{at}; },
        no_address);
    ASSERT_EQ(dense.size(), getLe32(clean, frame + 8));
    ASSERT_TRUE(std::equal(dense.begin(), dense.end(),
                           clean.begin() + static_cast<std::ptrdiff_t>(
                                               frame + v3BlockFrameBytes)))
        << "the hand encoder writes positions as the writer does";

    std::vector<unsigned char> tail_case = clean;
    replacePayload(tail_case, frame, jump_at(first + perBlock - 1));
    const std::vector<std::size_t> starts = recordStarts(tail_case, frame);
    ASSERT_GE(starts.back() - starts[1], 5 * maxVarintBytes + 4)
        << "record 1 must be decoded in the bulk loop";
    ASSERT_LT(starts.back() - starts[perBlock - 1], 5 * maxVarintBytes + 4)
        << "the last record must be decoded in the checked tail";

    for (const std::size_t off : {first, first + 1, first + perBlock - 1}) {
        SCOPED_TRACE("off its position from record " + std::to_string(off));
        std::vector<unsigned char> bytes = clean;
        replacePayload(bytes, frame, jump_at(off));
        spit(path, bytes);
        expectOnlyTheDecoderRejectsBlock(
            path, original, bad, perBlock,
            "record sequence number is not its position");
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
    EXPECT_EQ(block[0].pc, original[0].pc);
    EXPECT_EQ(block[0].result, original[0].result);
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
    // Blocks alternate between the source's two block buffers: every
    // span lies inside one of them, and neither moves across blocks or
    // across reset().
    const auto original = captureWorkloadTrace("go", 2000);
    const std::string path = tempPath("vpsim_v3_stream_reset.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 256).isOk());

    StreamingTraceSource source;
    ASSERT_TRUE(source.open(path).isOk());
    TraceSpan block;
    ASSERT_TRUE(source.nextBlock(block, TraceSpan::noLimit));
    const TraceRecord *const first = block.data();
    ASSERT_TRUE(source.nextBlock(block, TraceSpan::noLimit));
    const TraceRecord *const second = block.data();
    EXPECT_EQ(block[0].pc, original[256].pc);
    EXPECT_NE(first, second) << "block 1 is decoded beside block 0";
    const auto inside_a_buffer = [&](TraceSpan span) {
        for (const TraceRecord *buffer : {first, second}) {
            if (span.data() >= buffer &&
                span.data() + span.size() <= buffer + 256)
                return true;
        }
        return false;
    };

    std::vector<TraceRecord> got;
    for (const bool rewound : {false, true}) {
        SCOPED_TRACE(rewound ? "after reset" : "first pass");
        if (rewound) {
            source.reset();
            got.clear();
        } else {
            got.assign(original.begin(), original.begin() + 512);
        }
        std::size_t deliveries = 0;
        while (source.nextBlock(block, 100)) {
            EXPECT_TRUE(inside_a_buffer(block))
                << "delivery " << deliveries
                << " lies outside both block buffers";
            if (rewound && deliveries == 0) {
                EXPECT_EQ(block.data(), first) << "reset keeps the buffers";
            }
            got.insert(got.end(), block.begin(), block.end());
            ++deliveries;
        }
        EXPECT_TRUE(source.status().isOk()) << source.status().message();
        EXPECT_EQ(source.recordsDelivered(), original.size());
        expectSameRecords(got, original);
    }
    std::remove(path.c_str());
}

TEST(StreamingSource, MalformedBlockLeavesTheServedSpanIntact)
{
    // Block 2 passes its checksum but its last record does not decode.
    // The read-ahead decodes it into the buffer block 0 used, never
    // over block 1, so block 1's span still holds block 1 after the
    // failed delivery.
    constexpr std::size_t perBlock = 64;
    const auto original = captureWorkloadTrace("compress", 4 * perBlock);
    const std::string path = tempPath("vpsim_v3_stream_malformed.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, perBlock).isOk());
    std::vector<unsigned char> bytes = slurp(path);
    breakOpcode(bytes, blockOffset(bytes, 2), perBlock - 1);
    spit(path, bytes);

    StreamingTraceSource source;
    ASSERT_TRUE(source.open(path).isOk());
    TraceSpan served;
    ASSERT_TRUE(source.nextBlock(served, TraceSpan::noLimit));
    ASSERT_TRUE(source.nextBlock(served, TraceSpan::noLimit));
    ASSERT_EQ(served.size(), perBlock);
    TraceSpan after;
    EXPECT_FALSE(source.nextBlock(after, TraceSpan::noLimit));
    EXPECT_EQ(source.status().code(), StatusCode::kCorrupt);
    EXPECT_EQ(source.status().message(),
              "corrupt record encoding in block 2 of " + path);
    expectSameRecords(std::vector<TraceRecord>(served.begin(), served.end()),
                      std::vector<TraceRecord>(original.begin() + perBlock,
                                               original.begin() +
                                                   2 * perBlock));
    std::remove(path.c_str());
}

TEST(StreamingSource, DestroyingWhileTheReadAheadWaitsReturnsPromptly)
{
    // Unread, the read-ahead fills both buffers and waits for one to
    // come free; after one delivery it waits with block 1 decoded. The
    // destructor must wake and join it either way.
    const auto original = captureWorkloadTrace("go", 2000);
    const std::string path = tempPath("vpsim_v3_stream_destroy.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 256).isOk());
    for (const std::size_t deliveries : {0u, 1u}) {
        SCOPED_TRACE(std::to_string(deliveries) + " deliveries");
        auto source = std::make_unique<StreamingTraceSource>();
        ASSERT_TRUE(source->open(path).isOk());
        TraceSpan block;
        for (std::size_t i = 0; i < deliveries; ++i)
            ASSERT_TRUE(source->nextBlock(block, TraceSpan::noLimit));
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const auto start = std::chrono::steady_clock::now();
        source = nullptr;
        EXPECT_LT(std::chrono::steady_clock::now() - start,
                  std::chrono::seconds(2));
    }
    std::remove(path.c_str());
}

TEST(StreamingSource, ResetMidBlockAndAfterTheEndRestartsAtRecordZero)
{
    const auto original = captureWorkloadTrace("li", 1500);
    const std::string path = tempPath("vpsim_v3_stream_rewind.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 256).isOk());
    const auto read_all = [](StreamingTraceSource &source) {
        std::vector<TraceRecord> got;
        TraceSpan span;
        while (source.nextBlock(span, 100))
            got.insert(got.end(), span.begin(), span.end());
        return got;
    };

    StreamingTraceSource source;
    ASSERT_TRUE(source.open(path).isOk());
    TraceSpan span;
    for (int i = 0; i < 4; ++i) // 400 records: mid block 1
        ASSERT_TRUE(source.nextBlock(span, 100));
    source.reset();
    EXPECT_EQ(source.recordsDelivered(), 0u);
    expectSameRecords(read_all(source), original);
    EXPECT_TRUE(source.status().isOk()) << source.status().message();

    source.reset();
    expectSameRecords(read_all(source), original);
    EXPECT_TRUE(source.status().isOk()) << source.status().message();
    std::remove(path.c_str());
}

TEST(StreamingSource, DamageFoundAheadStaysHiddenUntilTheConsumerGetsThere)
{
    // The read-ahead may reach block 2's bad checksum as soon as the
    // consumer asks for block 1. status() must stay ok, and every
    // record of blocks 0 and 1 must come out, until the consumer asks
    // past block 1.
    const auto original = captureWorkloadTrace("compress", 4 * 256);
    const std::string path = tempPath("vpsim_v3_stream_ahead.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 256).isOk());
    std::vector<unsigned char> bytes = slurp(path);
    bytes[blockOffset(bytes, 2) + v3BlockFrameBytes + 3] ^= 0x10;
    spit(path, bytes);

    StreamingTraceSource source;
    ASSERT_TRUE(source.open(path).isOk());
    std::vector<TraceRecord> got;
    TraceSpan span;
    ASSERT_TRUE(source.nextBlock(span, TraceSpan::noLimit));
    got.insert(got.end(), span.begin(), span.end());
    ASSERT_TRUE(source.nextBlock(span, 56));
    got.insert(got.end(), span.begin(), span.end());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    while (got.size() < 2 * 256) {
        EXPECT_TRUE(source.status().isOk()) << source.status().message();
        ASSERT_TRUE(source.nextBlock(span, 50));
        got.insert(got.end(), span.begin(), span.end());
    }
    EXPECT_TRUE(source.status().isOk()) << source.status().message();
    EXPECT_FALSE(source.nextBlock(span));
    EXPECT_EQ(source.status().code(), StatusCode::kCorrupt);
    EXPECT_NE(source.status().message().find("checksum mismatch at block 2"),
              std::string::npos)
        << source.status().message();
    expectSameRecords(got, std::vector<TraceRecord>(
                               original.begin(), original.begin() + 512));
    std::remove(path.c_str());
}

TEST(StreamingSource, ThrowingReadReachesTheConsumerAtItsBlock)
{
    // Reads 1 and 2 are the header and the trailer, 3 and 4 block 0's
    // frame and payload: read 5, block 1's frame, throws on the
    // read-ahead. The consumer gets block 0, then the exception where
    // block 1 would have been, then a sticky end.
    InjectorGuard guard;
    const auto original = captureWorkloadTrace("go", 1000);
    const std::string path = tempPath("vpsim_v3_stream_throw.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 256).isOk());
    io::configureFaultInjection("read:5:throw");

    StreamingTraceSource source;
    ASSERT_TRUE(source.open(path).isOk());
    TraceSpan span;
    ASSERT_TRUE(source.nextBlock(span, TraceSpan::noLimit));
    EXPECT_EQ(span.size(), 256u);
    EXPECT_THROW(source.nextBlock(span), std::runtime_error);
    EXPECT_FALSE(source.nextBlock(span));
    EXPECT_EQ(source.status().code(), StatusCode::kInternal);
    EXPECT_EQ(source.recordsDelivered(), 256u);
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
