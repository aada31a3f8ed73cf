/**
 * @file
 * Tests for the v3 block-framed trace format: the whole-file read and
 * write status contract, block framing and salvage containment, and
 * the bounded-memory streaming source.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/io.hpp"
#include "trace/streaming_source.hpp"
#include "trace/trace_v3.hpp"
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
        ASSERT_EQ(got[i].memAddr, want[i].memAddr) << "record " << i;
        ASSERT_EQ(got[i].result, want[i].result) << "record " << i;
        ASSERT_EQ(got[i].op, want[i].op) << "record " << i;
        ASSERT_EQ(got[i].rd, want[i].rd) << "record " << i;
        ASSERT_EQ(got[i].rs1, want[i].rs1) << "record " << i;
        ASSERT_EQ(got[i].rs2, want[i].rs2) << "record " << i;
        ASSERT_EQ(got[i].taken, want[i].taken) << "record " << i;
    }
}

/** Read @p path whole through one TraceV3Reader backend. */
Status
readWithBackend(const std::string &path, bool mapped,
                std::vector<TraceRecord> *out)
{
    out->clear();
    TraceV3Reader reader;
    TraceV3Reader::Options options;
    options.preferMapped = mapped;
    if (Status opened = reader.open(path, options); !opened.isOk())
        return opened;
    TraceSoa block;
    for (;;) {
        TraceV3Reader::Block outcome = TraceV3Reader::Block::kEnd;
        if (Status got = reader.nextBlock(&block, &outcome); !got.isOk())
            return got;
        if (outcome == TraceV3Reader::Block::kEnd)
            return Status::ok();
        const TraceColumns cols = block.columns();
        for (std::size_t i = 0; i < cols.size(); ++i)
            out->push_back(cols.record(i));
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
    // reads refuse it; salvage keeps every record.
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
    ASSERT_TRUE(readTraceV3(path, &out, /*salvage=*/true).isOk());
    expectSameRecords(out, original);
    std::remove(path.c_str());
}

TEST(TraceIo, MappedAndBufferedReadsAgree)
{
    const auto original = captureWorkloadTrace("li", 3000);
    const std::string path = tempPath("vpsim_mmap_parity.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 512).isOk());

    std::vector<TraceRecord> via_mapped;
    ASSERT_TRUE(readWithBackend(path, true, &via_mapped).isOk());
    std::vector<TraceRecord> via_buffered;
    ASSERT_TRUE(readWithBackend(path, false, &via_buffered).isOk());
    expectSameRecords(via_mapped, original);
    expectSameRecords(via_buffered, original);
    std::remove(path.c_str());
}

TEST(TraceIo, MappedAndBufferedCorruptionMessagesAgree)
{
    // Every block-level corruption must fail identically on both
    // backends: the trace cache quarantines on code and message, and
    // the streaming source reads buffered while readTraceV3() maps.
    const auto trace = captureWorkloadTrace("go", 1200);
    const std::string path = tempPath("vpsim_mmap_corrupt.vptrace");
    ASSERT_TRUE(writeTraceV3(path, trace, 256).isOk());
    const std::vector<unsigned char> pristine = slurp(path);
    const std::size_t second = blockOffset(pristine, 1);
    const auto corrupt_then_compare =
        [&](const std::vector<unsigned char> &bytes) {
            spit(path, bytes);
            std::vector<TraceRecord> out;
            const Status mapped = readWithBackend(path, true, &out);
            const Status buffered = readWithBackend(path, false, &out);
            ASSERT_FALSE(mapped.isOk());
            EXPECT_EQ(mapped.code(), buffered.code());
            EXPECT_EQ(mapped.message(), buffered.message());
        };

    std::vector<unsigned char> bytes = pristine;
    bytes[second + v3BlockFrameBytes + 5] ^= 0x10; // payload bit rot
    corrupt_then_compare(bytes);
    bytes = pristine;
    bytes[second] = 'X'; // frame magic
    corrupt_then_compare(bytes);
    bytes = pristine;
    bytes.resize(second + v3BlockFrameBytes + 7); // cut mid-block
    corrupt_then_compare(bytes);
    bytes = pristine;
    bytes.resize(pristine.size() - 3); // torn trailer
    corrupt_then_compare(bytes);
    bytes = pristine;
    bytes.insert(bytes.end(), {'?', '?'}); // trailing junk
    corrupt_then_compare(bytes);
    bytes = pristine;
    bytes[0] = 'J'; // file magic
    corrupt_then_compare(bytes);
    bytes = pristine;
    bytes[4] = 1; // stale version byte
    corrupt_then_compare(bytes);
    std::remove(path.c_str());
}

TEST(TraceIo, SpanIterationMatchesColumnsAfterRoundTrip)
{
    const auto original = captureWorkloadTrace("go", 4000);
    const std::string path = tempPath("vpsim_span_roundtrip.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 512).isOk());

    // The file must deliver identically through both halves of the
    // TraceSource API, record for record: spans of one size against
    // columns of another, so the two cursors cross block boundaries
    // at different points.
    StreamingTraceSource span_source;
    StreamingTraceSource column_source;
    ASSERT_TRUE(span_source.open(path).isOk());
    ASSERT_TRUE(column_source.open(path).isOk());
    std::size_t index = 0;
    std::size_t column_index = 0;
    TraceSpan block;
    TraceColumns cols;
    while (span_source.nextBlock(block, 123)) {
        for (const TraceRecord &from_span : block) {
            if (column_index == cols.size()) {
                ASSERT_TRUE(column_source.nextColumns(cols, 77));
                column_index = 0;
            }
            const TraceRecord from_columns = cols.record(column_index++);
            ASSERT_LT(index, original.size());
            EXPECT_EQ(from_span.seq, from_columns.seq);
            EXPECT_EQ(from_span.pc, original[index].pc);
            EXPECT_EQ(from_columns.pc, original[index].pc);
            EXPECT_EQ(from_span.result, from_columns.result);
            EXPECT_EQ(from_columns.taken, original[index].taken);
            ++index;
        }
    }
    EXPECT_EQ(column_index, cols.size());
    EXPECT_FALSE(column_source.nextColumns(cols));
    EXPECT_TRUE(span_source.status().isOk());
    EXPECT_TRUE(column_source.status().isOk());
    EXPECT_EQ(index, original.size());
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

TEST(TraceV3, FlippedBlockFailsStrictAndIsQuarantinedBySalvage)
{
    const auto original = captureWorkloadTrace("compress", 4000);
    const std::string path = tempPath("vpsim_v3_flip.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 512).isOk());

    std::vector<unsigned char> bytes = slurp(path);
    std::uint64_t records_before = 0;
    std::uint32_t block_count = 0;
    const std::size_t offset =
        blockOffset(bytes, 2, &records_before, &block_count);
    bytes[offset + v3BlockFrameBytes + 7] ^= 0x01; // payload bit rot
    spit(path, bytes);

    std::vector<TraceRecord> out;
    const Status strict = readTraceV3(path, &out);
    ASSERT_FALSE(strict.isOk());
    EXPECT_EQ(strict.code(), StatusCode::kCorrupt);
    EXPECT_NE(strict.message().find("block"), std::string::npos)
        << strict.message();

    BlockSalvageReport report;
    ASSERT_TRUE(readTraceV3(path, &out, /*salvage=*/true, &report)
                    .isOk());
    EXPECT_EQ(report.blocksQuarantined, 1u);
    EXPECT_EQ(report.recordsLost, block_count);
    ASSERT_EQ(out.size(), original.size() - block_count);

    // Salvage loses exactly the quarantined block: everything before
    // it and everything after it survives bit-for-bit.
    std::vector<TraceRecord> expected(
        original.begin(),
        original.begin() + static_cast<std::ptrdiff_t>(records_before));
    expected.insert(expected.end(),
                    original.begin() + static_cast<std::ptrdiff_t>(
                                           records_before + block_count),
                    original.end());
    expectSameRecords(out, expected);
    std::remove(path.c_str());
}

TEST(TraceV3, TruncationMidBlockSalvagesThePrefix)
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

    BlockSalvageReport report;
    ASSERT_TRUE(readTraceV3(path, &out, /*salvage=*/true, &report)
                    .isOk());
    EXPECT_GE(report.blocksQuarantined, 1u);
    ASSERT_EQ(out.size(), records_before);
    expectSameRecords(
        out, std::vector<TraceRecord>(
                 original.begin(),
                 original.begin() +
                     static_cast<std::ptrdiff_t>(records_before)));
    std::remove(path.c_str());
}

TEST(TraceV3, TrailingGarbageFailsStrictButNotSalvage)
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
    EXPECT_NE(strict.message().find("trailing bytes"),
              std::string::npos)
        << strict.message();

    ASSERT_TRUE(readTraceV3(path, &out, /*salvage=*/true).isOk());
    expectSameRecords(out, original);
    std::remove(path.c_str());
}

TEST(TraceV3, InjectedBlockCrcFaultQuarantinesExactlyThatBlock)
{
    InjectorGuard guard;
    const auto original = captureWorkloadTrace("compress", 3000);
    const std::string path = tempPath("vpsim_v3_blockfault.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 512).isOk());

    io::configureFaultInjection("block:2:block-crc");
    std::vector<TraceRecord> out;
    const Status strict = readTraceV3(path, &out);
    ASSERT_FALSE(strict.isOk());
    EXPECT_EQ(strict.code(), StatusCode::kCorrupt);
    EXPECT_NE(strict.message().find("(injected)"), std::string::npos)
        << strict.message();

    io::configureFaultInjection("block:2:block-crc");
    BlockSalvageReport report;
    ASSERT_TRUE(readTraceV3(path, &out, /*salvage=*/true, &report)
                    .isOk());
    EXPECT_EQ(report.blocksQuarantined, 1u);
    EXPECT_EQ(out.size(), original.size() - 512);
    std::remove(path.c_str());
}

TEST(TraceV3, InjectedCaptureEnospcFailsTheAppend)
{
    InjectorGuard guard;
    io::configureFaultInjection("capture:2:enospc-capture");
    const auto original = captureWorkloadTrace("go", 100);
    const std::string path = tempPath("vpsim_v3_capfault.vptrace");
    TraceV3Writer writer;
    ASSERT_TRUE(writer.open(path).isOk());
    ASSERT_TRUE(writer.append(TraceSpan(original)).isOk());
    const Status second = writer.append(TraceSpan(original));
    ASSERT_FALSE(second.isOk());
    EXPECT_EQ(second.code(), StatusCode::kIo);
    EXPECT_NE(second.message().find("No space left on device"),
              std::string::npos)
        << second.message();
    writer.close();
    std::remove(path.c_str());
}

TEST(TraceV3, SalvageRegistryAccumulatesAndResets)
{
    salvageRegistry().reset();
    BlockSalvageReport damage;
    damage.blocksQuarantined = 2;
    damage.recordsLost = 1024;
    damage.bytesSkipped = 99;
    salvageRegistry().note("a.vptrace", damage);
    salvageRegistry().note("b.vptrace", damage);
    salvageRegistry().note("clean.vptrace", BlockSalvageReport());

    const SalvageRegistry::Totals totals = salvageRegistry().totals();
    EXPECT_EQ(totals.files, 2u) << "clean files are not counted";
    EXPECT_EQ(totals.blocksQuarantined, 4u);
    EXPECT_EQ(totals.recordsLost, 2048u);
    EXPECT_EQ(totals.bytesSkipped, 198u);
    salvageRegistry().reset();
    EXPECT_EQ(salvageRegistry().totals().files, 0u);
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

TEST(StreamingSource, ColumnarPathMatchesTheSpanPath)
{
    const auto original = captureWorkloadTrace("go", 3000);
    const std::string path = tempPath("vpsim_v3_stream_cols.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 256).isOk());

    StreamingTraceSource source;
    ASSERT_TRUE(source.open(path).isOk());
    ASSERT_TRUE(source.supportsColumns());
    std::vector<TraceRecord> got;
    TraceColumns cols;
    while (source.nextColumns(cols, 100)) {
        for (std::size_t i = 0; i < cols.size(); ++i)
            got.push_back(cols.record(i));
    }
    EXPECT_TRUE(source.status().isOk());
    expectSameRecords(got, original);
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

TEST(StreamingSource, SalvageModeSkipsDamageAndKeepsStreaming)
{
    const auto original = captureWorkloadTrace("compress", 4000);
    const std::string path = tempPath("vpsim_v3_stream_salvage.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 512).isOk());
    std::vector<unsigned char> bytes = slurp(path);
    std::uint32_t block_count = 0;
    const std::size_t offset = blockOffset(bytes, 1, nullptr,
                                           &block_count);
    bytes[offset + v3BlockFrameBytes + 3] ^= 0x10;
    spit(path, bytes);

    StreamingTraceSource strict;
    ASSERT_TRUE(strict.open(path).isOk());
    TraceSpan block;
    std::uint64_t strict_records = 0;
    while (strict.nextBlock(block))
        strict_records += block.size();
    EXPECT_FALSE(strict.status().isOk())
        << "strict streaming must surface the damage";
    EXPECT_EQ(strict.status().code(), StatusCode::kCorrupt);

    StreamingTraceSource salvage;
    ASSERT_TRUE(salvage.open(path, /*salvage=*/true).isOk());
    std::uint64_t salvaged_records = 0;
    while (salvage.nextBlock(block))
        salvaged_records += block.size();
    EXPECT_TRUE(salvage.status().isOk());
    EXPECT_EQ(salvaged_records, original.size() - block_count);
    EXPECT_EQ(salvage.salvageReport().blocksQuarantined, 1u);
    std::remove(path.c_str());
}

TEST(StreamingSource, ResetReusesTheDecodedBlockBuffer)
{
    const auto original = captureWorkloadTrace("go", 2000);
    const std::string path = tempPath("vpsim_v3_stream_reset.vptrace");
    ASSERT_TRUE(writeTraceV3(path, original, 256).isOk());

    StreamingTraceSource source;
    ASSERT_TRUE(source.open(path).isOk());
    // A partial columnar read that crosses into the second block, so
    // the one block buffer has already been decoded over once.
    TraceColumns cols;
    ASSERT_TRUE(source.nextColumns(cols, 200));
    const SeqNum *const buffer = cols.seq;
    ASSERT_TRUE(source.nextColumns(cols, 200));
    ASSERT_TRUE(source.nextColumns(cols, 200));
    EXPECT_EQ(cols.seq[0], original[256].seq)
        << "the third delivery starts the second block";
    EXPECT_EQ(cols.seq, buffer)
        << "the second block is decoded into the first block's buffer";

    source.reset();
    std::vector<TraceRecord> got;
    ASSERT_TRUE(source.nextColumns(cols, 100));
    EXPECT_EQ(cols.seq, buffer) << "reset keeps the buffer";
    do {
        for (std::size_t i = 0; i < cols.size(); ++i)
            got.push_back(cols.record(i));
    } while (source.nextColumns(cols, 100));
    EXPECT_TRUE(source.status().isOk());
    expectSameRecords(got, original);

    source.reset();
    got.clear();
    TraceSpan block;
    while (source.nextBlock(block, 300))
        got.insert(got.end(), block.begin(), block.end());
    EXPECT_TRUE(source.status().isOk());
    EXPECT_EQ(source.recordsDelivered(), original.size());
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
