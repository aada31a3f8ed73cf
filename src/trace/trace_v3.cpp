#include "trace/trace_v3.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <stdexcept>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/crc32.hpp"
#include "common/logging.hpp"
#include "trace/varint.hpp"

namespace vpsim
{

namespace
{

constexpr char v3Magic[4] = {'V', 'P', 'T', 'R'};
constexpr char blockMagic[4] = {'V', 'P', 'B', '3'};
constexpr char trailerMagic[4] = {'V', 'P', 'E', '3'};

/** Upper bound on one record's encoded size (4 deltas + result + 4). */
constexpr std::size_t maxEncodedRecordBytes = 5 * maxVarintBytes + 4;

/** Lower bound on one record's encoded size (5 one-byte varints + 4). */
constexpr std::size_t minEncodedRecordBytes = 5 + 4;

/** Cap on records-per-block so a corrupt header can't balloon memory. */
constexpr std::uint32_t maxRecordsPerBlock = 1u << 22;

/**
 * Allocations this large get their own mapping (see below): whole
 * traces, but not the 3 MiB block buffers of the writer and readers.
 */
constexpr int ownMappingBytes = 4 << 20;

/**
 * Give every decoded trace its own mapping, so freeing it hands the
 * pages back. A sweep decodes its traces on worker threads and frees
 * them on another, once per round. Left to itself, glibc raises its
 * mmap threshold past the first large buffer freed, and later traces
 * land in the decoding thread's malloc arena. Which worker decodes
 * which trace varies from run to run, and an arena keeps its
 * high-water mark, so peak RSS wandered by a trace or more between
 * identical runs.
 */
void
keepTracesMapped()
{
#if defined(__GLIBC__)
    static std::once_flag once;
    std::call_once(once, [] { ::mallopt(M_MMAP_THRESHOLD, ownMappingBytes); });
#endif
}

void
packU32(unsigned char *out, std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        out[i] = static_cast<unsigned char>(value >> (8 * i));
}

void
packU64(unsigned char *out, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        out[i] = static_cast<unsigned char>(value >> (8 * i));
}

std::uint32_t
unpackU32(const unsigned char *in)
{
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i)
        value |= static_cast<std::uint32_t>(in[i]) << (8 * i);
    return value;
}

std::uint64_t
unpackU64(const unsigned char *in)
{
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= static_cast<std::uint64_t>(in[i]) << (8 * i);
    return value;
}

/**
 * Consult the injector's per-block counter. Control kinds behave as
 * everywhere else (sigint raises, throw throws); any other armed kind
 * reports true, which the caller turns into a forced CRC mismatch.
 */
bool
injectedBlockCorruption(const std::string &path)
{
    const io::FaultKind kind = io::faultInjector().next("block");
    if (kind == io::FaultKind::Sigint) {
        std::raise(SIGINT);
        return false;
    }
    if (kind == io::FaultKind::Throw)
        throw std::runtime_error("injected fault: block " + path);
    return kind != io::FaultKind::None;
}

/** Encode @p records as one block payload into @p out (appended). */
void
encodeBlockPayload(std::vector<unsigned char> &out, TraceSpan records)
{
    SeqNum prev_seq = 0;
    Addr prev_pc = 0;
    Addr prev_mem = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const TraceRecord &r = records[i];
        if (i == 0) {
            putVarint(out, r.seq);
            putVarint(out, r.pc);
        } else {
            putSignedVarint(out, static_cast<std::int64_t>(
                                     r.seq - (prev_seq + 1)));
            putSignedVarint(out,
                            static_cast<std::int64_t>(r.pc - prev_pc));
        }
        putSignedVarint(out, static_cast<std::int64_t>(
                                 r.nextPc - r.fallThrough()));
        if (i == 0)
            putVarint(out, r.memAddr);
        else
            putSignedVarint(out, static_cast<std::int64_t>(r.memAddr -
                                                           prev_mem));
        putVarint(out, r.result);
        out.push_back(static_cast<unsigned char>(
            static_cast<unsigned char>(r.op) |
            (r.taken ? 0x80u : 0x00u)));
        out.push_back(r.rd);
        out.push_back(r.rs1);
        out.push_back(r.rs2);
        prev_seq = r.seq;
        prev_pc = r.pc;
        prev_mem = r.memAddr;
    }
}

/**
 * Decode one record from @p p into @p r, which holds the previous
 * record of the block (deltas are against it) unless @p first. Every
 * byte is bounds-checked against @p end: this decodes a block's first
 * record and its tail, where a worst-case record may not fit.
 *
 * @return false on a malformed varint, a truncated record or an
 *         out-of-range opcode.
 */
bool
decodeRecordChecked(const unsigned char *&p, const unsigned char *end,
                    bool first, TraceRecord *r)
{
    std::uint64_t seq = 0;
    std::uint64_t pc = 0;
    std::uint64_t next_pc = 0;
    std::uint64_t mem = 0;
    std::uint64_t result = 0;
    if (!getVarint(p, end, &seq) || !getVarint(p, end, &pc) ||
        !getVarint(p, end, &next_pc) || !getVarint(p, end, &mem) ||
        !getVarint(p, end, &result)) {
        return false;
    }
    if (end - p < 4)
        return false;
    const unsigned char op_byte = p[0] & 0x7fu;
    if (op_byte >= static_cast<unsigned char>(OpCode::NumOpCodes))
        return false;
    if (first) {
        r->seq = seq;
        r->pc = pc;
        r->memAddr = mem;
    } else {
        r->seq += 1 + static_cast<std::uint64_t>(zigzagDecode(seq));
        r->pc += static_cast<std::uint64_t>(zigzagDecode(pc));
        r->memAddr += static_cast<std::uint64_t>(zigzagDecode(mem));
    }
    r->nextPc =
        r->pc + instBytes + static_cast<std::uint64_t>(zigzagDecode(next_pc));
    r->result = result;
    r->op = static_cast<OpCode>(op_byte);
    r->taken = (p[0] & 0x80u) != 0;
    r->rd = p[1];
    r->rs1 = p[2];
    r->rs2 = p[3];
    p += 4;
    return true;
}

/**
 * One varint with no bounds check: the caller guarantees
 * maxVarintBytes readable bytes at @p p. Most trace fields are one
 * byte, which takes the first branch. An encoding longer than
 * maxVarintBytes sets @p bad and stops after maxVarintBytes bytes, so
 * the caller's bounds guarantee still holds for what follows.
 */
inline std::uint64_t
takeVarint(const unsigned char *&p, unsigned &bad)
{
    const unsigned char first = *p++;
    if (first < 0x80u)
        return first;
    std::uint64_t result = first & 0x7fu;
    unsigned shift = 7;
    for (std::size_t i = 1; i < maxVarintBytes; ++i, shift += 7) {
        const unsigned char byte = *p++;
        result |= static_cast<std::uint64_t>(byte & 0x7fu) << shift;
        if ((byte & 0x80u) == 0)
            return result;
    }
    bad = 1;
    return result;
}

/**
 * Decode one block payload of @p count >= 1 records (nextPayload's
 * frame check) into @p dest[0..count). All deltas reset at the block
 * boundary, so this needs nothing from neighbouring blocks. False on any malformed encoding; @p dest then
 * holds garbage that must not be delivered.
 *
 * The first record (absolute fields) and the tail, where a worst-case
 * record may no longer fit, go through the per-byte checked decoder.
 * In between, bounds are checked once per record, the running
 * seq/pc/memAddr are locals, each record is written in place, and
 * over-long varints and out-of-range opcodes only raise a flag that is
 * checked once for the whole block.
 */
bool
decodeBlockPayload(const unsigned char *payload, std::size_t size,
                   std::uint32_t count, TraceRecord *dest)
{
    const unsigned char *p = payload;
    const unsigned char *const end = payload + size;
    if (!decodeRecordChecked(p, end, true, &dest[0]))
        return false;
    SeqNum seq = dest[0].seq;
    Addr pc = dest[0].pc;
    Addr mem = dest[0].memAddr;
    unsigned bad = 0;
    std::uint32_t i = 1;
    for (; i < count &&
           static_cast<std::size_t>(end - p) >= maxEncodedRecordBytes;
         ++i) {
        seq += 1 + static_cast<std::uint64_t>(
                       zigzagDecode(takeVarint(p, bad)));
        pc += static_cast<std::uint64_t>(zigzagDecode(takeVarint(p, bad)));
        const std::uint64_t next_pc = takeVarint(p, bad);
        mem += static_cast<std::uint64_t>(zigzagDecode(takeVarint(p, bad)));
        const std::uint64_t result = takeVarint(p, bad);
        const unsigned char op_byte = p[0] & 0x7fu;
        bad |= op_byte >= static_cast<unsigned char>(OpCode::NumOpCodes);
        TraceRecord &r = dest[i];
        r.seq = seq;
        r.pc = pc;
        r.nextPc =
            pc + instBytes + static_cast<std::uint64_t>(zigzagDecode(next_pc));
        r.memAddr = mem;
        r.result = result;
        r.op = static_cast<OpCode>(op_byte);
        r.rd = p[1];
        r.rs1 = p[2];
        r.rs2 = p[3];
        r.taken = (p[0] & 0x80u) != 0;
        p += 4;
    }
    if (bad)
        return false;
    for (; i < count; ++i) {
        dest[i] = dest[i - 1];
        if (!decodeRecordChecked(p, end, false, &dest[i]))
            return false;
    }
    // A valid block's payload is consumed exactly; slack means the
    // declared count or the payload length lied.
    return p == end;
}

Status
corrupt(const std::string &detail)
{
    return Status::error(StatusCode::kCorrupt, detail);
}

} // namespace

// ---------------------------------------------------------------------------
// TraceV3Writer

Status
TraceV3Writer::open(const std::string &path,
                    std::uint32_t records_per_block)
{
    panicIf(isOpen(), "TraceV3Writer reopened while open: " + path);
    panicIf(records_per_block == 0 ||
                records_per_block > maxRecordsPerBlock,
            "bad records-per-block for v3 writer");
    if (Status opened = file.openForWrite(path); !opened.isOk())
        return opened;
    recordsPerBlock = records_per_block;
    totalRecords = 0;
    totalBlocks = 0;
    pending.clear();
    scratch.reserve(std::size_t{recordsPerBlock} * maxEncodedRecordBytes);

    unsigned char header[v3HeaderBytes] = {};
    std::memcpy(header, v3Magic, 4);
    header[4] = static_cast<unsigned char>(traceFormatVersionV3);
    packU32(header + 8, recordsPerBlock);
    packU32(header + 12, crc32(header, 12));
    if (Status put = file.writeAll(header, sizeof(header)); !put.isOk())
        return Status::error(put.code(),
                             "trace header: " + put.message());
    return Status::ok();
}

Status
TraceV3Writer::append(TraceSpan records)
{
    panicIf(!isOpen(), "append on closed TraceV3Writer");
    const io::FaultKind kind = io::faultInjector().next("capture");
    if (kind == io::FaultKind::Sigint)
        std::raise(SIGINT);
    else if (kind == io::FaultKind::Throw)
        throw std::runtime_error("injected fault: capture " +
                                 file.path());
    else if (kind != io::FaultKind::None) {
        const int err = (kind == io::FaultKind::Eio) ? EIO : ENOSPC;
        return Status::error(StatusCode::kIo,
                             "capture write error on " + file.path() +
                                 ": " + std::strerror(err) +
                                 " (injected)");
    }
    const std::size_t appended = records.size();
    if (!pending.empty()) {
        // Top up the buffered tail first; write it once it is a block.
        const TraceSpan head =
            records.first(recordsPerBlock - pending.size());
        pending.insert(pending.end(), head.begin(), head.end());
        records = records.subspan(head.size());
        if (pending.size() == recordsPerBlock) {
            if (Status put = flushBlock(TraceSpan(pending)); !put.isOk())
                return put;
            pending.clear();
        }
    }
    for (; records.size() >= recordsPerBlock;
         records = records.subspan(recordsPerBlock)) {
        if (Status put = flushBlock(records.first(recordsPerBlock));
            !put.isOk()) {
            return put;
        }
    }
    pending.insert(pending.end(), records.begin(), records.end());
    totalRecords += appended;
    return Status::ok();
}

/** Encode and write @p block (1..recordsPerBlock records) as one block. */
Status
TraceV3Writer::flushBlock(TraceSpan block)
{
    const std::size_t count = block.size();
    panicIf(count == 0, "flushBlock with no records");
    scratch.clear();
    encodeBlockPayload(scratch, block);

    unsigned char frame_header[v3BlockFrameBytes];
    std::memcpy(frame_header, blockMagic, 4);
    packU32(frame_header + 4, static_cast<std::uint32_t>(count));
    packU32(frame_header + 8, static_cast<std::uint32_t>(scratch.size()));
    Crc32 crc;
    crc.update(frame_header, sizeof(frame_header));
    crc.update(scratch.data(), scratch.size());
    unsigned char footer[4];
    packU32(footer, crc.value());

    if (Status put = file.writeAll(frame_header, sizeof(frame_header));
        !put.isOk()) {
        return Status::error(put.code(),
                             "trace block frame: " + put.message());
    }
    if (Status put = file.writeAll(scratch.data(), scratch.size());
        !put.isOk()) {
        return Status::error(put.code(),
                             "trace block payload: " + put.message());
    }
    if (Status put = file.writeAll(footer, sizeof(footer)); !put.isOk())
        return Status::error(put.code(),
                             "trace block footer: " + put.message());
    ++totalBlocks;
    return Status::ok();
}

Status
TraceV3Writer::finish()
{
    panicIf(!isOpen(), "finish on closed TraceV3Writer");
    if (!pending.empty()) {
        if (Status put = flushBlock(TraceSpan(pending)); !put.isOk())
            return put;
        pending.clear();
    }
    unsigned char trailer[v3TrailerBytes];
    std::memcpy(trailer, trailerMagic, 4);
    packU64(trailer + 4, totalRecords);
    packU64(trailer + 12, totalBlocks);
    packU32(trailer + 20, crc32(trailer, 20));
    if (Status put = file.writeAll(trailer, sizeof(trailer));
        !put.isOk()) {
        return Status::error(put.code(),
                             "trace trailer: " + put.message());
    }
    // fsync before the caller's atomic rename: a rename that lands
    // before the data does can publish a file whose tail is garbage.
    if (Status synced = file.sync(); !synced.isOk())
        return synced;
    file.close();
    return Status::ok();
}

void
TraceV3Writer::close()
{
    file.close();
    pending.clear();
    scratch.clear();
}

// ---------------------------------------------------------------------------
// TraceV3Reader

Status
TraceV3Reader::open(const std::string &path, const Options &options)
{
    panicIf(opened, "TraceV3Reader reopened while open: " + path);
    opts = options;
    filePath = path;
    done = false;
    declaredRecords = 0;
    hint = 0;
    report = BlockSalvageReport();

    // Every failure leaves the reader closed, so it can open again.
    const Status got = openAndValidate(path);
    if (!got.isOk()) {
        file.close();
        pendback.clear();
        frame.clear();
    }
    return got;
}

Status
TraceV3Reader::openAndValidate(const std::string &path)
{
    if (Status got = file.openForRead(path); !got.isOk())
        return got;
    fileOffset = 0;
    if (Status got = file.sizeBytes(&fileBytes); !got.isOk())
        return got;

    bool at_end = false;
    if (Status got = readFrame(v3HeaderBytes, &at_end); !got.isOk())
        return Status::error(got.code(),
                             "trace header: " + got.message());
    if (at_end)
        return corrupt("trace header: unexpected end of file in " +
                       filePath + " (truncated?)");
    const unsigned char *h = frameData;
    if (std::memcmp(h, v3Magic, 4) != 0)
        return corrupt("bad trace file magic: " + filePath);
    if (h[4] != traceFormatVersionV3) {
        return corrupt("unsupported trace file version " +
                       std::to_string(h[4]) + " in " + filePath +
                       " (expected " +
                       std::to_string(traceFormatVersionV3) + ")");
    }
    if (unpackU32(h + 12) != crc32(h, 12))
        return corrupt("trace header checksum mismatch in " + filePath);
    blockRecords = unpackU32(h + 8);
    if (blockRecords == 0 || blockRecords > maxRecordsPerBlock) {
        return corrupt("bad records-per-block " +
                       std::to_string(blockRecords) + " in " + filePath);
    }
    // The trailer is one positioned read away before any block is
    // read. Its count is only a size hint, capped by what the file's
    // bytes can hold so a lying trailer cannot balloon memory; it is
    // validated against the decoded blocks at the end as usual. A
    // missing or damaged trailer is data, not an I/O error: no hint.
    if (fileBytes >= v3HeaderBytes + v3TrailerBytes) {
        unsigned char t[v3TrailerBytes];
        const Status got = file.readExactAt(fileBytes - v3TrailerBytes,
                                            t, sizeof(t));
        if (got.code() == StatusCode::kIo)
            return Status::error(got.code(),
                                 "trace trailer: " + got.message());
        if (got.isOk() && std::memcmp(t, trailerMagic, 4) == 0 &&
            unpackU32(t + 20) == crc32(t, 20)) {
            hint = std::min<std::uint64_t>(
                unpackU64(t + 4), fileBytes / minEncodedRecordBytes);
        }
    }
    opened = true;
    return Status::ok();
}

/**
 * Make the next @p size bytes of the stream available at frameData.
 * Sets *at_end (without error) when the stream is cleanly exhausted
 * before the first byte; a partial frame is kCorrupt truncation.
 */
Status
TraceV3Reader::readFrame(std::size_t size, bool *at_end)
{
    *at_end = false;
    const std::uint64_t left = pendback.size() + (fileBytes - fileOffset);
    if (left == 0) {
        *at_end = true;
        return Status::ok();
    }
    if (frame.size() < size) {
        // Twice what is asked: the block payloads of one file differ by
        // far less than 2x, so after its first block a stream never
        // reallocates the frame buffer.
        if (frame.capacity() < size)
            frame.reserve(2 * size);
        frame.resize(size);
    }
    if (left < size) {
        // Fewer bytes than a block frame hold neither a block nor the
        // trailer: they are dropped. More stay for resync() to scan, as
        // a damaged payload length can run past the end of the file
        // over intact blocks; a frame was consumed just before such a
        // read, so the scan always makes progress.
        if (left < v3BlockFrameBytes) {
            if (Status got = take(frame.data(), left); !got.isOk())
                return got;
            if (opts.salvage)
                report.bytesSkipped += left;
        }
        return corrupt("unexpected end of file in " + filePath +
                       " (truncated?)");
    }
    if (Status got = take(frame.data(), size); !got.isOk())
        return got;
    frameData = frame.data();
    return Status::ok();
}

/** Move the next @p size stream bytes, pushed-back ones first, to @p out. */
Status
TraceV3Reader::take(unsigned char *out, std::size_t size)
{
    std::size_t have = 0;
    while (have < size && !pendback.empty()) {
        out[have++] = pendback.front();
        pendback.erase(pendback.begin());
    }
    if (have == size)
        return Status::ok();
    if (Status got = file.readExact(out + have, size - have); !got.isOk())
        return got;
    fileOffset += size - have;
    return Status::ok();
}

/**
 * Salvage recovery: scan forward for the next block or trailer magic
 * and leave the stream positioned so the next readFrame() returns it.
 * Hitting end-of-stream is not an error — the caller sees at_end.
 */
Status
TraceV3Reader::resync()
{
    unsigned char window[4];
    std::size_t filled = 0;
    for (;;) {
        while (filled < 4) {
            if (pendback.empty() && fileOffset == fileBytes) {
                report.bytesSkipped += filled; // A partial window.
                return Status::ok();
            }
            if (Status got = take(window + filled, 1); !got.isOk())
                return got;
            ++filled;
        }
        if (std::memcmp(window, blockMagic, 4) == 0 ||
            std::memcmp(window, trailerMagic, 4) == 0) {
            pendback.assign(window, window + 4);
            return Status::ok();
        }
        ++report.bytesSkipped;
        std::memmove(window, window + 1, 3);
        filled = 3;
    }
}

/**
 * One damaged block: fail the file in strict mode; in salvage mode
 * quarantine it (tallying @p declared_count as best-known loss),
 * resync, and tell the caller's loop to continue (outcome untouched).
 */
Status
TraceV3Reader::handleCorrupt(const Status &why,
                             std::uint64_t declared_count)
{
    if (!opts.salvage)
        return why;
    report.blocksQuarantined += 1;
    report.recordsLost += declared_count;
    return resync();
}

Status
TraceV3Reader::nextPayload(Payload *out, Block *outcome)
{
    if (done) {
        *outcome = Block::kEnd;
        return Status::ok();
    }
    for (;;) {
        bool at_end = false;
        if (Status got = readFrame(v3BlockFrameBytes, &at_end);
            !got.isOk()) {
            // A partial frame header is truncation damage.
            if (got.code() == StatusCode::kCorrupt) {
                if (Status handled = handleCorrupt(
                        corrupt("trace block " +
                                std::to_string(report.blocksDelivered) +
                                ": unexpected end of file in " +
                                filePath + " (truncated?)"),
                        0);
                    !handled.isOk()) {
                    return handled;
                }
                continue;
            }
            return got;
        }
        if (at_end) {
            // Stream ended with no trailer at all.
            if (!opts.salvage) {
                return corrupt("unexpected end of file in " + filePath +
                               " (missing trailer?)");
            }
            done = true;
            *outcome = Block::kEnd;
            return Status::ok();
        }

        if (std::memcmp(frameData, trailerMagic, 4) == 0) {
            // The 12 frame bytes are the trailer's first half; copy
            // them before the next readFrame() recycles the buffer.
            unsigned char trailer[v3TrailerBytes];
            std::memcpy(trailer, frameData, v3BlockFrameBytes);
            if (Status got = readFrame(v3TrailerBytes -
                                           v3BlockFrameBytes,
                                       &at_end);
                !got.isOk() || at_end) {
                const Status why =
                    corrupt("trace trailer: unexpected end of file in " +
                            filePath + " (truncated?)");
                if (!got.isOk() && got.code() != StatusCode::kCorrupt)
                    return got;
                if (Status handled = handleCorrupt(why, 0);
                    !handled.isOk()) {
                    return handled;
                }
                if (at_end) {
                    done = true;
                    *outcome = Block::kEnd;
                    return Status::ok();
                }
                continue;
            }
            std::memcpy(trailer + v3BlockFrameBytes, frameData,
                        v3TrailerBytes - v3BlockFrameBytes);
            if (unpackU32(trailer + 20) != crc32(trailer, 20)) {
                if (Status handled = handleCorrupt(
                        corrupt("trace trailer checksum mismatch in " +
                                filePath),
                        0);
                    !handled.isOk()) {
                    return handled;
                }
                continue;
            }
            declaredRecords = unpackU64(trailer + 4);
            const std::uint64_t declared_blocks = unpackU64(trailer + 12);
            if (!opts.salvage) {
                if (declaredRecords != report.recordsDelivered ||
                    declared_blocks != report.blocksDelivered) {
                    return corrupt(
                        "trace trailer mismatch in " + filePath +
                        " (declared " + std::to_string(declaredRecords) +
                        " records in " + std::to_string(declared_blocks) +
                        " blocks, decoded " +
                        std::to_string(report.recordsDelivered) +
                        " in " + std::to_string(report.blocksDelivered) +
                        ")");
                }
                if (!pendback.empty() || fileOffset != fileBytes) {
                    return corrupt("trailing bytes after trailer in "
                                   "trace file: " +
                                   filePath);
                }
            } else if (declaredRecords > report.recordsDelivered) {
                // The trailer is the exact record count; trust it over
                // the per-block running estimate.
                report.recordsLost =
                    declaredRecords - report.recordsDelivered;
            }
            done = true;
            *outcome = Block::kEnd;
            return Status::ok();
        }

        if (std::memcmp(frameData, blockMagic, 4) != 0) {
            if (Status handled = handleCorrupt(
                    corrupt("bad block magic at block " +
                            std::to_string(report.blocksDelivered) +
                            " in " + filePath),
                    0);
                !handled.isOk()) {
                return handled;
            }
            continue;
        }

        unsigned char frame_header[v3BlockFrameBytes];
        std::memcpy(frame_header, frameData, v3BlockFrameBytes);
        const std::uint32_t count = unpackU32(frame_header + 4);
        const std::uint32_t payload_bytes = unpackU32(frame_header + 8);
        const bool sane =
            count >= 1 && count <= blockRecords &&
            payload_bytes >= count * minEncodedRecordBytes &&
            payload_bytes <= static_cast<std::uint64_t>(count) *
                                 maxEncodedRecordBytes;
        if (!sane) {
            if (Status handled = handleCorrupt(
                    corrupt("corrupt block frame at block " +
                            std::to_string(report.blocksDelivered) +
                            " in " + filePath),
                    0);
                !handled.isOk()) {
                return handled;
            }
            continue;
        }

        if (Status got = readFrame(payload_bytes + 4, &at_end);
            !got.isOk() || at_end) {
            if (!got.isOk() && got.code() != StatusCode::kCorrupt)
                return got;
            if (Status handled = handleCorrupt(
                    corrupt("trace block " +
                            std::to_string(report.blocksDelivered) +
                            ": unexpected end of file in " + filePath +
                            " (truncated?)"),
                    count);
                !handled.isOk()) {
                return handled;
            }
            if (at_end) {
                done = true;
                *outcome = Block::kEnd;
                return Status::ok();
            }
            continue;
        }
        const unsigned char *payload = frameData;

        Crc32 crc;
        crc.update(frame_header, sizeof(frame_header));
        crc.update(payload, payload_bytes);
        const std::uint32_t stored = unpackU32(payload + payload_bytes);
        bool mismatch = stored != crc.value();
        std::string injected_detail;
        if (!mismatch && injectedBlockCorruption(filePath)) {
            mismatch = true;
            injected_detail = " (injected)";
        }
        if (mismatch) {
            char detail[64];
            std::snprintf(detail, sizeof(detail),
                          "stored %08x, computed %08x", stored,
                          crc.value());
            if (Status handled = handleCorrupt(
                    corrupt("block checksum mismatch at block " +
                            std::to_string(report.blocksDelivered) +
                            " in " + filePath + " (" + detail + ")" +
                            injected_detail),
                    count);
                !handled.isOk()) {
                return handled;
            }
            continue;
        }

        out->data = payload;
        out->bytes = payload_bytes;
        out->count = count;
        *outcome = Block::kDelivered;
        return Status::ok();
    }
}

Status
TraceV3Reader::readBlock(std::vector<TraceRecord> *out, std::size_t offset,
                         std::size_t *count, Block *outcome)
{
    panicIf(!opened, "block read on closed TraceV3Reader");
    panicIf(out == nullptr || count == nullptr,
            "readBlock needs an output vector and a count");
    panicIf(outcome == nullptr, "block read needs an outcome parameter");
    *count = 0;
    for (;;) {
        Payload payload;
        if (Status got = nextPayload(&payload, outcome);
            !got.isOk() || *outcome == Block::kEnd) {
            return got;
        }
        // Grow only: a reused buffer is decoded over in place, never
        // cleared or value-initialised again.
        if (out->size() < offset + payload.count)
            out->resize(offset + payload.count);
        if (!decodeBlockPayload(payload.data, payload.bytes,
                                payload.count, out->data() + offset)) {
            // A payload that fails to decode is one more damaged
            // block: strict mode fails the file, salvage mode moves on.
            if (Status handled = handleCorrupt(
                    corrupt("corrupt record encoding in block " +
                            std::to_string(report.blocksDelivered) +
                            " of " + filePath),
                    payload.count);
                !handled.isOk()) {
                return handled;
            }
            continue;
        }
        report.blocksDelivered += 1;
        report.recordsDelivered += payload.count;
        *count = payload.count;
        return Status::ok();
    }
}

void
TraceV3Reader::close()
{
    if (!opened)
        return;
    file.close();
    pendback.clear();
    frame.clear();
    opened = false;
}

// ---------------------------------------------------------------------------
// Whole-file convenience wrappers

Status
writeTraceV3(const std::string &path,
             const std::vector<TraceRecord> &records,
             std::uint32_t records_per_block)
{
    TraceV3Writer writer;
    if (Status opened = writer.open(path, records_per_block);
        !opened.isOk()) {
        return opened;
    }
    if (Status put = writer.append(TraceSpan(records)); !put.isOk())
        return put;
    return writer.finish();
}

Status
readTraceV3(const std::string &path, std::vector<TraceRecord> *out,
            bool salvage, BlockSalvageReport *report_out)
{
    panicIf(out == nullptr, "readTraceV3 needs an output vector");
    out->clear();
    TraceV3Reader reader;
    TraceV3Reader::Options options;
    options.salvage = salvage;
    if (Status opened = reader.open(path, options); !opened.isOk())
        return opened;
    keepTracesMapped();
    out->reserve(reader.recordsHint());
    std::size_t loaded = 0;
    for (;;) {
        TraceV3Reader::Block outcome = TraceV3Reader::Block::kEnd;
        std::size_t count = 0;
        const Status got = reader.readBlock(out, loaded, &count, &outcome);
        if (!got.isOk()) {
            out->resize(loaded);
            return got;
        }
        if (outcome == TraceV3Reader::Block::kEnd)
            break;
        loaded += count;
    }
    // Drops what a quarantined last block decoded past the intact ones.
    out->resize(loaded);
    if (report_out)
        *report_out = reader.salvageReport();
    reader.close();
    return Status::ok();
}

} // namespace vpsim
