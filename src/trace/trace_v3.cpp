#include "trace/trace_v3.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/crc32.hpp"
#include "common/logging.hpp"
#include "trace/trace_buffer.hpp"
#include "trace/varint.hpp"

namespace vpsim
{

namespace
{

constexpr char v3Magic[4] = {'V', 'P', 'T', 'R'};
constexpr char blockMagic[4] = {'V', 'P', 'B', '3'};
constexpr char trailerMagic[4] = {'V', 'P', 'E', '3'};

/**
 * Upper bound on one record's encoded size (4 deltas + result + 4).
 * The fourth delta is the reserved memAddr field: written 0 (one byte),
 * but files written before it was reserved carry any varint there.
 */
constexpr std::size_t maxEncodedRecordBytes = 5 * maxVarintBytes + 4;

/** Lower bound on one record's encoded size (5 one-byte varints + 4). */
constexpr std::size_t minEncodedRecordBytes = 5 + 4;

/** Cap on records-per-block so a corrupt header can't balloon memory. */
constexpr std::uint32_t maxRecordsPerBlock = 1u << 22;

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
 * Encode @p records as one block payload at @p out, which has room for
 * records.size() * maxEncodedRecordBytes bytes.
 *
 * @return The end of the payload.
 */
unsigned char *
encodeBlockPayload(unsigned char *out, TraceSpan records)
{
    SeqNum prev_seq = 0;
    Addr prev_pc = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const TraceRecord &r = records[i];
        if (i == 0) {
            out = putVarint(out, r.seq);
            out = putVarint(out, r.pc);
        } else {
            out = putSignedVarint(out, static_cast<std::int64_t>(
                                           r.seq - (prev_seq + 1)));
            out = putSignedVarint(
                out, static_cast<std::int64_t>(r.pc - prev_pc));
        }
        out = putSignedVarint(out, static_cast<std::int64_t>(
                                       r.nextPc - r.fallThrough()));
        *out++ = 0; // the reserved memAddr field
        out = putVarint(out, r.result);
        out[0] = static_cast<unsigned char>(static_cast<unsigned char>(r.op) |
                                            (r.taken ? 0x80u : 0x00u));
        out[1] = r.rd;
        out[2] = r.rs1;
        out[3] = r.rs2;
        out += 4;
        prev_seq = r.seq;
        prev_pc = r.pc;
    }
    return out;
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
    std::uint64_t reserved = 0; // memAddr: parsed and ignored
    std::uint64_t result = 0;
    if (!getVarint(p, end, &seq) || !getVarint(p, end, &pc) ||
        !getVarint(p, end, &next_pc) || !getVarint(p, end, &reserved) ||
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
    } else {
        r->seq += 1 + static_cast<std::uint64_t>(zigzagDecode(seq));
        r->pc += static_cast<std::uint64_t>(zigzagDecode(pc));
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
 * Where decodeBlockPayload puts its records: next() is the slot of the
 * next record, which the decoder fills field by field. InPlace decodes
 * over a reused buffer that already holds enough elements (the
 * streaming source's block); Append grows a vector whose capacity the
 * caller has reserved (the whole-file load).
 */
struct InPlace
{
    TraceRecord *slot;

    TraceRecord &next() { return *slot++; }
};

struct Append
{
    std::vector<TraceRecord> *out;

    TraceRecord &next() { return out->emplace_back(); }
};

/**
 * Decode one block payload of @p count >= 1 records (nextPayload's
 * frame check) into @p dest. All deltas reset at the block boundary, so
 * this needs nothing from neighbouring blocks. False on any malformed
 * encoding; what @p dest received is then garbage that must not be
 * delivered.
 *
 * The first record (absolute fields) and the tail, where a worst-case
 * record may no longer fit, go through the per-byte checked decoder.
 * In between, bounds are checked once per record, the running
 * seq/pc are locals, each record is written field by field
 * into its slot, and over-long varints and out-of-range opcodes only
 * raise a flag that is checked once for the whole block.
 */
template <typename Dest>
bool
decodeBlockPayload(const unsigned char *payload, std::size_t size,
                   std::uint32_t count, Dest dest)
{
    const unsigned char *p = payload;
    const unsigned char *const end = payload + size;
    TraceRecord *r = &dest.next();
    if (!decodeRecordChecked(p, end, true, r))
        return false;
    SeqNum seq = r->seq;
    Addr pc = r->pc;
    unsigned bad = 0;
    std::uint32_t i = 1;
    for (; i < count &&
           static_cast<std::size_t>(end - p) >= maxEncodedRecordBytes;
         ++i) {
        seq += 1 + static_cast<std::uint64_t>(
                       zigzagDecode(takeVarint(p, bad)));
        pc += static_cast<std::uint64_t>(zigzagDecode(takeVarint(p, bad)));
        const std::uint64_t next_pc = takeVarint(p, bad);
        (void)takeVarint(p, bad); // the reserved memAddr field
        const std::uint64_t result = takeVarint(p, bad);
        const unsigned char op_byte = p[0] & 0x7fu;
        bad |= op_byte >= static_cast<unsigned char>(OpCode::NumOpCodes);
        r = &dest.next();
        r->seq = seq;
        r->pc = pc;
        r->nextPc =
            pc + instBytes + static_cast<std::uint64_t>(zigzagDecode(next_pc));
        r->result = result;
        r->op = static_cast<OpCode>(op_byte);
        r->rd = p[1];
        r->rs1 = p[2];
        r->rs2 = p[3];
        r->taken = (p[0] & 0x80u) != 0;
        p += 4;
    }
    if (bad)
        return false;
    for (; i < count; ++i) {
        const TraceRecord prev = *r;
        r = &dest.next();
        *r = prev;
        if (!decodeRecordChecked(p, end, false, r))
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

/**
 * What a failed readFrame() of @p what in @p path reports: truncation
 * (kCorrupt) named after @p what, any other error as it is.
 */
Status
frameError(const Status &got, const std::string &what,
           const std::string &path)
{
    if (got.code() != StatusCode::kCorrupt)
        return got;
    return corrupt(what + ": unexpected end of file in " + path +
                   " (truncated?)");
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
    // Left uninitialised: a block's encoding writes only what it uses.
    scratch = std::make_unique_for_overwrite<unsigned char[]>(
        std::size_t{recordsPerBlock} * maxEncodedRecordBytes);

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
    const std::size_t payload_bytes = static_cast<std::size_t>(
        encodeBlockPayload(scratch.get(), block) - scratch.get());

    unsigned char frame_header[v3BlockFrameBytes];
    std::memcpy(frame_header, blockMagic, 4);
    packU32(frame_header + 4, static_cast<std::uint32_t>(count));
    packU32(frame_header + 8, static_cast<std::uint32_t>(payload_bytes));
    Crc32 crc;
    crc.update(frame_header, sizeof(frame_header));
    crc.update(scratch.get(), payload_bytes);
    unsigned char footer[4];
    packU32(footer, crc.value());

    if (Status put = file.writeAll(frame_header, sizeof(frame_header));
        !put.isOk()) {
        return Status::error(put.code(),
                             "trace block frame: " + put.message());
    }
    if (Status put = file.writeAll(scratch.get(), payload_bytes);
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
}

// ---------------------------------------------------------------------------
// TraceV3Reader

Status
TraceV3Reader::open(const std::string &path)
{
    panicIf(opened, "TraceV3Reader reopened while open: " + path);
    filePath = path;
    done = false;
    hint = 0;
    blocksDelivered = 0;
    recordsDelivered = 0;

    // Every failure leaves the reader closed, so it can open again.
    const Status got = openAndValidate(path);
    if (!got.isOk()) {
        file.close();
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

    if (Status got = readFrame(v3HeaderBytes); !got.isOk())
        return Status::error(got.code(),
                             "trace header: " + got.message());
    const unsigned char *h = frame.data();
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
 * Read the next @p size bytes of the file into the frame buffer. Fewer
 * than @p size bytes left is kCorrupt truncation.
 */
Status
TraceV3Reader::readFrame(std::size_t size)
{
    if (fileBytes - fileOffset < size)
        return corrupt("unexpected end of file in " + filePath +
                       " (truncated?)");
    if (frame.size() < size) {
        // Twice what is asked: the block payloads of one file differ by
        // far less than 2x, so after its first block a stream never
        // reallocates the frame buffer.
        if (frame.capacity() < size)
            frame.reserve(2 * size);
        frame.resize(size);
    }
    if (Status got = file.readExact(frame.data(), size); !got.isOk())
        return got;
    fileOffset += size;
    return Status::ok();
}

Status
TraceV3Reader::nextPayload(Payload *out, Block *outcome)
{
    if (done) {
        *outcome = Block::kEnd;
        return Status::ok();
    }
    if (fileOffset == fileBytes) {
        return corrupt("unexpected end of file in " + filePath +
                       " (missing trailer?)");
    }
    const std::string block = std::to_string(blocksDelivered);
    if (Status got = readFrame(v3BlockFrameBytes); !got.isOk())
        return frameError(got, "trace block " + block, filePath);
    if (std::memcmp(frame.data(), trailerMagic, 4) == 0)
        return readTrailer(outcome);
    if (std::memcmp(frame.data(), blockMagic, 4) != 0)
        return corrupt("bad block magic at block " + block + " in " +
                       filePath);

    unsigned char frame_header[v3BlockFrameBytes];
    std::memcpy(frame_header, frame.data(), v3BlockFrameBytes);
    const std::uint32_t count = unpackU32(frame_header + 4);
    const std::uint32_t payload_bytes = unpackU32(frame_header + 8);
    const bool sane =
        count >= 1 && count <= blockRecords &&
        payload_bytes >= count * minEncodedRecordBytes &&
        payload_bytes <=
            static_cast<std::uint64_t>(count) * maxEncodedRecordBytes;
    if (!sane)
        return corrupt("corrupt block frame at block " + block + " in " +
                       filePath);

    if (Status got = readFrame(payload_bytes + 4); !got.isOk())
        return frameError(got, "trace block " + block, filePath);
    const unsigned char *payload = frame.data();
    Crc32 crc;
    crc.update(frame_header, sizeof(frame_header));
    crc.update(payload, payload_bytes);
    const std::uint32_t stored = unpackU32(payload + payload_bytes);
    if (stored != crc.value()) {
        char detail[64];
        std::snprintf(detail, sizeof(detail), "stored %08x, computed %08x",
                      stored, crc.value());
        return corrupt("block checksum mismatch at block " + block +
                       " in " + filePath + " (" + detail + ")");
    }

    out->data = payload;
    out->bytes = payload_bytes;
    out->count = count;
    *outcome = Block::kDelivered;
    return Status::ok();
}

/**
 * The frame buffer holds the trailer's first v3BlockFrameBytes: read
 * the rest and check it against the blocks delivered and the file's end.
 */
Status
TraceV3Reader::readTrailer(Block *outcome)
{
    // Copy the first half before the next readFrame() recycles the
    // buffer.
    unsigned char trailer[v3TrailerBytes];
    std::memcpy(trailer, frame.data(), v3BlockFrameBytes);
    if (Status got = readFrame(v3TrailerBytes - v3BlockFrameBytes);
        !got.isOk()) {
        return frameError(got, "trace trailer", filePath);
    }
    std::memcpy(trailer + v3BlockFrameBytes, frame.data(),
                v3TrailerBytes - v3BlockFrameBytes);
    if (unpackU32(trailer + 20) != crc32(trailer, 20))
        return corrupt("trace trailer checksum mismatch in " + filePath);
    const std::uint64_t declared_records = unpackU64(trailer + 4);
    const std::uint64_t declared_blocks = unpackU64(trailer + 12);
    if (declared_records != recordsDelivered ||
        declared_blocks != blocksDelivered) {
        return corrupt("trace trailer mismatch in " + filePath +
                       " (declared " + std::to_string(declared_records) +
                       " records in " + std::to_string(declared_blocks) +
                       " blocks, decoded " +
                       std::to_string(recordsDelivered) + " in " +
                       std::to_string(blocksDelivered) + ")");
    }
    if (fileOffset != fileBytes)
        return corrupt("trailing bytes after trailer in trace file: " +
                       filePath);
    done = true;
    *outcome = Block::kEnd;
    return Status::ok();
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
    Payload payload;
    if (Status got = nextPayload(&payload, outcome);
        !got.isOk() || *outcome == Block::kEnd) {
        return got;
    }
    // Over a reused buffer that is long enough, the block is decoded in
    // place, never cleared or value-initialised again. Past the end it
    // is appended, so each new element is written once.
    const std::size_t need = offset + payload.count;
    bool decoded = false;
    if (out->size() >= need) {
        decoded = decodeBlockPayload(payload.data, payload.bytes,
                                     payload.count,
                                     InPlace{out->data() + offset});
    } else {
        out->resize(offset);
        if (out->capacity() < need)
            out->reserve(std::max(need, 2 * out->capacity()));
        decoded = decodeBlockPayload(payload.data, payload.bytes,
                                     payload.count, Append{out});
    }
    if (!decoded) {
        return corrupt("corrupt record encoding in block " +
                       std::to_string(blocksDelivered) + " of " +
                       filePath);
    }
    blocksDelivered += 1;
    recordsDelivered += payload.count;
    *count = payload.count;
    return Status::ok();
}

void
TraceV3Reader::close()
{
    if (!opened)
        return;
    file.close();
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
readTraceV3(const std::string &path, std::vector<TraceRecord> *out)
{
    panicIf(out == nullptr, "readTraceV3 needs an output vector");
    out->clear();
    TraceV3Reader reader;
    if (Status opened = reader.open(path); !opened.isOk())
        return opened;
    reserveWholeTrace(*out, reader.recordsHint());
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
    reader.close();
    return Status::ok();
}

} // namespace vpsim
