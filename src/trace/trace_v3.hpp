/**
 * @file
 * Trace file format v3: block-framed, delta/varint-compressed records
 * with a CRC-32 per block.
 *
 * The project's only on-disk trace format. The retired v2 format
 * guarded a whole file with one trailing CRC-32, so the reader had to
 * materialize every record to verify anything. v3 moves that footer to
 * the block level, so a reader verifies and delivers one block at a
 * time:
 *
 *   header  "VPTR" ver=3 reserved[3] recordsPerBlock:u32 headerCrc:u32
 *   block*  "VPB3" recordCount:u32 payloadBytes:u32 payload frameCrc:u32
 *   trailer "VPE3" totalRecords:u64 blockCount:u64 trailerCrc:u32
 *
 * Every multi-byte integer is little-endian. Each block's payload is
 * delta/varint-encoded (trace/varint.hpp) with all deltas reset at the
 * block boundary, so blocks decode independently; the frame CRC covers
 * the block's own 12-byte frame header plus its payload. The trailer is
 * append-only bookkeeping (no header back-patching), which is what
 * keeps a streaming capture a pure sequence of appends — a capture
 * interrupted mid-stream leaves a prefix of intact blocks, nothing
 * half-updated.
 *
 * Reads are strict: the first damaged header, block, payload or
 * trailer fails the whole read with a kCorrupt Status naming the file
 * and the block.
 *
 * Full layout and semantics: docs/TRACE_FORMAT.md.
 */

#ifndef VPSIM_TRACE_TRACE_V3_HPP
#define VPSIM_TRACE_TRACE_V3_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/io.hpp"
#include "common/status.hpp"
#include "trace/span.hpp"

namespace vpsim
{

/** Version byte written by the v3 writer. */
inline constexpr std::uint32_t traceFormatVersionV3 = 3;

/**
 * Default records per v3 block: ~1 MiB encoded, 65,536 x 32 B = 2 MiB
 * decoded.
 */
inline constexpr std::uint32_t defaultRecordsPerBlock = 65536;

/** Fixed sizes of the v3 framing structures, in bytes. */
inline constexpr std::size_t v3HeaderBytes = 16;
inline constexpr std::size_t v3BlockFrameBytes = 12;
inline constexpr std::size_t v3TrailerBytes = 24;

/**
 * Streaming, append-only v3 trace writer.
 *
 * append() encodes every full block straight from the caller's span
 * and buffers only the partial tail (less than one block); finish()
 * flushes that tail block, the trailer, and fsyncs, so a
 * successful finish() means the bytes survive a crash. The writer never
 * seeks — publishing atomically is the caller's job (write to a
 * temporary name, then io::renameFile; see TraceCacheStore).
 *
 * Every block goes out through io::File::writeAll, so the fault
 * injector's `write:` clauses reach a capture at any block. After any
 * error the writer is dead: close() discards state and the caller
 * removes the temporary file.
 */
class TraceV3Writer
{
  public:
    ~TraceV3Writer() { close(); }

    /** Open @p path (truncating) and write the v3 header. */
    [[nodiscard]] Status open(const std::string &path,
                              std::uint32_t records_per_block =
                                  defaultRecordsPerBlock);

    /** Write every block @p records completes; buffer the rest. */
    [[nodiscard]] Status append(TraceSpan records);

    /** Flush the tail block + trailer, then fsync. Closes the file. */
    [[nodiscard]] Status finish();

    /** Records accepted by append() so far. */
    std::uint64_t recordsWritten() const { return totalRecords; }

    bool isOpen() const { return file.isOpen(); }

    /** Abandon the file without a trailer (idempotent). */
    void close();

  private:
    [[nodiscard]] Status flushBlock(TraceSpan block);

    io::File file;
    std::vector<TraceRecord> pending; ///< The partial tail block.
    /** Room for one block of recordsPerBlock worst-case records. */
    std::unique_ptr<unsigned char[]> scratch;
    std::uint32_t recordsPerBlock = defaultRecordsPerBlock;
    std::uint64_t totalRecords = 0;
    std::uint64_t totalBlocks = 0;
};

/**
 * Sequential block-at-a-time v3 reader. The first damaged block fails
 * the read: a trace-cache entry is then quarantined and recaptured, and
 * a stream ends with a sticky error.
 *
 * Every read goes through one io::File and a reusable frame buffer, so
 * memory stays bounded for arbitrarily large traces and every read is
 * fault-counted (`open:`, `read:` specs). Every block is decoded
 * straight into caller-owned storage (readBlock()): the whole-file load
 * appends each block to one vector reserved up front
 * (reserveWholeTrace), the streaming source decodes each block over
 * one of its two reused block vectors.
 */
class TraceV3Reader
{
  public:
    /** Outcome of one readBlock() call. */
    enum class Block
    {
        kDelivered, ///< The next block was decoded into @p out.
        kEnd,       ///< Clean end of trace (trailer validated).
    };

    ~TraceV3Reader() { close(); }

    /**
     * Open @p path, validate the v3 header and read the trailer for
     * recordsHint(). A read error on either is kIo naming the path.
     */
    [[nodiscard]] Status open(const std::string &path);

    /**
     * Decode the next block into (*out)[offset, offset + *count).
     * When @p out already holds that range, the block is decoded over
     * it in place, so a reused buffer is not cleared or re-initialised;
     * otherwise @p out is cut to @p offset and the block appended, each
     * record written once (into capacity the caller reserved, or grown
     * geometrically). Elements before @p offset are untouched; after a
     * kCorrupt those from @p offset on are unspecified (a block that
     * fails to decode was decoded there first, and is never reported
     * as delivered).
     *
     * @return ok with *outcome = kDelivered (*count >= 1) or kEnd
     *         (*count = 0), kCorrupt on the first damage, kIo on read
     *         errors. Every message names the path.
     */
    [[nodiscard]] Status readBlock(std::vector<TraceRecord> *out,
                                   std::size_t offset, std::size_t *count,
                                   Block *outcome);

    /**
     * Records a whole read is expected to deliver, for reserving its
     * destination once (valid after open()): the trailer's count when
     * its magic and CRC are intact, capped at fileBytes / 9 since no
     * record encodes in fewer than 9 bytes; 0 when there is no intact
     * trailer. Only a hint: the trailer is still checked against the
     * blocks.
     */
    std::uint64_t recordsHint() const { return hint; }

    /**
     * The most records a block of this file may hold, from its header
     * (valid after open()): enough to size a buffer every block
     * decodes into without growing it.
     */
    std::uint32_t recordsPerBlock() const { return blockRecords; }

    bool isOpen() const { return opened; }

    /** Close the file (idempotent). */
    void close();

  private:
    /** A block whose framing and CRC checked out, not yet decoded. */
    struct Payload
    {
        const unsigned char *data = nullptr;
        std::uint32_t bytes = 0;
        std::uint32_t count = 0;
    };

    /** open() minus the cleanup: on failure the file may still be open. */
    [[nodiscard]] Status openAndValidate(const std::string &path);
    [[nodiscard]] Status nextPayload(Payload *out, Block *outcome);
    [[nodiscard]] Status readTrailer(Block *outcome);
    [[nodiscard]] Status readFrame(std::size_t size);

    std::string filePath;
    bool opened = false;
    bool done = false;

    io::File file;
    std::uint64_t fileBytes = 0;  ///< The file's size at open().
    std::uint64_t fileOffset = 0; ///< Bytes taken from the file so far.
    /** The current frame's bytes, then readFrame's decoder slack. */
    std::vector<unsigned char> frame;

    std::uint32_t blockRecords = 0;
    std::uint64_t hint = 0;
    std::uint64_t blocksDelivered = 0;  ///< Checked against the trailer.
    std::uint64_t recordsDelivered = 0; ///< Checked against the trailer.
};

/**
 * Write @p records to @p path as one complete v3 file.
 *
 * Convenience wrapper over TraceV3Writer for whole-in-memory traces
 * (tests, tools, the perf harness).
 */
[[nodiscard]] Status writeTraceV3(const std::string &path,
                                  const std::vector<TraceRecord> &records,
                                  std::uint32_t records_per_block =
                                      defaultRecordsPerBlock);

/**
 * Read a whole v3 file into @p out. The first damaged block fails the
 * read with kCorrupt; @p out then holds the blocks before it.
 */
[[nodiscard]] Status readTraceV3(const std::string &path,
                                 std::vector<TraceRecord> *out);

} // namespace vpsim

#endif // VPSIM_TRACE_TRACE_V3_HPP
