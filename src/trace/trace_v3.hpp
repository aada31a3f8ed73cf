/**
 * @file
 * Trace file format v3: block-framed, delta/varint-compressed records
 * with per-block CRC-32 containment.
 *
 * The project's only on-disk trace format. The retired v2 format
 * guarded a whole file with one trailing CRC-32, so a single flipped
 * bit in a 100M-instruction capture discarded hours of work and the
 * reader had to materialize every record to verify anything. v3
 * generalizes that footer to the block level:
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
 * Corruption containment: a reader in salvage mode quarantines the
 * damaged block (Status kCorrupt per block, not per file), scans
 * forward for the next block magic, and resumes — losing exactly the
 * quarantined blocks. Every salvage is tallied in a BlockSalvageReport
 * and noted in the process-global salvage registry so SimRunner can
 * fold the loss into --stats output and the signed run manifest.
 * Full layout and semantics: docs/TRACE_FORMAT.md.
 */

#ifndef VPSIM_TRACE_TRACE_V3_HPP
#define VPSIM_TRACE_TRACE_V3_HPP

#include <cstdint>
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
 * Default records per v3 block: ~1 MiB encoded, 65,536 x 48 B = 3 MiB
 * decoded.
 */
inline constexpr std::uint32_t defaultRecordsPerBlock = 65536;

/** Fixed sizes of the v3 framing structures, in bytes. */
inline constexpr std::size_t v3HeaderBytes = 16;
inline constexpr std::size_t v3BlockFrameBytes = 12;
inline constexpr std::size_t v3TrailerBytes = 24;

/** Running tally of what block salvage skipped in one file. */
struct BlockSalvageReport
{
    std::uint64_t blocksDelivered = 0;   ///< Blocks decoded intact.
    std::uint64_t blocksQuarantined = 0; ///< Blocks skipped as corrupt.
    std::uint64_t recordsDelivered = 0;  ///< Records decoded intact.
    std::uint64_t recordsLost = 0;       ///< Best-known records skipped.
    std::uint64_t bytesSkipped = 0;      ///< Raw bytes resync scanned over.

    bool clean() const { return blocksQuarantined == 0; }
};

/**
 * Process-global, thread-safe accumulator of per-file salvage damage.
 *
 * Readers running in salvage mode note every file that actually lost
 * blocks; SimRunner snapshots the totals into --stats output and the
 * signed run manifest so a sweep that silently dropped records cannot
 * masquerade as a clean one.
 */
class SalvageRegistry
{
  public:
    struct Totals
    {
        std::uint64_t files = 0;
        std::uint64_t blocksQuarantined = 0;
        std::uint64_t recordsLost = 0;
        std::uint64_t bytesSkipped = 0;

        Totals &operator+=(const Totals &other)
        {
            files += other.files;
            blocksQuarantined += other.blocksQuarantined;
            recordsLost += other.recordsLost;
            bytesSkipped += other.bytesSkipped;
            return *this;
        }
    };

    /** Fold one damaged file's report in (no-op when report.clean()). */
    void note(const std::string &path, const BlockSalvageReport &report);

    /**
     * Fold another process's totals in. The registry is process-global,
     * so a worker process's salvage damage (--fleet-workers) would
     * otherwise vanish with the worker: workers serialize the totals
     * accrued since their fork into their shard result files
     * (src/sim/result_store.hpp) and the parent merges them here,
     * making --stats and manifests report the same salvaged_blocks /
     * salvaged_records_lost as the thread pool.
     */
    void addTotals(const Totals &other);

    /** Consistent snapshot of the totals so far. */
    Totals totals() const;

    /** Clear all tallies (tests and per-run isolation). */
    void reset();

  private:
    mutable Mutex mutex;
    Totals sums GUARDED_BY(mutex);
};

/** The process-global registry fed by salvage-mode readers. */
SalvageRegistry &salvageRegistry();

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
 * Each append() consults the fault injector's "capture" counter, so
 * ENOSPC-mid-capture (`capture:N:enospc-capture`) is deterministically
 * testable. After any error the writer is dead: close() discards state
 * and the caller removes the temporary file.
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
    std::vector<unsigned char> scratch;
    std::uint32_t recordsPerBlock = defaultRecordsPerBlock;
    std::uint64_t totalRecords = 0;
    std::uint64_t totalBlocks = 0;
};

/**
 * Sequential block-at-a-time v3 reader with strict and salvage modes.
 *
 * Strict mode (the default, used for trace-cache entries) fails the
 * whole file on the first damaged block — the cache then quarantines
 * and recaptures, keeping figure outputs bit-exact.
 * Salvage mode (--salvage-blocks) quarantines the damaged block,
 * resyncs on the next block magic, and keeps going; the damage tally is
 * available via salvageReport() and is noted in salvageRegistry() when
 * the file closes with losses.
 *
 * Every read goes through one io::File and a reusable frame buffer, so
 * memory stays bounded for arbitrarily large traces and every read is
 * fault-counted (`open:`, `read:` specs). Block CRC checks consult the
 * fault injector's "block" counter (`block:N:block-crc` forces a
 * mismatch). Every block is decoded straight into caller-owned storage
 * (readBlock()): the whole-file load decodes each block after the last
 * into one vector reserved up front, the streaming source decodes
 * every block over the same reused block vector.
 */
class TraceV3Reader
{
  public:
    struct Options
    {
        bool salvage = false; ///< Skip-resync corrupt blocks.
    };

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
    [[nodiscard]] Status open(const std::string &path,
                              const Options &options);

    /**
     * Decode the next block into (*out)[offset, offset + *count).
     * @p out is resized only when it is shorter than that, so a reused
     * buffer is decoded over in place, not cleared or re-initialised.
     * Elements before @p offset are untouched; those from
     * offset + *count on are unspecified (a quarantined block may
     * have been decoded there first). A block that fails to decode is
     * never reported as delivered.
     *
     * @return ok with *outcome = kDelivered (*count >= 1) or kEnd
     *         (*count = 0), kCorrupt on damage in strict mode (or
     *         unsalvageable damage in salvage mode), kIo on read
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

    /** Damage tally so far (all-zero in strict mode). */
    const BlockSalvageReport &salvageReport() const { return report; }

    /** Block size the file was written with (valid after open()). */
    std::uint32_t recordsPerBlock() const { return blockRecords; }

    /** Total records the trailer declared (valid after kEnd). */
    std::uint64_t trailerRecords() const { return declaredRecords; }

    bool isOpen() const { return opened; }

    /** Close, noting salvage losses in the global registry. */
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
    [[nodiscard]] Status readFrame(std::size_t size, bool *at_end);
    [[nodiscard]] Status take(unsigned char *out, std::size_t size);
    [[nodiscard]] Status resync();
    [[nodiscard]] Status handleCorrupt(const Status &why,
                                       std::uint64_t declared_count);

    Options opts;
    std::string filePath;
    bool opened = false;
    bool done = false;

    io::File file;
    std::uint64_t fileBytes = 0;  ///< The file's size at open().
    std::uint64_t fileOffset = 0; ///< Bytes taken from the file so far.
    std::vector<unsigned char> frame;    ///< The current frame's bytes.
    std::vector<unsigned char> pendback; ///< Bytes resync() un-read.
    const unsigned char *frameData = nullptr;

    std::uint32_t blockRecords = 0;
    std::uint64_t declaredRecords = 0;
    std::uint64_t hint = 0;
    BlockSalvageReport report;
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
 * Read a whole v3 file into @p out.
 *
 * @param salvage When true, damaged blocks are quarantined and skipped
 *        (the per-file tally lands in @p reportOut when non-null and in
 *        the global registry); when false the first damaged block fails
 *        the file with kCorrupt.
 */
[[nodiscard]] Status readTraceV3(const std::string &path,
                                 std::vector<TraceRecord> *out,
                                 bool salvage = false,
                                 BlockSalvageReport *report_out = nullptr);

} // namespace vpsim

#endif // VPSIM_TRACE_TRACE_V3_HPP
