/**
 * @file
 * File I/O layer with deterministic fault injection.
 *
 * Every byte the trace pipeline moves to or from disk goes through
 * io::File, which consults a process-global FaultInjector before each
 * operation. In production the injector is inactive and the layer is a
 * thin RAII wrapper over std::FILE; under `--fault-inject` it fails the
 * Nth read/write/open with a chosen errno, tears a write short, raises
 * a signal, or throws — so every failure path of the trace cache and
 * the experiment runtime is exercisable in deterministic tests instead
 * of waiting for a full disk at minute forty of a sweep.
 *
 * Error messages carry strerror(errno) detail and a StatusCode from the
 * taxonomy in status.hpp (kIo for transient failures worth retrying,
 * kCorrupt for short files) so callers can branch on failure class.
 */

#ifndef VPSIM_COMMON_IO_HPP
#define VPSIM_COMMON_IO_HPP

#include <atomic>
#include <cstdio>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/thread_annotations.hpp"

namespace vpsim
{
namespace io
{

/** What an injected fault does to the operation it fires on. */
enum class FaultKind
{
    None,   ///< No fault; operation proceeds normally.
    Eio,    ///< Fail with EIO ("Input/output error").
    Enospc, ///< Fail with ENOSPC ("No space left on device").
    Torn,   ///< Write only a prefix of the bytes, then report success.
    Sigint, ///< raise(SIGINT) — simulates Ctrl-C at this exact point.
    Throw,  ///< Throw std::runtime_error — simulates a crashing job.
    MmapFail,      ///< mmap() itself fails; callers must fall back.
    BlockCrc,      ///< A v3 block CRC check sees a mismatch (bit rot).
    EnospcCapture, ///< ENOSPC mid-capture on a streaming trace writer.
    Kill9,         ///< raise(SIGKILL) — an unannounced process death.
    Hang,          ///< Stop making progress (worker processes: stop
                   ///< heartbeating and sleep until killed).
};

/**
 * Deterministic, seeded fault injector.
 *
 * Configured from a spec string of comma-separated clauses:
 *
 *   <op>:<n>:<kind>    fire <kind> on the n-th (1-based) <op>
 *   seed:<n>           seed the RNG used for torn-write cut points
 *
 * where <op> is one of open, read, write, flush, rename, remove, job,
 * mmap, block, capture, worker and <kind> is eio, enospc, torn, sigint,
 * throw, mmap-fail, block-crc, enospc-capture, kill9, hang. Example:
 *
 *   --fault-inject write:3:torn,block:2:block-crc,capture:4:enospc-capture
 *
 * The mmap op is counted once per MappedFile::map(); block once per v3
 * block-CRC validation; capture once per streaming-capture append; the
 * worker op once per worker-process launch under --fleet-workers (the
 * parent draws the kind and the forked worker applies kill9, hang or
 * enospc after its first cell, see src/sim/process_executor.cpp; the
 * worker itself disarms the injector). kill9 on any other op raises
 * SIGKILL at that operation; hang is only meaningful for workers.
 *
 * Operation counters are global to the process and thread-safe, so the
 * n-th write is the n-th write the whole run performs, wherever it
 * comes from. Each clause fires exactly once.
 */
class FaultInjector
{
  public:
    /** Parse @p spec (empty deactivates). fatal() on malformed spec. */
    void configure(const std::string &spec);

    /** True when any clause is armed (fired clauses stay configured). */
    bool active() const
    {
        return isActive.load(std::memory_order_relaxed);
    }

    /**
     * Record one occurrence of @p op and return the fault to apply, if
     * a clause matches this occurrence. Inactive injectors return None
     * without taking the lock.
     */
    FaultKind next(const char *op);

    /** Seeded cut point in [0, size) for a torn write of @p size bytes. */
    std::uint64_t tornCut(std::uint64_t size);

  private:
    struct Clause
    {
        std::string op;
        std::uint64_t index = 0;
        FaultKind kind = FaultKind::None;
        bool fired = false;
    };

    mutable Mutex mutex;
    std::vector<Clause> clauses GUARDED_BY(mutex);
    std::map<std::string, std::uint64_t> counts GUARDED_BY(mutex);
    Rng rng GUARDED_BY(mutex);
    /**
     * Atomic so the per-operation fast path in next() can skip the
     * lock: a plain bool there was a data race against configure()
     * (benign only by accident of timing, and exactly what
     * -Werror=thread-safety exists to reject).
     */
    std::atomic<bool> isActive{false};
};

/** The process-global injector consulted by every io::File operation. */
FaultInjector &faultInjector();

/** Shorthand: configure the global injector (fatal on bad spec). */
void configureFaultInjection(const std::string &spec);

/**
 * RAII file handle; all operations are full-or-error and routed
 * through the global FaultInjector.
 */
class File
{
  public:
    File() = default;
    ~File() { close(); }

    File(const File &) = delete;
    File &operator=(const File &) = delete;

    /** Open @p file_path for binary reading. */
    [[nodiscard]] Status openForRead(const std::string &file_path);

    /** Open (create/truncate) @p file_path for binary writing. */
    [[nodiscard]] Status openForWrite(const std::string &file_path);

    bool isOpen() const { return file != nullptr; }

    const std::string &path() const { return filePath; }

    /**
     * Read exactly @p size bytes into @p buffer.
     *
     * @return kIo on a read error, kCorrupt("unexpected end of file")
     *         when the file ends early — short files are data
     *         corruption from the caller's point of view.
     */
    [[nodiscard]] Status readExact(void *buffer, std::size_t size);

    /** Write all @p size bytes of @p buffer (kIo on failure). */
    [[nodiscard]] Status writeAll(const void *buffer, std::size_t size);

    /** Flush buffered writes to the OS (kIo on failure). */
    [[nodiscard]] Status flush();

    /**
     * Flush and fsync(2) so the bytes survive a crash or power loss.
     * Routed through the "flush" fault counter like flush(); a capture
     * that skips this before its atomic rename can publish a file whose
     * tail never reached the disk.
     */
    [[nodiscard]] Status sync();

    /** True when the read position is at end of file. */
    bool atEof();

    /** Close the handle (idempotent; errors ignored). */
    void close();

  private:
    std::FILE *file = nullptr;
    std::string filePath;
};

/**
 * Read-only memory mapping of a whole file.
 *
 * The mapping is the bulk-read counterpart of File::readExact: callers
 * that validate and decode a complete file (the trace reader) map it
 * once and parse in place instead of issuing one buffered read per
 * record. map() consults the global FaultInjector's "open" counter like
 * File::openForRead, then the "mmap" counter (for mmap-fail clauses),
 * then records exactly one "read" occurrence — the bulk read of the
 * whole file — and honors read-class kinds on it, so `read:` specs fire
 * on the mmap path too instead of silently skipping it. The whole-file
 * v3 reader uses the mapping under injection directly.
 *
 * Any map() failure (open error, injected fault, empty or unmappable
 * file) is reported as a Status and leaves the object unmapped; callers
 * are expected to fall back to File rather than treat it as fatal.
 */
class MappedFile
{
  public:
    MappedFile() = default;
    ~MappedFile() { unmap(); }

    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    /** Map @p file_path read-only in its entirety (kIo on failure). */
    [[nodiscard]] Status map(const std::string &file_path);

    bool isMapped() const { return base != nullptr; }

    /** First byte of the mapping (nullptr when not mapped). */
    const unsigned char *data() const
    {
        return static_cast<const unsigned char *>(base);
    }

    /** File size in bytes (0 when not mapped). */
    std::uint64_t size() const { return length; }

    const std::string &path() const { return filePath; }

    /** Release the mapping (idempotent). */
    void unmap();

  private:
    void *base = nullptr;
    std::uint64_t length = 0;
    std::string filePath;
};

/** std::remove with a Status and strerror detail. */
[[nodiscard]] Status removeFile(const std::string &path);

/** std::rename with a Status and strerror detail (injectable). */
[[nodiscard]] Status renameFile(const std::string &from,
                                const std::string &to);

} // namespace io
} // namespace vpsim

#endif // VPSIM_COMMON_IO_HPP
