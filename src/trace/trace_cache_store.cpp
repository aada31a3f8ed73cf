#include "trace/trace_cache_store.hpp"

#include <unistd.h>

#include <filesystem>
#include <system_error>
#include <thread>

#include "common/io.hpp"
#include "common/logging.hpp"
#include "trace/trace_v3.hpp"

namespace vpsim
{

namespace
{

/** Bounded retry for transient (kIo) failures: attempts and backoff. */
constexpr int maxIoAttempts = 3;
constexpr std::chrono::milliseconds ioBackoffStep{2};

/** True when @p filename looks like a store temporary (`*.tmp.<pid>`). */
bool
isTemporaryName(const std::string &filename)
{
    return filename.find(".tmp.") != std::string::npos;
}

/** True when @p filename is quarantined corruption evidence. */
bool
isQuarantineName(const std::string &filename)
{
    return filename.rfind(".corrupt-", 0) == 0;
}

void
backoff(int attempt)
{
    // Linear backoff is plenty: the goal is to ride out transient
    // contention, not to implement a distributed system.
    std::this_thread::sleep_for(ioBackoffStep * attempt);
}

/**
 * Read the v3 entry at @p path, retrying transient (kIo) failures with
 * backoff and a "retrying <what>: ..." warning before each retry.
 */
Status
readRetrying(const std::string &path, std::vector<TraceRecord> *out,
             bool salvage, const char *what)
{
    Status read = Status::ok();
    for (int attempt = 1; attempt <= maxIoAttempts; ++attempt) {
        read = readTraceV3(path, out, salvage);
        if (read.code() != StatusCode::kIo)
            break;
        if (attempt < maxIoAttempts) {
            warn(std::string("retrying ") + what + ": " + read.message());
            backoff(attempt);
        }
    }
    return read;
}

} // namespace

TraceCacheStore::TraceCacheStore(std::string cache_dir,
                                 std::chrono::seconds tmp_reap_age,
                                 std::chrono::seconds quarantine_gc_age)
    : dir(std::move(cache_dir))
{
    fatalIf(dir.empty(), "trace cache directory must not be empty");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        creationStatus = Status::error(
            StatusCode::kIo, "cannot create trace cache directory " +
                                 dir + ": " + ec.message());
        return;
    }

    reapOrphanedTemporaries(tmp_reap_age);
    if (quarantine_gc_age > std::chrono::seconds::zero())
        gcQuarantinedEntries(quarantine_gc_age);

    // Probe writability now, through the injectable io layer, so an
    // unwritable or full cache directory degrades the whole run to
    // uncached capture up front instead of failing every store.
    const std::string probe =
        dir + "/.probe.tmp." + std::to_string(::getpid());
    io::File file;
    Status probed = file.openForWrite(probe);
    if (probed.isOk())
        probed = file.writeAll("vpsim", 5);
    file.close();
    std::filesystem::remove(probe, ec);
    if (!probed.isOk()) {
        creationStatus = Status::error(
            probed.code(), "trace cache directory " + dir +
                               " is not writable: " + probed.message());
    }
}

void
TraceCacheStore::reapOrphanedTemporaries(std::chrono::seconds tmp_reap_age)
{
    // A temporary older than the threshold belongs to a process that
    // died mid-store (a live writer renames within seconds); left
    // alone they accumulate forever. Errors are ignored: reaping is
    // best-effort hygiene, and a concurrent reaper may win the race.
    std::error_code ec;
    const auto now = std::filesystem::file_time_type::clock::now();
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (ec)
            break;
        if (!entry.is_regular_file(ec))
            continue;
        const std::string name = entry.path().filename().string();
        if (!isTemporaryName(name))
            continue;
        const auto mtime = entry.last_write_time(ec);
        if (ec) {
            ec.clear();
            continue;
        }
        if (now - mtime < tmp_reap_age)
            continue;
        if (std::filesystem::remove(entry.path(), ec) && !ec) {
            ++reapedCount;
            warn("reaped orphaned trace cache temporary " +
                 entry.path().string());
        }
        ec.clear();
    }
}

void
TraceCacheStore::gcQuarantinedEntries(std::chrono::seconds quarantine_gc_age)
{
    // Quarantined entries exist for post-mortem, and a post-mortem
    // nobody ran within the retention window is never going to happen.
    // Best-effort like the temporary reap: errors skip the file, and a
    // concurrent GC winning the remove race is fine.
    std::error_code ec;
    const auto now = std::filesystem::file_time_type::clock::now();
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (ec)
            break;
        if (!entry.is_regular_file(ec))
            continue;
        const std::string name = entry.path().filename().string();
        if (!isQuarantineName(name))
            continue;
        const auto mtime = entry.last_write_time(ec);
        if (ec) {
            ec.clear();
            continue;
        }
        if (now - mtime < quarantine_gc_age)
            continue;
        if (std::filesystem::remove(entry.path(), ec) && !ec) {
            ++gcCount;
            warn("garbage-collected expired quarantine file " +
                 entry.path().string());
        }
        ec.clear();
    }
}

Status
TraceCacheStore::lastError() const
{
    MutexLock lock(statsMutex);
    return lastErrorStatus;
}

void
TraceCacheStore::noteError(const Status &error) const
{
    MutexLock lock(statsMutex);
    lastErrorStatus = error;
}

std::string
TraceCacheStore::pathFor(const TraceCacheKey &key) const
{
    // Workload names are registry identifiers ([a-z0-9]+), so embedding
    // them in the file name is safe and keeps entries human-readable.
    return dir + "/" + key.workload + "-i" + std::to_string(key.insts) +
           "-k" + std::to_string(key.skip) + "-s" +
           std::to_string(key.scale) + "-d" + std::to_string(key.seed) +
           "-v" + std::to_string(key.formatVersion) + ".vptrace";
}

std::string
TraceCacheStore::quarantinePathFor(const TraceCacheKey &key) const
{
    const std::filesystem::path entry(pathFor(key));
    return (entry.parent_path() /
            (".corrupt-" + entry.filename().string()))
        .string();
}

bool
TraceCacheStore::tryLoad(const TraceCacheKey &key,
                         std::vector<TraceRecord> *out,
                         Status *error) const
{
    panicIf(out == nullptr || error == nullptr,
            "tryLoad needs output parameters");
    *error = Status::ok();
    const std::string path = pathFor(key);
    if (!std::filesystem::exists(path)) {
        ++missCount;
        return false;
    }

    const Status read =
        readRetrying(path, out, salvageBlocks, "trace cache load");
    if (read.isOk()) {
        ++hitCount;
        return true;
    }

    if (read.code() == StatusCode::kCorrupt) {
        // Keep the evidence: move the bad entry aside under a name the
        // next lookup ignores, so post-mortem can inspect what rotted
        // while the sweep recaptures and carries on.
        const std::string quarantine = quarantinePathFor(key);
        std::error_code ec;
        std::filesystem::rename(path, quarantine, ec);
        if (ec)
            std::filesystem::remove(path, ec);
        *error = Status::error(
            StatusCode::kCorrupt,
            "corrupt trace cache entry quarantined to " + quarantine +
                ": " + read.message());
    } else {
        *error = Status::error(read.code(),
                               "unusable trace cache entry: " +
                                   read.message());
    }
    noteError(*error);
    ++missCount;
    return false;
}

Status
TraceCacheStore::readBack(const TraceCacheKey &key,
                          std::vector<TraceRecord> *out) const
{
    return readRetrying(pathFor(key), out, false, "trace cache read-back");
}

Status
TraceCacheStore::store(const TraceCacheKey &key,
                       const std::vector<TraceRecord> &records) const
{
    return storeStreaming(
        key,
        [&records](const std::function<Status(
                       const std::vector<TraceRecord> &)> &append) {
            return append(records);
        });
}

Status
TraceCacheStore::storeStreaming(
    const TraceCacheKey &key,
    const std::function<Status(
        const std::function<Status(const std::vector<TraceRecord> &)>
            &)> &produce) const
{
    const std::string path = pathFor(key);
    // Unique temporary per process: concurrent bench processes sharing
    // the cache dir race benignly (last rename wins, both files valid).
    const std::string temp =
        path + ".tmp." + std::to_string(::getpid());

    // The v3 writer fsyncs in finish(), so the rename below publishes
    // a fully durable entry even if the machine dies right after — and
    // an ENOSPC mid-write fails here, on the temporary, never the
    // published name.
    Status result = Status::ok();
    for (int attempt = 1; attempt <= maxIoAttempts; ++attempt) {
        TraceV3Writer writer;
        result = writer.open(temp, defaultRecordsPerBlock);
        if (result.isOk()) {
            // Re-run the producer from scratch each attempt: captures
            // are deterministic, so replaying is always safe, whereas
            // resuming a half-written temporary never is.
            result = produce(
                [&writer](const std::vector<TraceRecord> &chunk) {
                    return writer.append(chunk);
                });
        }
        if (result.isOk())
            result = writer.finish();
        else
            writer.close();
        if (result.isOk()) {
            result = io::renameFile(temp, path);
            if (result.isOk())
                return result;
            result = Status::error(result.code(),
                                   "cannot publish trace cache entry: " +
                                       result.message());
        }
        // Best-effort cleanup of our own temporary; the reaper catches
        // anything a failed remove leaves behind.
        (void)io::removeFile(temp);
        if (result.code() != StatusCode::kIo)
            break;
        if (attempt < maxIoAttempts)
            backoff(attempt);
    }
    noteError(result);
    return result;
}

} // namespace vpsim
