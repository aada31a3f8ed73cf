#include "trace/trace_cache_store.hpp"

#include <unistd.h>

#include <chrono>
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

/** Orphaned `*.tmp.<pid>` files younger than this are left alone: a
 *  live writer renames within seconds. */
constexpr std::chrono::hours tmpReapAge{1};

/** Quarantined `.corrupt-*` files younger than this are kept for
 *  post-mortem. */
constexpr std::chrono::hours quarantineGcAge{7 * 24};

void
backoff(int attempt)
{
    // Linear backoff is plenty: the goal is to ride out transient
    // contention, not to implement a distributed system.
    std::this_thread::sleep_for(ioBackoffStep * attempt);
}

} // namespace

TraceCacheStore::TraceCacheStore(std::string cache_dir)
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

    removeExpired();

    // Probe writability now, through the injectable io layer, so an
    // unwritable or full directory is reported up front instead of
    // failing every store.
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
TraceCacheStore::removeExpired()
{
    // Temporaries older than tmpReapAge belong to processes that died
    // mid-store; quarantined entries nobody examined within
    // quarantineGcAge never will be. Left alone, both accumulate
    // forever. Entries themselves are never touched, however old.
    // Errors skip the file: this is best-effort hygiene, and a
    // concurrent store may win the remove race.
    std::error_code ec;
    const auto now = std::filesystem::file_time_type::clock::now();
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (ec)
            break;
        if (!entry.is_regular_file(ec))
            continue;
        const std::string name = entry.path().filename().string();
        const bool temporary = name.find(".tmp.") != std::string::npos;
        const bool quarantined = name.rfind(".corrupt-", 0) == 0;
        if (!temporary && !quarantined)
            continue;
        const auto mtime = entry.last_write_time(ec);
        if (ec) {
            ec.clear();
            continue;
        }
        const auto age = now - mtime;
        if (temporary ? age < tmpReapAge : age < quarantineGcAge)
            continue;
        if (std::filesystem::remove(entry.path(), ec) && !ec) {
            warn((temporary ? "reaped orphaned trace cache temporary "
                            : "garbage-collected expired quarantine "
                              "file ") +
                 entry.path().string());
        }
        ec.clear();
    }
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

    Status read = Status::ok();
    for (int attempt = 1; attempt <= maxIoAttempts; ++attempt) {
        read = readTraceV3(path, out);
        if (read.code() != StatusCode::kIo)
            break;
        if (attempt < maxIoAttempts) {
            warn("retrying trace cache load: " + read.message());
            backoff(attempt);
        }
    }
    if (read.isOk()) {
        ++hitCount;
        return true;
    }

    if (read.code() == StatusCode::kCorrupt) {
        // Keep the evidence: move the bad entry aside under a name the
        // next lookup ignores, so post-mortem can inspect what rotted
        // while the sweep recaptures and carries on.
        const std::filesystem::path entry(path);
        const std::string quarantine =
            (entry.parent_path() /
             (".corrupt-" + entry.filename().string()))
                .string();
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
    ++missCount;
    return false;
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
    return result;
}

} // namespace vpsim
