#include "sim/sim_runner.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "common/invariant.hpp"
#include "common/io.hpp"
#include "common/logging.hpp"
#include "common/resource_usage.hpp"
#include "common/stats.hpp"
#include "trace/trace_stats.hpp"
#include "trace/trace_v3.hpp"

namespace vpsim
{

namespace
{

std::uint64_t
microsSince(std::chrono::steady_clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

unsigned
resolveJobCount(const Options &options)
{
    const std::int64_t jobs = options.getInt("jobs");
    fatalIf(jobs < 0, "--jobs must be >= 0 (0 = hardware concurrency)");
    return jobs == 0 ? ThreadPool::defaultThreadCount()
                     : static_cast<unsigned>(jobs);
}

/** FNV-1a 64-bit over @p text, folded with @p seed. */
std::uint64_t
fnv1a(const std::string &text, std::uint64_t seed = 0)
{
    std::uint64_t hash = 14695981039346656037ull ^ seed;
    for (const char ch : text) {
        hash ^= static_cast<unsigned char>(ch);
        hash *= 1099511628211ull;
    }
    return hash;
}

/**
 * The signal last caught by the cooperative handler (0 = none). Global
 * because signal handlers cannot carry state; consumed by the runner
 * that notices it after its batch drains.
 */
std::atomic<int> g_caughtSignal{0};

extern "C" void
simRunnerSignalHandler(int signal_number)
{
    // First signal: request a cooperative drain (async-signal-safe:
    // just an atomic store). Second signal: the user really means it.
    if (g_caughtSignal.exchange(signal_number) != 0)
        std::_Exit(128 + signal_number);
}

constexpr char checkpointMagic[] = "vpsim-grid-checkpoint 1";

/**
 * Load a checkpoint file into key -> cell-value-bits. A missing file
 * is a fresh start; a malformed one is ignored with a warning (the
 * sweep recomputes, which is always safe).
 */
std::unordered_map<std::uint64_t, std::uint64_t>
loadCheckpoint(const std::string &path)
{
    std::unordered_map<std::uint64_t, std::uint64_t> cells;
    std::ifstream in(path);
    if (!in)
        return cells;
    std::string magic;
    std::getline(in, magic);
    if (magic != checkpointMagic) {
        warn("ignoring malformed checkpoint file " + path);
        return cells;
    }
    std::uint64_t key = 0;
    std::uint64_t value_bits = 0;
    while (in >> std::hex >> key >> value_bits)
        cells[key] = value_bits;
    return cells;
}

std::uint64_t
doubleToBits(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

double
bitsToDouble(std::uint64_t bits)
{
    double value = 0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

} // namespace

SimRunner::SimRunner(const Options &options_in)
    : options(options_in), pool(resolveJobCount(options_in))
{
    io::configureFaultInjection(options.getString("fault-inject"));
    keepGoing = options.getBool("keep-going");
    checkpointPath = options.getString("checkpoint");
    resumeRequested = options.getBool("resume");
    fatalIf(resumeRequested && checkpointPath.empty(),
            "--resume requires --checkpoint FILE");

    setInvariantLevel(
        invariantLevelFromString(options.getString("check-invariants")));
    const std::int64_t cross_check = options.getInt("cross-check");
    fatalIf(cross_check < 0, "--cross-check must be >= 0");
    crossCheckCells = static_cast<std::uint64_t>(cross_check);
    jobTimeoutSeconds = options.getDouble("job-timeout");
    fatalIf(jobTimeoutSeconds < 0, "--job-timeout must be >= 0");

    salvageBlocksEnabled = options.getBool("salvage-blocks");
    memBudget = static_cast<std::uint64_t>(options.getInt("mem-budget"))
                << 20;

    // Checkpoint cells are keyed by everything that determines results
    // (insts, benchmarks, seed, ...) but not by how the run executes
    // (--jobs, cache dir, fault spec, self-check level): a resumed run
    // may use different parallelism or verification settings, and a
    // differently-configured sweep never matches. --salvage-blocks is
    // in the execution set too: salvage only matters when disk
    // corruption strikes, so it does not change what a cell computes.
    configHash = fnv1a(options.fingerprint(
        {"jobs", "trace-cache-dir", "stats", "keep-going", "checkpoint",
         "resume", "fault-inject", "check-invariants", "cross-check",
         "job-timeout", "salvage-blocks", "mem-budget",
         "cache-gc-days"}));

    const std::string cache_dir = options.getString("trace-cache-dir");
    if (!cache_dir.empty()) {
        const auto gc_age = std::chrono::seconds(
            options.getInt("cache-gc-days") * 24 * 3600);
        cache = std::make_unique<TraceCacheStore>(
            cache_dir, TraceCacheStore::defaultTmpReapAge, gc_age);
        cache->setSalvageBlocks(salvageBlocksEnabled);
        if (!cache->status().isOk()) {
            warn("trace cache disabled; capturing uncached: " +
                 cache->status().message());
            cache.reset();
        }
    }

    previousSigint = std::signal(SIGINT, simRunnerSignalHandler);
    previousSigterm = std::signal(SIGTERM, simRunnerSignalHandler);

    if (jobTimeoutSeconds > 0.0)
        watchdogThread = std::thread([this] { watchdogLoop(); });
}

SimRunner::~SimRunner()
{
    if (watchdogThread.joinable()) {
        {
            MutexLock lock(watchdogMutex);
            watchdogStop = true;
        }
        watchdogWake.notify_all();
        watchdogThread.join();
    }
    if (previousSigint != SIG_ERR)
        std::signal(SIGINT, previousSigint);
    if (previousSigterm != SIG_ERR)
        std::signal(SIGTERM, previousSigterm);
}

void
SimRunner::watchdogLoop()
{
    using Seconds = std::chrono::duration<double>;
    const Seconds timeout(jobTimeoutSeconds);
    // Poll fast enough that sub-second timeouts (used by the tests)
    // detect the stall promptly, but never busier than 10 Hz.
    const Seconds poll(
        std::clamp(jobTimeoutSeconds / 4.0, 0.001, 0.1));

    MutexLock lock(watchdogMutex);
    while (!watchdogStop) {
        watchdogWake.wait_for(lock.native(), poll);
        if (watchdogStop)
            break;
        const auto now = std::chrono::steady_clock::now();
        for (ActiveJob &job : activeJobs) {
            const std::uint64_t progress = job.token->progress();
            if (progress != job.lastProgress) {
                job.lastProgress = progress;
                job.lastProgressTime = now;
                continue;
            }
            if (now - job.lastProgressTime < timeout ||
                job.token->canceled())
                continue;
            // Cancellation is cooperative: the job notices at its next
            // simHeartbeat() and unwinds with a kTimeout status. Dump
            // the experiment fingerprint so the offending point can be
            // reproduced in isolation.
            job.token->requestCancel();
            ++timedOutJobCount;
            warn("watchdog: job '" + job.label +
                 "' made no progress for " +
                 std::to_string(jobTimeoutSeconds) +
                 " s; canceling (experiment: " + options.fingerprint() +
                 ")");
        }
    }
}

std::vector<JobFailure>
SimRunner::failures() const
{
    MutexLock lock(failuresMutex);
    return jobFailures;
}

void
SimRunner::recordFailure(const std::string &label,
                         const std::string &error)
{
    {
        MutexLock lock(failuresMutex);
        jobFailures.push_back({label, error});
    }
    warn("job '" + label + "' failed: " + error +
         " (--keep-going: its cells stay NaN)");
}

void
SimRunner::run(std::vector<SimJob> batch)
{
    const auto wall_start = std::chrono::steady_clock::now();
    for (SimJob &job : batch) {
        pool.submit([this, job = std::move(job)] {
            if (g_caughtSignal.load(std::memory_order_relaxed) != 0)
                return; // cooperative drain: skip still-queued work
            const io::FaultKind fault = io::faultInjector().next("job");
            if (fault == io::FaultKind::Sigint) {
                std::raise(SIGINT);
                return;
            }
            const auto start = std::chrono::steady_clock::now();

            // Give the job a cancellation token and, when the watchdog
            // is armed, register it in the active list. The guard's
            // destructor tears both down on every exit path, including
            // the rethrow below.
            CancellationToken token;
            const bool watched = jobTimeoutSeconds > 0.0;
            std::list<ActiveJob>::iterator active_it;
            if (watched) {
                MutexLock lock(watchdogMutex);
                activeJobs.push_back({job.label, &token, 0,
                                      std::chrono::steady_clock::now()});
                active_it = std::prev(activeJobs.end());
            }
            setCurrentCancellationToken(&token);
            struct TokenScope
            {
                SimRunner *runner;
                std::list<ActiveJob>::iterator it;
                bool watched;
                ~TokenScope()
                {
                    setCurrentCancellationToken(nullptr);
                    if (!watched)
                        return;
                    MutexLock lock(runner->watchdogMutex);
                    runner->activeJobs.erase(it);
                }
            } scope{this, active_it, watched};

            try {
                if (fault != io::FaultKind::None)
                    throw std::runtime_error("injected fault: job " +
                                             job.label);
                job.execute();
            } catch (const JobCanceledError &e) {
                // Watchdog cancellation: a kTimeout failure, reported
                // with its status code so timeouts are distinguishable
                // from model bugs in the failure list.
                if (!keepGoing)
                    throw;
                recordFailure(job.label,
                              std::string("[") +
                                  statusCodeName(e.status().code()) +
                                  "] " + e.what());
                return;
            } catch (const InvariantViolation &e) {
                // Self-check failure: the model broke its own
                // contract (kInternal), not the input.
                if (!keepGoing)
                    throw;
                recordFailure(job.label,
                              std::string("[") +
                                  statusCodeName(e.status().code()) +
                                  "] " + e.what());
                return;
            } catch (const std::exception &e) {
                if (!keepGoing)
                    throw;
                recordFailure(job.label, e.what());
                return;
            } catch (...) {
                if (!keepGoing)
                    throw;
                recordFailure(job.label, "unknown exception");
                return;
            }
            jobMicros += microsSince(start);
            ++jobsRun;
        });
    }
    pool.wait();
    wallMicros += microsSince(wall_start);

    const int signal_number = g_caughtSignal.load();
    if (signal_number != 0)
        exitOnSignal(signal_number);
}

std::uint64_t
SimRunner::cellKey(std::uint64_t grid, std::size_t row,
                   std::size_t col) const
{
    return fnv1a("g" + std::to_string(grid) + "r" + std::to_string(row) +
                     "c" + std::to_string(col),
                 configHash);
}

std::vector<std::vector<double>>
SimRunner::runGrid(
    std::size_t rows, std::size_t cols,
    const std::function<double(std::size_t, std::size_t)> &cell,
    const std::function<double(std::size_t, std::size_t)> &reference)
{
    const std::uint64_t grid_id = ++gridOrdinal;
    // NaN until a job writes the cell: failed (--keep-going) and
    // signal-skipped cells are visibly absent, never silently zero.
    std::vector<std::vector<double>> cells(
        rows, std::vector<double>(
                  cols, std::numeric_limits<double>::quiet_NaN()));

    GridState grid;
    grid.rows = rows;
    grid.cols = cols;
    grid.cells = &cells;
    grid.keys.resize(rows * cols);
    grid.done = std::make_unique<std::atomic<bool>[]>(rows * cols);
    for (std::size_t idx = 0; idx < rows * cols; ++idx) {
        grid.keys[idx] = cellKey(grid_id, idx / cols, idx % cols);
        grid.done[idx].store(false, std::memory_order_relaxed);
    }

    std::size_t resumed = 0;
    if (resumeRequested) {
        const auto saved = loadCheckpoint(checkpointPath);
        for (std::size_t idx = 0; idx < rows * cols; ++idx) {
            const auto it = saved.find(grid.keys[idx]);
            if (it == saved.end())
                continue;
            cells[idx / cols][idx % cols] = bitsToDouble(it->second);
            grid.done[idx].store(true, std::memory_order_relaxed);
            ++resumed;
        }
        if (resumed > 0) {
            std::fprintf(stderr,
                         "sim: resumed %zu of %zu cells from %s\n",
                         resumed, rows * cols, checkpointPath.c_str());
        }
    }
    resumedCellCount += resumed;

    // Deterministic --cross-check sample: the N cells with the
    // smallest checkpoint keys among those actually being computed.
    // The keys are a hash of (experiment fingerprint, grid, row, col),
    // so the sample is effectively random over the grid yet identical
    // across --jobs values and reruns of the same experiment.
    std::vector<char> crossChecked(rows * cols, 0);
    if (crossCheckCells > 0 && reference) {
        std::vector<std::size_t> candidates;
        for (std::size_t idx = 0; idx < rows * cols; ++idx) {
            if (!grid.done[idx].load(std::memory_order_relaxed))
                candidates.push_back(idx);
        }
        std::sort(candidates.begin(), candidates.end(),
                  [&grid](std::size_t a, std::size_t b) {
                      return grid.keys[a] < grid.keys[b];
                  });
        const std::size_t sample = std::min(
            candidates.size(),
            static_cast<std::size_t>(crossCheckCells));
        for (std::size_t i = 0; i < sample; ++i)
            crossChecked[candidates[i]] = 1;
    }

    std::vector<SimJob> batch;
    batch.reserve(rows * cols - resumed);
    for (std::size_t row = 0; row < rows; ++row) {
        for (std::size_t col = 0; col < cols; ++col) {
            const std::size_t idx = row * cols + col;
            if (grid.done[idx].load(std::memory_order_relaxed))
                continue;
            batch.push_back(
                {"cell[" + std::to_string(row) + "][" +
                     std::to_string(col) + "]",
                 [this, &cells, &cell, &reference, &grid, &crossChecked,
                  idx, row, col] {
                     const double value = cell(row, col);
                     cells[row][col] = value;
                     grid.done[idx].store(true,
                                          std::memory_order_release);
                     if (!crossChecked[idx])
                         return;
                     // Differential check: re-simulate on the naive
                     // reference model. Divergence means one of the two
                     // models is wrong — poison the cell and fail the
                     // job as an internal error rather than publish a
                     // number we cannot trust.
                     const double ref = reference(row, col);
                     const bool both_nan =
                         std::isnan(value) && std::isnan(ref);
                     const double tolerance =
                         1e-9 *
                         std::max(std::abs(value), std::abs(ref));
                     if (both_nan ||
                         std::abs(value - ref) <= tolerance) {
                         ++crossCheckedCellCount;
                         return;
                     }
                     cells[row][col] =
                         std::numeric_limits<double>::quiet_NaN();
                     grid.done[idx].store(false,
                                          std::memory_order_release);
                     invariantFailed(
                         "cross-check",
                         "cell[" + std::to_string(row) + "][" +
                             std::to_string(col) +
                             "] diverges from the reference model: "
                             "primary " +
                             std::to_string(value) + " vs reference " +
                             std::to_string(ref));
                 }});
        }
    }
    activeGrid = &grid;
    run(std::move(batch));
    activeGrid = nullptr;
    return cells;
}

void
SimRunner::flushCheckpoint() const
{
    // Deliberately bypasses the fault injector: the checkpoint is the
    // recovery mechanism itself, and injected faults are meant for the
    // pipeline under test, not for the lifeboat.
    const std::string temp =
        checkpointPath + ".tmp." + std::to_string(::getpid());
    std::FILE *file = std::fopen(temp.c_str(), "w");
    if (!file) {
        warn("cannot write checkpoint " + checkpointPath + ": " +
             std::strerror(errno));
        return;
    }
    std::fprintf(file, "%s\n", checkpointMagic);
    const GridState &grid = *activeGrid;
    for (std::size_t idx = 0; idx < grid.rows * grid.cols; ++idx) {
        if (!grid.done[idx].load(std::memory_order_acquire))
            continue;
        const double value =
            (*grid.cells)[idx / grid.cols][idx % grid.cols];
        std::fprintf(file, "%016llx %016llx\n",
                     static_cast<unsigned long long>(grid.keys[idx]),
                     static_cast<unsigned long long>(
                         doubleToBits(value)));
    }
    const bool write_ok = std::fflush(file) == 0 && !std::ferror(file);
    std::fclose(file);
    if (!write_ok || std::rename(temp.c_str(), checkpointPath.c_str())) {
        std::remove(temp.c_str());
        warn("cannot publish checkpoint " + checkpointPath + ": " +
             std::strerror(errno));
    }
}

void
SimRunner::exitOnSignal(int signal_number)
{
    if (activeGrid != nullptr && !checkpointPath.empty()) {
        std::size_t done_cells = 0;
        const std::size_t total =
            activeGrid->rows * activeGrid->cols;
        for (std::size_t idx = 0; idx < total; ++idx)
            done_cells += activeGrid->done[idx].load() ? 1 : 0;
        flushCheckpoint();
        std::fprintf(stderr,
                     "sim: interrupted by signal %d; %zu of %zu cells "
                     "checkpointed to %s (rerun with --resume 1)\n",
                     signal_number, done_cells, total,
                     checkpointPath.c_str());
    } else {
        std::fprintf(stderr,
                     "sim: interrupted by signal %d; no --checkpoint "
                     "file configured, progress discarded\n",
                     signal_number);
    }
    std::exit(128 + signal_number);
}

TraceHandle
SimRunner::captureTrace(const std::string &name, std::uint64_t insts,
                        std::uint64_t skip,
                        const WorkloadParams &params)
{
    fatalIf(insts == 0, "--insts must be positive");
    const TraceCacheKey key{name, insts, skip, params.scale,
                            params.seed};
    const bool use_cache = cache && !cacheDegraded.load();
    if (use_cache) {
        std::vector<TraceRecord> records;
        Status error = Status::ok();
        if (cache->tryLoad(key, &records, &error)) {
            return std::make_shared<const std::vector<TraceRecord>>(
                std::move(records));
        }
        if (!error.isOk())
            warn(error.message() + "; recapturing");
    }

    const auto start = std::chrono::steady_clock::now();
    std::vector<TraceRecord> trace;
    bool have_trace = false;
    if (use_cache) {
        // Stream the capture straight into the cache entry in bounded
        // chunks, so insts + skip records never materialize in this
        // process, then map the published entry back in. Warm-up
        // handling matches sliceTrace(): the first `skip` records are
        // dropped and kept records renumber from seq 0, so the entry
        // is byte-identical to one written by the materializing path.
        std::uint64_t seen = 0;
        std::vector<TraceRecord> kept;
        const Status streamed = cache->storeStreaming(
            key,
            [&](const std::function<Status(
                    const std::vector<TraceRecord> &)> &append) {
                seen = 0;
                return captureWorkloadTraceChunked(
                    name, insts + skip, params, defaultRecordsPerBlock,
                    [&](const std::vector<TraceRecord> &chunk) {
                        const std::uint64_t first = seen;
                        seen += chunk.size();
                        if (seen <= skip)
                            return Status::ok();
                        const auto cut = static_cast<std::size_t>(
                            skip > first ? skip - first : 0);
                        kept.assign(chunk.begin() +
                                        static_cast<std::ptrdiff_t>(cut),
                                    chunk.end());
                        for (TraceRecord &rec : kept)
                            rec.seq -= skip;
                        return append(kept);
                    });
            });
        if (streamed.isOk()) {
            // Read the entry back directly (not tryLoad: this is our
            // own just-published file, not a cache lookup, so it must
            // not perturb the hit/miss counters or quarantine logic).
            const Status read = readTraceV3(cache->pathFor(key), &trace);
            if (read.isOk()) {
                have_trace = true;
            } else {
                warn("cannot read back streamed trace capture: " +
                     read.message() + "; recapturing in memory");
            }
        } else if (!cacheDegraded.exchange(true)) {
            warn("trace cache degraded to in-memory capture: " +
                 streamed.message());
        }
    }

    if (!have_trace) {
        trace = captureWorkloadTrace(name, insts + skip, params);
        if (skip > 0)
            trace = sliceTrace(trace, skip);
        if (use_cache && !cacheDegraded.load()) {
            const Status stored = cache->store(key, trace);
            // A store that still fails after the cache's own retries is
            // treated as persistent (disk full, dir deleted): degrade
            // to in-memory capture once, with one warning, instead of
            // paying the retry cost and a warning per capture.
            if (!stored.isOk() && !cacheDegraded.exchange(true)) {
                warn("trace cache degraded to in-memory capture: " +
                     stored.message());
            }
        }
    }
    captureMicros += microsSince(start);
    ++capturesRun;

    // --mem-budget soft guard: materialized captures are the main RSS
    // driver in a bench process, so crossing the budget here gets one
    // actionable warning pointing at the streaming alternative instead
    // of a later OOM kill with no context.
    if (memBudget != 0 &&
        RssSampler::currentRssBytes() > memBudget &&
        !memBudgetWarned.exchange(true)) {
        warn("process RSS exceeds --mem-budget " +
             std::to_string(memBudget >> 20) +
             " MB after capturing '" + name +
             "'; consider fewer --benchmarks, smaller --insts, or the "
             "streaming v3 trace path");
    }
    return std::make_shared<const std::vector<TraceRecord>>(
        std::move(trace));
}

BenchmarkTraces
SimRunner::captureBenchmarks()
{
    const std::uint64_t insts =
        static_cast<std::uint64_t>(options.getInt("insts"));
    std::vector<std::string> names = options.getList("benchmarks");
    if (names.empty())
        names = workloadNames();
    validateBenchmarkNames(names);

    WorkloadParams params;
    params.scale = static_cast<unsigned>(options.getInt("scale"));
    params.seed = static_cast<std::uint64_t>(options.getInt("seed"));
    const auto skip =
        static_cast<std::uint64_t>(options.getInt("skip"));

    BenchmarkTraces result;
    result.names = names;
    result.traces.resize(names.size());
    std::vector<SimJob> batch;
    batch.reserve(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        batch.push_back(
            {"capture:" + names[i], [this, &result, &names, i, insts,
                                     skip, params] {
                 result.traces[i] =
                     captureTrace(names[i], insts, skip, params);
             }});
    }
    run(std::move(batch));
    return result;
}

void
SimRunner::reportStats() const
{
    std::fprintf(stderr,
                 "sim: %llu jobs on %u threads, wall %.0f ms, "
                 "job cpu %.0f ms (%llu VM captures, %.0f ms)\n",
                 static_cast<unsigned long long>(jobsRun.load()),
                 pool.threadCount(),
                 static_cast<double>(wallMicros.load()) / 1000.0,
                 static_cast<double>(jobMicros.load()) / 1000.0,
                 static_cast<unsigned long long>(capturesRun.load()),
                 static_cast<double>(captureMicros.load()) / 1000.0);
    if (cache) {
        std::fprintf(
            stderr, "trace cache: %llu hits, %llu misses (%s)\n",
            static_cast<unsigned long long>(cache->hits()),
            static_cast<unsigned long long>(cache->misses()),
            cache->directory().c_str());
        if (cache->gcRemovedQuarantineFiles() > 0) {
            std::fprintf(stderr,
                         "trace cache: garbage-collected %llu expired "
                         "quarantine file(s)\n",
                         static_cast<unsigned long long>(
                             cache->gcRemovedQuarantineFiles()));
        }
    }
    const SalvageRegistry::Totals salvage = salvageRegistry().totals();
    if (salvage.files > 0) {
        std::fprintf(
            stderr,
            "sim: salvage (--salvage-blocks): %llu damaged trace "
            "file(s), %llu block(s) quarantined, %llu record(s) lost, "
            "%llu byte(s) skipped\n",
            static_cast<unsigned long long>(salvage.files),
            static_cast<unsigned long long>(salvage.blocksQuarantined),
            static_cast<unsigned long long>(salvage.recordsLost),
            static_cast<unsigned long long>(salvage.bytesSkipped));
    }
    if (resumedCellCount > 0) {
        std::fprintf(stderr,
                     "sim: %llu cells served from checkpoint %s\n",
                     static_cast<unsigned long long>(resumedCellCount),
                     checkpointPath.c_str());
    }
    if (crossCheckedCellCount.load() > 0) {
        std::fprintf(stderr,
                     "sim: %llu cells cross-checked against the "
                     "reference model (all agree)\n",
                     static_cast<unsigned long long>(
                         crossCheckedCellCount.load()));
    }
    if (timedOutJobCount.load() > 0) {
        std::fprintf(stderr,
                     "sim: %llu job(s) canceled by the --job-timeout "
                     "watchdog\n",
                     static_cast<unsigned long long>(
                         timedOutJobCount.load()));
    }
    if (invariantViolations() > 0) {
        std::fprintf(stderr,
                     "sim: %llu invariant violation(s) detected (%llu "
                     "checks evaluated)\n",
                     static_cast<unsigned long long>(
                         invariantViolations()),
                     static_cast<unsigned long long>(
                         invariantChecksEvaluated()));
    }
    // Snapshot under the failures lock: reportStats() may be called
    // while another thread's batch is still recording (and the old
    // unlocked read here is exactly the kind of bug the thread-safety
    // analysis now rejects at compile time).
    const std::vector<JobFailure> failure_report = failures();
    if (!failure_report.empty()) {
        std::fprintf(stderr,
                     "sim: %zu job(s) FAILED under --keep-going "
                     "(cells recorded as NaN):\n",
                     failure_report.size());
        for (const JobFailure &failure : failure_report) {
            std::fprintf(stderr, "  %s: %s\n", failure.label.c_str(),
                         failure.error.c_str());
        }
    }
    if (!options.getBool("stats"))
        return;

    // Publish through the stats registry for uniform tooling.
    Counter jobs_counter, job_micros, wall, captures, capture_time;
    Counter cache_hits, cache_lookups, failed_jobs, resumed;
    jobs_counter += jobsRun.load();
    job_micros += jobMicros.load();
    wall += wallMicros.load();
    captures += capturesRun.load();
    capture_time += captureMicros.load();
    StatGroup group("sim_runner");
    group.addCounter("jobs", jobs_counter, "simulation jobs executed");
    group.addCounter("job_micros", job_micros,
                     "summed per-job wall clock (us)");
    group.addCounter("wall_micros", wall,
                     "end-to-end batch wall clock (us)");
    group.addCounter("vm_captures", captures,
                     "workload traces captured by the VM");
    group.addCounter("vm_capture_micros", capture_time,
                     "wall clock spent capturing traces (us)");
    failed_jobs += failure_report.size();
    group.addCounter("failed_jobs", failed_jobs,
                     "jobs that threw under --keep-going");
    resumed += resumedCellCount;
    group.addCounter("resumed_cells", resumed,
                     "grid cells reloaded from the checkpoint");
    Counter cross_checked, timed_out, invariant_checks;
    cross_checked += crossCheckedCellCount.load();
    group.addCounter("cross_checked_cells", cross_checked,
                     "cells re-simulated on the reference model");
    timed_out += timedOutJobCount.load();
    group.addCounter("timed_out_jobs", timed_out,
                     "jobs canceled by the --job-timeout watchdog");
    invariant_checks += invariantChecksEvaluated();
    group.addCounter("invariant_checks", invariant_checks,
                     "self-check invariants evaluated");
    if (cache) {
        cache_hits += cache->hits();
        cache_lookups += cache->hits() + cache->misses();
        group.addCounter("trace_cache_hits", cache_hits,
                         "captures served from the on-disk cache");
        group.addRatio("trace_cache_hit_rate", cache_hits,
                       cache_lookups, "hits / lookups");
    }
    Counter salvaged_blocks, salvaged_records_lost;
    salvaged_blocks += salvage.blocksQuarantined;
    group.addCounter("salvaged_blocks", salvaged_blocks,
                     "corrupt v3 blocks quarantined by salvage");
    salvaged_records_lost += salvage.recordsLost;
    group.addCounter("salvaged_records_lost", salvaged_records_lost,
                     "trace records lost to quarantined blocks");
    std::fputs(group.dump().c_str(), stderr);
}

} // namespace vpsim
