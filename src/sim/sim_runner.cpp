#include "sim/sim_runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <limits>
#include <map>
#include <stdexcept>

#include "common/fnv1a.hpp"
#include "common/invariant.hpp"
#include "common/io.hpp"
#include "common/logging.hpp"
#include "common/resource_usage.hpp"
#include "sim/result_store.hpp"
#include "trace/trace_stats.hpp"

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

/** Value of a grid cell no job has written. */
constexpr double unsetCell = std::numeric_limits<double>::quiet_NaN();

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

} // namespace

SimRunner::SimRunner(const Options &options_in)
    : options(options_in), pool(resolveJobCount(options_in))
{
    io::configureFaultInjection(options.getString("fault-inject"));
    keepGoing = options.getBool("keep-going");
    resultStoreDir = options.getString("result-store");
    resumeRequested = options.getBool("resume");

    setInvariantLevel(
        invariantLevelFromString(options.getString("check-invariants")));
    const std::int64_t cross_check = options.getInt("cross-check");
    fatalIf(cross_check < 0, "--cross-check must be >= 0");
    crossCheckCells = static_cast<std::uint64_t>(cross_check);
    jobTimeoutSeconds = options.getDouble("job-timeout");
    fatalIf(jobTimeoutSeconds < 0, "--job-timeout must be >= 0");
    // Validated >= 0 at parse time (declareRunnerOptions).
    fleetWorkers = static_cast<unsigned>(options.getInt("fleet-workers"));

    memBudget = static_cast<std::uint64_t>(options.getInt("mem-budget"))
                << 20;

    // Stored cells are keyed by what determines results, not by how
    // the run executes (resultFingerprint), plus the binary's name:
    // two benches that declare the same options compute different
    // grids and must never serve each other's cells.
    runHash = fnv1a(
        std::filesystem::path(options.program()).filename().string(),
        fnv1a(resultFingerprint(options)));

    previousSigint = std::signal(SIGINT, simRunnerSignalHandler);
    previousSigterm = std::signal(SIGTERM, simRunnerSignalHandler);

    // In process mode the parent's worker loop is the hang detector,
    // and no watchdog thread may be running when it forks.
    if (jobTimeoutSeconds > 0.0 && fleetWorkers == 0)
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

    const int signal_number = caughtSignal();
    if (signal_number != 0)
        exitOnSignal(signal_number);
}

std::vector<std::vector<double>>
SimRunner::runGrid(
    std::size_t rows, std::size_t cols,
    const std::function<double(std::size_t, std::size_t)> &cell,
    const std::function<double(std::size_t, std::size_t)> &reference)
{
    const auto scalar =
        [](const std::function<double(std::size_t, std::size_t)> &one) {
            return CellFill([&one](std::size_t row, std::size_t col,
                                   std::span<double> out) {
                out[0] = one(row, col);
            });
        };
    return runGrid(rows, cols, 1, scalar(cell),
                   reference ? scalar(reference) : CellFill{});
}

std::vector<std::vector<double>>
SimRunner::runGrid(std::size_t rows, std::size_t cols, std::size_t width,
                   const CellFill &fill, const CellFill &reference)
{
    fatalIf(width == 0, "runGrid: a cell needs at least one value");
    const std::size_t total = rows * cols;
    // One store namespace per grid of this run: grid ordinal and shape
    // folded into the run's identity.
    const std::uint64_t grid_hash = fnv1aFold(
        fnv1aFold(fnv1aFold(fnv1aFold(runHash, ++gridOrdinal), rows),
                  cols),
        width);

    GridState grid;
    grid.cells = total;
    grid.width = width;
    // NaN until a job writes the cell: failed (--keep-going) and
    // signal-skipped cells are visibly absent, never silently zero.
    grid.values.assign(total * width, unsetCell);
    grid.done = std::make_unique<std::atomic<bool>[]>(total);
    for (std::size_t idx = 0; idx < total; ++idx)
        grid.done[idx].store(false, std::memory_order_relaxed);
    const auto cellValues = [&grid](std::size_t idx) {
        return std::span<double>(grid.values).subspan(idx * grid.width,
                                                      grid.width);
    };

    std::unique_ptr<ResultStore> store;
    std::size_t resumed = 0;
    if (!resultStoreDir.empty()) {
        store = std::make_unique<ResultStore>(resultStoreDir, grid_hash);
        fatalIf(!store->status().isOk(), store->status().message());
        grid.store = store.get();
        if (resumeRequested) {
            // Corrupt files are quarantined inside mergeAll; their cells
            // are simply recomputed.
            std::map<std::uint32_t, double> saved;
            (void)store->mergeAll(&saved);
            std::vector<std::size_t> present(total, 0);
            for (const auto &[index, value] : saved) {
                if (index >= grid.values.size())
                    continue;
                grid.values[index] = value;
                ++present[index / width];
            }
            // Only whole cells are served; a partial one is recomputed.
            for (std::size_t idx = 0; idx < total; ++idx) {
                if (present[idx] == width) {
                    grid.done[idx].store(true, std::memory_order_relaxed);
                    ++resumed;
                } else if (present[idx] > 0) {
                    std::ranges::fill(cellValues(idx), unsetCell);
                }
            }
            if (resumed > 0) {
                std::fprintf(stderr,
                             "sim: resumed %zu of %zu cells from %s\n",
                             resumed, total, resultStoreDir.c_str());
            }
        } else {
            // Fresh start: a stale store must not satisfy this grid.
            (void)store->removeAll();
        }
    }
    resumedCellCount += resumed;

    // Deterministic --cross-check sample: the N cells with the
    // smallest per-cell keys among those actually being computed.
    // The keys hash (experiment fingerprint, binary, grid, cell), so
    // the sample is effectively random over the grid yet identical
    // across --jobs values and reruns of the same experiment.
    std::vector<char> crossChecked(total, 0);
    if (crossCheckCells > 0 && reference) {
        std::vector<std::pair<std::uint64_t, std::size_t>> candidates;
        for (std::size_t idx = 0; idx < total; ++idx) {
            if (!grid.done[idx].load(std::memory_order_relaxed))
                candidates.emplace_back(fnv1aFold(grid_hash, idx), idx);
        }
        std::sort(candidates.begin(), candidates.end());
        const std::size_t sample = std::min(
            candidates.size(),
            static_cast<std::size_t>(crossCheckCells));
        for (std::size_t i = 0; i < sample; ++i)
            crossChecked[candidates[i].second] = 1;
    }

    // Reset even when a job's exception escapes: a later signal must
    // not publish a grid that no longer exists.
    struct ActiveGridScope
    {
        GridState *&active;
        ~ActiveGridScope() { active = nullptr; }
    } active_scope{activeGrid};
    activeGrid = &grid;
    if (fleetWorkers > 0) {
        runCellsInWorkers(grid, cols, grid_hash, fill, reference,
                          crossChecked);
    } else {
        std::vector<SimJob> batch;
        batch.reserve(total - resumed);
        for (std::size_t row = 0; row < rows; ++row) {
            for (std::size_t col = 0; col < cols; ++col) {
                const std::size_t idx = row * cols + col;
                if (grid.done[idx].load(std::memory_order_relaxed))
                    continue;
                batch.push_back(
                    {"cell[" + std::to_string(row) + "][" +
                         std::to_string(col) + "]",
                     [this, &fill, &reference, &grid, &crossChecked,
                      &cellValues, idx, row, col, width] {
                         const std::vector<double> values =
                             computeCell(fill, reference,
                                         crossChecked[idx] != 0, row,
                                         col, width);
                         std::ranges::copy(values,
                                           cellValues(idx).begin());
                         grid.done[idx].store(true,
                                              std::memory_order_release);
                         if (crossChecked[idx])
                             ++crossCheckedCellCount;
                     }});
            }
        }
        run(std::move(batch));
        if (grid.store != nullptr)
            publishGrid(grid);
    }

    const std::size_t row_values = cols * width;
    std::vector<std::vector<double>> cells(rows);
    for (std::size_t row = 0; row < rows; ++row) {
        const auto first = grid.values.begin() +
                           static_cast<std::ptrdiff_t>(row * row_values);
        cells[row].assign(first,
                          first + static_cast<std::ptrdiff_t>(row_values));
    }
    return cells;
}

std::vector<double>
SimRunner::computeCell(const CellFill &fill, const CellFill &reference,
                       bool cross_check, std::size_t row, std::size_t col,
                       std::size_t width)
{
    std::vector<double> values(width, unsetCell);
    fill(row, col, values);
    if (!cross_check)
        return values;
    // Differential check: re-simulate on the naive reference model.
    // Divergence in any value means one of the two models is wrong —
    // fail the cell as an internal error rather than publish numbers
    // we cannot trust.
    std::vector<double> refs(width, unsetCell);
    reference(row, col, refs);
    for (std::size_t k = 0; k < width; ++k) {
        const double value = values[k];
        const double ref = refs[k];
        const bool both_nan = std::isnan(value) && std::isnan(ref);
        const double tolerance =
            1e-9 * std::max(std::abs(value), std::abs(ref));
        if (both_nan || std::abs(value - ref) <= tolerance)
            continue;
        invariantFailed("cross-check",
                        "cell[" + std::to_string(row) + "][" +
                            std::to_string(col) + "] value " +
                            std::to_string(k) +
                            " diverges from the reference model: "
                            "primary " +
                            std::to_string(value) + " vs reference " +
                            std::to_string(ref));
    }
    return values;
}

std::size_t
SimRunner::publishGrid(const GridState &grid) const
{
    // One sparse file over the whole grid: every value of the finished
    // cells only.
    ShardResult result;
    std::size_t published = 0;
    for (std::size_t idx = 0; idx < grid.cells; ++idx) {
        if (!grid.done[idx].load(std::memory_order_acquire))
            continue;
        ++published;
        for (std::size_t at = idx * grid.width;
             at < (idx + 1) * grid.width; ++at)
            result.cells.emplace_back(static_cast<std::uint32_t>(at),
                                      grid.values[at]);
    }
    const Status stored = grid.store->store(
        0, static_cast<std::uint32_t>(grid.values.size() - 1), result);
    if (!stored.isOk())
        warn(stored.message());
    return published;
}

int
SimRunner::caughtSignal()
{
    return g_caughtSignal.load();
}

void
SimRunner::exitOnSignal(int signal_number)
{
    if (activeGrid != nullptr && activeGrid->store != nullptr) {
        const std::size_t published = publishGrid(*activeGrid);
        std::fprintf(stderr,
                     "sim: interrupted by signal %d; %zu of %zu cells "
                     "published to %s (rerun with --resume 1)\n",
                     signal_number, published, activeGrid->cells,
                     resultStoreDir.c_str());
    } else if (!resultStoreDir.empty()) {
        std::fprintf(stderr,
                     "sim: interrupted by signal %d while no grid was "
                     "running; every finished grid is already published "
                     "to %s (rerun with --resume 1)\n",
                     signal_number, resultStoreDir.c_str());
    } else {
        std::fprintf(stderr,
                     "sim: interrupted by signal %d; no --result-store "
                     "configured, progress discarded\n",
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
    const auto start = std::chrono::steady_clock::now();
    std::vector<TraceRecord> trace =
        captureWorkloadTrace(name, insts + skip, params);
    if (skip > 0)
        trace = sliceTrace(trace, skip);
    captureMicros += microsSince(start);
    ++capturesRun;

    // --mem-budget soft guard: materialized captures are the main RSS
    // driver in a bench process, so crossing the budget here gets one
    // warning naming the options that shrink them instead of a later
    // OOM kill with no context.
    if (memBudget != 0 &&
        RssSampler::currentRssBytes() > memBudget &&
        !memBudgetWarned.exchange(true)) {
        warn("process RSS exceeds --mem-budget " +
             std::to_string(memBudget >> 20) +
             " MB after capturing '" + name +
             "'; consider fewer --benchmarks or a smaller --insts");
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
    if (resumedCellCount > 0) {
        std::fprintf(stderr,
                     "sim: %llu cells served from result store %s\n",
                     static_cast<unsigned long long>(resumedCellCount),
                     resultStoreDir.c_str());
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

    // One "sim_runner.<name> <value>  # <description>" line each.
    const auto counter = [](const char *name, std::uint64_t value,
                            const char *description) {
        std::fprintf(stderr, "sim_runner.%-32s %14llu  # %s\n", name,
                     static_cast<unsigned long long>(value), description);
    };
    counter("jobs", jobsRun.load(), "simulation jobs executed");
    counter("job_micros", jobMicros.load(),
            "summed per-job wall clock (us)");
    counter("wall_micros", wallMicros.load(),
            "end-to-end batch wall clock (us)");
    counter("vm_captures", capturesRun.load(),
            "workload traces captured by the VM");
    counter("vm_capture_micros", captureMicros.load(),
            "wall clock spent capturing traces (us)");
    counter("failed_jobs", failure_report.size(),
            "jobs that threw under --keep-going");
    counter("resumed_cells", resumedCellCount,
            "grid cells reloaded from the result store");
    counter("cross_checked_cells", crossCheckedCellCount.load(),
            "cells re-simulated on the reference model");
    counter("timed_out_jobs", timedOutJobCount.load(),
            "jobs canceled by the --job-timeout watchdog");
    counter("worker_launches", workerLaunches,
            "worker processes forked (--fleet-workers)");
    counter("worker_retries", workerRetries,
            "failed worker attempts retried");
    counter("quarantined_cells", quarantinedCells,
            "cells that failed every worker attempt (NaN)");
    counter("invariant_checks", invariantChecksEvaluated(),
            "self-check invariants evaluated");
}

} // namespace vpsim
