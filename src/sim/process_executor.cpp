/**
 * @file
 * runGrid's process executor (`--fleet-workers N`): the parent's
 * supervisor loop and the forked worker's body.
 *
 * The parent is single-threaded here: the pool is idle (every batch
 * ends in pool.wait()) and process mode starts no watchdog, so no
 * user-space lock is held when it forks. Every decision — launch, reap,
 * retry, bisect — happens at one sequence point of the loop below.
 */

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/io.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "sim/result_store.hpp"
#include "sim/retry_policy.hpp"
#include "sim/shard_planner.hpp"
#include "sim/sim_runner.hpp"
#include "sim/worker_handle.hpp"

namespace vpsim
{

namespace
{

/** One shard awaiting (re)execution. */
struct PendingShard
{
    Shard shard;
    int attempts = 0;
    std::chrono::steady_clock::time_point readyAt;
};

/** One live worker process and its hang-detection state. */
struct RunningWorker
{
    WorkerHandle handle;
    Shard shard;
    int attempts = 0; ///< Including the in-flight attempt.
    std::chrono::steady_clock::time_point lastBeatTime;
};

/**
 * Apply the worker:N:kind fault the parent drew for this launch. Struck
 * after the first computed cell — work exists but nothing is published
 * yet, the hardest point to recover from.
 */
void
strikeWorkerFault(io::FaultKind kind, HeartbeatWriter &heartbeat)
{
    if (kind == io::FaultKind::Kill9) {
        // An unannounced death: no exit code, no stored result.
        (void)std::raise(SIGKILL);
    } else if (kind == io::FaultKind::Hang) {
        // Alive but silent: only the parent's hang detector ends this.
        heartbeat.close();
        for (;;)
            std::this_thread::sleep_for(std::chrono::hours(1));
    } else if (kind == io::FaultKind::Enospc) {
        // A persistent publish failure (disk full) before any store.
        std::fflush(stderr);
        ::_exit(kWorkerExitIo);
    }
}

std::string
cellLabel(std::size_t idx, std::size_t cols)
{
    return "cell[" + std::to_string(idx / cols) + "][" +
           std::to_string(idx % cols) + "]";
}

/** A temporary result store, removed with its files. */
struct PrivateStore
{
    std::unique_ptr<ResultStore> store;

    void remove()
    {
        if (!store)
            return;
        std::error_code ec;
        std::filesystem::remove_all(store->directory(), ec);
        store.reset();
    }
    ~PrivateStore() { remove(); }
};

} // namespace

void
SimRunner::runCellsInWorkers(GridState &grid, std::size_t cols,
                             std::uint64_t grid_hash, const CellFill &fill,
                             const CellFill &reference,
                             const std::vector<char> &cross_checked)
{
    const auto wall_start = std::chrono::steady_clock::now();
    const std::size_t width = grid.width;
    const auto valueRange = [width](const Shard &shard) {
        return std::pair<std::uint32_t, std::uint32_t>(
            static_cast<std::uint32_t>(shard.firstCell * width),
            static_cast<std::uint32_t>((shard.lastCell + 1) * width - 1));
    };

    std::vector<std::uint32_t> missing;
    for (std::size_t idx = 0; idx < grid.cells; ++idx) {
        if (!grid.done[idx].load(std::memory_order_relaxed))
            missing.push_back(static_cast<std::uint32_t>(idx));
    }
    if (missing.empty())
        return;

    // Workers publish through a store: the grid's own namespace, or a
    // private temporary one removed with the grid.
    PrivateStore private_store;
    if (grid.store == nullptr) {
        std::error_code ec;
        const std::filesystem::path dir =
            std::filesystem::temp_directory_path(ec) /
            ("vpsim-grid-" + std::to_string(::getpid()) + "-" +
             std::to_string(gridOrdinal));
        fatalIf(static_cast<bool>(ec),
                "cannot resolve a temporary result-store directory: " +
                    ec.message());
        private_store.store =
            std::make_unique<ResultStore>(dir.string(), grid_hash);
        fatalIf(!private_store.store->status().isOk(),
                private_store.store->status().message());
    }
    const ResultStore &store =
        private_store.store ? *private_store.store : *grid.store;

    // The worker body: cells row-major on the forking thread, never the
    // pool; SIGINT/SIGTERM at their defaults, so a Ctrl-C to the process
    // group ends workers at once; the inherited fault spec disarmed, so
    // an I/O clause fires in the parent's run only, not once per child.
    const auto workerBody = [&](const Shard &shard, io::FaultKind fault) {
        return [&, shard, fault](HeartbeatWriter &heartbeat) {
            (void)std::signal(SIGINT, SIG_DFL);
            (void)std::signal(SIGTERM, SIG_DFL);
            (void)std::signal(SIGPIPE, SIG_IGN);
            io::faultInjector().configure("");
            CancellationToken token;
            token.forwardTo(&heartbeat);
            setCurrentCancellationToken(&token);

            ShardResult result;
            for (std::uint32_t idx = shard.firstCell; idx <= shard.lastCell;
                 ++idx) {
                std::vector<double> values;
                try {
                    values = computeCell(fill, reference,
                                         cross_checked[idx] != 0,
                                         idx / cols, idx % cols, width);
                } catch (const std::exception &error) {
                    std::fprintf(stderr,
                                 "sim: worker: job '%s' failed: %s\n",
                                 cellLabel(idx, cols).c_str(),
                                 error.what());
                    return kWorkerExitInternal;
                }
                for (std::size_t k = 0; k < width; ++k) {
                    result.cells.emplace_back(
                        static_cast<std::uint32_t>(idx * width + k),
                        values[k]);
                }
                heartbeat.beat(idx - shard.firstCell + 1);
                if (idx == shard.firstCell)
                    strikeWorkerFault(fault, heartbeat);
            }
            const auto [first, last] = valueRange(shard);
            const Status stored = store.store(first, last, result);
            if (!stored.isOk()) {
                std::fprintf(stderr, "sim: worker: %s\n",
                             stored.message().c_str());
                return exitCodeForStatus(stored.code());
            }
            return kWorkerExitOk;
        };
    };

    // A few shards per worker: a fork per cell would cost a large share
    // of a small cell, one shard per worker would lose too much work to
    // a crash.
    const std::size_t shard_cells =
        (missing.size() + 4 * fleetWorkers - 1) / (4 * fleetWorkers);
    const std::vector<Shard> planned = ShardPlanner::plan(
        missing, static_cast<std::uint32_t>(shard_cells));
    std::vector<PendingShard> pending;
    for (const Shard &shard : planned)
        pending.push_back({shard, 0, wall_start});

    const RetryPolicy policy;
    // Seeded from the grid's identity: retry schedules reproduce.
    Rng rng(grid_hash);
    char timeout_text[32];
    std::snprintf(timeout_text, sizeof(timeout_text), "%g",
                  jobTimeoutSeconds);
    const auto hang_timeout =
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(jobTimeoutSeconds));
    std::string first_failure;

    const auto handleFailure = [&](const Shard &shard, int attempts,
                                   const std::string &why) {
        warn("worker for " + cellLabel(shard.firstCell, cols) +
             (shard.size() > 1 ? ".." + cellLabel(shard.lastCell, cols)
                               : "") +
             " attempt " + std::to_string(attempts) + " failed: " + why);
        if (!policy.givesUpAfter(attempts)) {
            ++workerRetries;
            pending.push_back({shard, attempts,
                               std::chrono::steady_clock::now() +
                                   policy.delay(attempts, rng)});
            return;
        }
        if (shard.size() >= 2) {
            const auto [low, high] = ShardPlanner::bisect(shard);
            const auto now = std::chrono::steady_clock::now();
            pending.push_back({low, 0, now});
            pending.push_back({high, 0, now});
            return;
        }
        // A single cell that keeps killing its worker: a failed job.
        ++quarantinedCells;
        const std::string label = cellLabel(shard.firstCell, cols);
        const std::string error = "worker failed " +
                                  std::to_string(attempts) +
                                  " attempts (last: " + why + ")";
        if (keepGoing)
            recordFailure(label, error);
        else if (first_failure.empty())
            first_failure = label + ": " + error;
    };

    const auto mergeShard = [&](const Shard &shard) -> Status {
        ShardResult result;
        const auto [first, last] = valueRange(shard);
        Status loaded = store.load(first, last, &result);
        if (!loaded.isOk())
            return loaded;
        // Exactly the values [first, last], in order: anything else
        // would write outside this shard's cells.
        bool complete = result.cells.size() == last - first + 1;
        for (std::size_t i = 0; complete && i < result.cells.size(); ++i)
            complete = result.cells[i].first == first + i;
        if (!complete)
            return Status::error(StatusCode::kCorrupt,
                                 "shard result does not hold its cells");
        for (const auto &[index, value] : result.cells)
            grid.values[index] = value;
        for (std::uint32_t idx = shard.firstCell; idx <= shard.lastCell;
             ++idx) {
            grid.done[idx].store(true, std::memory_order_relaxed);
            if (cross_checked[idx])
                ++crossCheckedCellCount;
        }
        jobsRun += shard.size();
        return Status::ok();
    };

    std::vector<RunningWorker> running;
    while (!pending.empty() || !running.empty()) {
        if (const int signal_number = caughtSignal(); signal_number != 0) {
            running.clear(); // the handles kill and reap their children
            private_store.remove();
            exitOnSignal(signal_number);
        }

        // Launch the lowest-cell ready shards into free slots.
        const auto now = std::chrono::steady_clock::now();
        while (running.size() < fleetWorkers) {
            auto best = pending.end();
            for (auto it = pending.begin(); it != pending.end(); ++it) {
                if (it->readyAt <= now &&
                    (best == pending.end() ||
                     it->shard.firstCell < best->shard.firstCell))
                    best = it;
            }
            if (best == pending.end())
                break;
            const PendingShard next = *best;
            pending.erase(best);
            RunningWorker worker;
            worker.shard = next.shard;
            worker.attempts = next.attempts + 1;
            worker.lastBeatTime = now;
            const Status spawned = worker.handle.spawn(workerBody(
                next.shard, io::faultInjector().next("worker")));
            if (!spawned.isOk()) {
                handleFailure(next.shard, worker.attempts,
                              spawned.message());
                continue;
            }
            ++workerLaunches;
            running.push_back(std::move(worker));
        }

        // Reap, heartbeat, hang-detect.
        for (auto it = running.begin(); it != running.end();) {
            int wait_status = 0;
            if (it->handle.poll(&wait_status)) {
                const StatusCode code = classifyExit(wait_status);
                const Status merged = code == StatusCode::kOk
                                          ? mergeShard(it->shard)
                                          : Status::error(code, "");
                if (!merged.isOk()) {
                    handleFailure(it->shard, it->attempts,
                                  merged.message().empty()
                                      ? statusCodeName(code)
                                      : merged.message());
                }
                it = running.erase(it);
                continue;
            }
            if (it->handle.pollHeartbeat())
                it->lastBeatTime = std::chrono::steady_clock::now();
            if (jobTimeoutSeconds > 0.0 &&
                std::chrono::steady_clock::now() - it->lastBeatTime >
                    hang_timeout) {
                it->handle.kill9();
                while (!it->handle.poll(&wait_status))
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                ++timedOutJobCount;
                handleFailure(it->shard, it->attempts,
                              std::string("timeout: no progress for ") +
                                  timeout_text + " s");
                it = running.erase(it);
                continue;
            }
            ++it;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    wallMicros += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());
    if (!first_failure.empty())
        throw std::runtime_error(first_failure);
}

} // namespace vpsim
