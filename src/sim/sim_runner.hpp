/**
 * @file
 * The experiment runtime: a fault-tolerant job-scheduling driver for
 * figure sweeps.
 *
 * Every figure, table and ablation bench is a grid of independent
 * simulation points — (benchmark × configuration) closures, each a
 * pure function of an immutable trace returning a fixed number of
 * values (one speedup, or a speedup plus the metrics of the same runs).
 * SimRunner::runGrid executes such grids on a work-stealing thread
 * pool (--jobs, default: hardware concurrency) with deterministic cell
 * placement: each job writes only its own cell, so parallel output is
 * bit-identical to `--jobs 1`. It is the one way a bench runs a sweep,
 * so cell ownership, NaN-on-failure, publishing, resume and
 * cross-checking act the same in every bench.
 *
 * Trace capture goes through the same pool and, when --trace-cache-dir
 * is given, through an on-disk TraceCacheStore, so the eight workload
 * traces are captured once per machine instead of once per bench
 * binary. Corrupt cache entries are quarantined and recaptured; an
 * unusable cache directory degrades the run to uncached in-memory
 * capture with a one-line warning — faults never change results, only
 * wall clock. Wall-clock and cache hit/miss statistics go to stderr
 * (reportStats()).
 *
 * Failure isolation (long campaigns must survive, not restart):
 *  - `--keep-going`: a throwing job is recorded as a per-job failure
 *    and its cells stay NaN; the batch completes and the failure list
 *    is reported instead of aborting the sweep.
 *  - `--result-store DIR`: each grid publishes its finished cells to a
 *    ResultStore (sim/result_store.hpp) when it completes. SIGINT and
 *    SIGTERM are handled cooperatively: in-flight jobs drain, queued
 *    jobs are skipped, the active grid's finished cells are published,
 *    and the process exits 128+signal.
 *  - `--resume 1`: each grid merges its intact store files (corrupt
 *    ones are quarantined) and computes only the missing cells. A
 *    grid's store identity hashes the result fingerprint, the binary's
 *    name, the grid ordinal and its shape, so a resumed run may change
 *    --jobs or --csv, but never reuses cells of another experiment.
 *  - `--fault-inject`: arms the deterministic fault injector
 *    (common/io.hpp) for soak-testing all of the above.
 *
 * Typical bench structure:
 *
 *   Options options;
 *   declareStandardOptions(options, 200000);
 *   options.parse(argc, argv, "...");
 *   SimRunner runner(options);
 *   const BenchmarkTraces bench = runner.captureBenchmarks();
 *   const auto cells = runner.runGrid(bench.size(), configs.size(),
 *       [&](std::size_t row, std::size_t col) {
 *           return simulate(bench.trace(row), configs[col]);
 *       });
 *   ... render cells ...
 *   runner.reportStats();
 *
 * A cell whose runs yield several values (a speedup and the IPC of the
 * same runs, say) uses the width form and fills them together:
 *
 *   const auto cells = runner.runGrid(bench.size(), configs.size(), 2,
 *       [&](std::size_t row, std::size_t col, std::span<double> out) {
 *           out[0] = ...; out[1] = ...;
 *       });
 *   const auto ipcs = gridValues(cells, 2, 1);
 */

#ifndef VPSIM_SIM_SIM_RUNNER_HPP
#define VPSIM_SIM_SIM_RUNNER_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.hpp"
#include "common/options.hpp"
#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"
#include "sim/experiment.hpp"
#include "trace/trace_cache_store.hpp"
#include "workloads/workload.hpp"

namespace vpsim
{

class ResultStore;

/**
 * One schedulable simulation point.
 *
 * The closure must be a pure function of state owned or shared-const
 * before run() is called, and must write only to slots no other job
 * writes — that is what makes parallel execution deterministic.
 */
struct SimJob
{
    /** Shown in error messages and per-job stats. */
    std::string label;
    std::function<void()> execute;
};

/** One job that threw under --keep-going. */
struct JobFailure
{
    std::string label;
    std::string error;
};

/** Executes SimJob grids on a shared thread pool with a trace cache. */
class SimRunner
{
  public:
    /**
     * @param options Parsed options; reads --jobs, --trace-cache-dir,
     *        --keep-going, --result-store, --resume and --fault-inject
     *        (declared by declareRunnerOptions()). The runner keeps a
     *        reference, so @p options must outlive it. Installs
     *        cooperative SIGINT/SIGTERM handlers (restored by the
     *        destructor).
     */
    explicit SimRunner(const Options &options);
    ~SimRunner();

    SimRunner(const SimRunner &) = delete;
    SimRunner &operator=(const SimRunner &) = delete;

    /** Worker threads executing jobs (the resolved --jobs value). */
    unsigned jobs() const { return pool.threadCount(); }

    /** Non-null when --trace-cache-dir was given and the dir is usable. */
    const TraceCacheStore *traceCache() const { return cache.get(); }

    /**
     * Run @p batch to completion on the pool.
     *
     * Jobs start in declaration order (round-robin across workers) and
     * may finish in any order; determinism comes from each job owning
     * its output slots. Without --keep-going the first exception thrown
     * by a job is rethrown here after the batch drains; with it, the
     * failure is recorded (failures()) and the batch completes. If a
     * SIGINT/SIGTERM arrived, queued jobs are skipped, the active
     * grid's finished cells are published to --result-store, and the
     * process exits 128+signal.
     */
    void run(std::vector<SimJob> batch);

    /** Fills value k of cell (row, col) into out[k], k < out.size(). */
    using CellFill = std::function<void(std::size_t row, std::size_t col,
                                        std::span<double> out)>;

    /**
     * Declare-and-run a dense rows × cols grid whose every cell
     * carries @p width values.
     *
     * Cells start as NaN; a job that fails under --keep-going leaves
     * NaN in every value of its cell. With --result-store, the finished
     * cells are published when the grid completes; with --resume 1,
     * cells already in the store are loaded and their jobs never run.
     * The store identity folds in the grid's ordinal and its shape,
     * width included, so a store written under another shape is never
     * served.
     *
     * When the bench supplies @p reference and --cross-check N is
     * given, a deterministic sample of N cells (chosen by per-cell
     * key, so the sample is stable across --jobs values and reruns) is
     * re-simulated on the golden-reference model after the primary
     * result is computed; a divergence beyond 1e-9 relative error in
     * any value is an internal-consistency failure — the whole cell
     * reverts to NaN and the job fails like any other model bug (NaN
     * cell under --keep-going, abort otherwise). Benches with no
     * reference model simply omit the argument and --cross-check is a
     * no-op for them.
     *
     * @param fill Invoked once per (row, col), possibly concurrently,
     *        with a span of @p width NaNs to overwrite; must be a pure
     *        function of state shared-const before the call.
     * @param reference Optional naive re-computation of @p fill on an
     *        independent model (core/reference_machine.hpp).
     * @return rows × (cols · width) values: value k of cell (row, col)
     *         at [row][col · width + k] — identical for any --jobs
     *         value. gridValues() splits out one value per cell.
     */
    std::vector<std::vector<double>> runGrid(std::size_t rows,
                                             std::size_t cols,
                                             std::size_t width,
                                             const CellFill &fill,
                                             const CellFill &reference = {});

    /** The width-1 grid: each cell returns its one value. */
    std::vector<std::vector<double>> runGrid(
        std::size_t rows, std::size_t cols,
        const std::function<double(std::size_t row, std::size_t col)>
            &cell,
        const std::function<double(std::size_t row, std::size_t col)>
            &reference = {});

    /**
     * Capture traces for the benchmarks requested by the options
     * (--benchmarks/--insts/--scale/--seed/--skip), in parallel, through
     * the trace cache when one is configured. Unknown benchmark names
     * are fatal, with the list of valid names.
     */
    BenchmarkTraces captureBenchmarks();

    /**
     * Capture (or load from the cache) a single trace. Safe to call
     * from inside a running job: the capture executes on the calling
     * thread, not the pool.
     */
    TraceHandle captureTrace(const std::string &name,
                             std::uint64_t insts, std::uint64_t skip,
                             const WorkloadParams &params);

    /**
     * Jobs that threw under --keep-going. Returns a snapshot taken
     * under the failures lock: job threads append concurrently while a
     * batch is running, so handing out a reference would hand out a
     * race.
     */
    std::vector<JobFailure> failures() const EXCLUDES(failuresMutex);

    /** Grid cells served from the result store by --resume. */
    std::uint64_t resumedCells() const { return resumedCellCount; }

    /** Cells re-simulated (and agreeing) on the reference model. */
    std::uint64_t crossCheckedCells() const
    {
        return crossCheckedCellCount.load();
    }

    /** Jobs canceled by the --job-timeout watchdog. */
    std::uint64_t timedOutJobs() const { return timedOutJobCount.load(); }

    /** --salvage-blocks: quarantine + skip corrupt v3 blocks. */
    bool salvageBlocks() const { return salvageBlocksEnabled; }

    /**
     * Print the runtime's summary to stderr: jobs run, threads, wall
     * and cpu time, trace-cache hits/misses when a cache is
     * configured, and the per-job failure report when --keep-going
     * recorded any. With --stats, additionally print every counter as
     * a `sim_runner.<name>` line. stdout is never touched, so tables
     * and --csv stay byte-identical across --jobs values.
     */
    void reportStats() const;

  private:
    /** Per-grid resume bookkeeping, alive during runGrid()'s run(). */
    struct GridState
    {
        std::size_t cells = 0;
        std::size_t width = 0;
        /** cells × width values, cell-major: the row-major flattening
         *  of runGrid()'s result and the result store's cell indices. */
        std::vector<double> values;
        std::unique_ptr<std::atomic<bool>[]> done;
        /** This grid's store namespace (null without --result-store). */
        const ResultStore *store = nullptr;
    };

    /** Publish @p grid's finished cells; returns how many. */
    std::size_t publishGrid(const GridState &grid) const;
    [[noreturn]] void exitOnSignal(int signal_number);
    void recordFailure(const std::string &label,
                       const std::string &error)
        EXCLUDES(failuresMutex);
    void watchdogLoop() EXCLUDES(watchdogMutex);

    const Options &options;
    ThreadPool pool;
    std::unique_ptr<TraceCacheStore> cache;

    bool keepGoing = false;
    /** --result-store directory (empty = no publishing or resume). */
    std::string resultStoreDir;
    bool resumeRequested = false;
    /** --cross-check N: reference-model cells per grid (0 = off). */
    std::uint64_t crossCheckCells = 0;
    /** --job-timeout in seconds (0 = watchdog disabled). */
    double jobTimeoutSeconds = 0.0;
    /** Hash of the result fingerprint and the binary's name; each
     *  grid's store hash folds its ordinal and shape into it. */
    std::uint64_t runHash = 0;
    std::uint64_t gridOrdinal = 0;
    GridState *activeGrid = nullptr;
    std::uint64_t resumedCellCount = 0;

    /** mutable: reportStats()/failures() are const but must lock. */
    mutable Mutex failuresMutex;
    std::vector<JobFailure> jobFailures GUARDED_BY(failuresMutex);

    /**
     * One executing job as seen by the watchdog: its cancellation
     * token plus the progress value/time the watchdog last saw. Nodes
     * live in a std::list so job threads can unlink themselves in O(1)
     * without invalidating the monitor's iteration.
     */
    struct ActiveJob
    {
        std::string label;
        CancellationToken *token = nullptr;
        std::uint64_t lastProgress = 0;
        std::chrono::steady_clock::time_point lastProgressTime;
    };
    Mutex watchdogMutex;
    std::condition_variable watchdogWake;
    std::list<ActiveJob> activeJobs GUARDED_BY(watchdogMutex);
    bool watchdogStop GUARDED_BY(watchdogMutex) = false;
    std::thread watchdogThread;

    std::atomic<std::uint64_t> crossCheckedCellCount{0};
    std::atomic<std::uint64_t> timedOutJobCount{0};

    /** One-shot latch for the cache-degradation warning. */
    std::atomic<bool> cacheDegraded{false};

    /** --salvage-blocks: block-level corruption containment. */
    bool salvageBlocksEnabled = false;
    /** --mem-budget in bytes (0 = unlimited). */
    std::uint64_t memBudget = 0;
    /** One-shot latch for the over-budget RSS warning. */
    mutable std::atomic<bool> memBudgetWarned{false};

    std::atomic<std::uint64_t> jobsRun{0};
    std::atomic<std::uint64_t> jobMicros{0};
    std::atomic<std::uint64_t> wallMicros{0};
    std::atomic<std::uint64_t> capturesRun{0};
    std::atomic<std::uint64_t> captureMicros{0};

    /** Previous signal dispositions, restored on destruction. */
    void (*previousSigint)(int) = nullptr;
    void (*previousSigterm)(int) = nullptr;
};

} // namespace vpsim

#endif // VPSIM_SIM_SIM_RUNNER_HPP
