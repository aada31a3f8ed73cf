/**
 * @file
 * Shared plumbing for the figure-regeneration benches: captured-trace
 * handles, standard command-line options, and the per-benchmark +
 * average table layout the paper's figures use.
 *
 * The execution engine itself — the job grid, the thread pool, the
 * on-disk trace cache — lives in sim_runner.hpp; this header carries
 * the data types and formatting helpers shared by every bench.
 */

#ifndef VPSIM_SIM_EXPERIMENT_HPP
#define VPSIM_SIM_EXPERIMENT_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "common/table_printer.hpp"
#include "trace/record.hpp"

namespace vpsim
{

/** An immutable captured trace, shareable across concurrent jobs. */
using TraceHandle = std::shared_ptr<const std::vector<TraceRecord>>;

/**
 * Captured traces for a set of benchmarks.
 *
 * Traces are held by shared handle so a grid of simulation jobs can run
 * against them concurrently without copying; nothing may mutate a trace
 * after capture.
 */
struct BenchmarkTraces
{
    std::vector<std::string> names;
    std::vector<TraceHandle> traces;

    std::size_t size() const { return names.size(); }

    /** The records of benchmark @p index. */
    const std::vector<TraceRecord> &trace(std::size_t index) const
    {
        return *traces[index];
    }
};

/**
 * Declare the experiment-runtime options every SimRunner user shares:
 * --jobs (worker threads), --fleet-workers (worker processes instead),
 * --trace-cache-dir (on-disk capture cache), --stats (dump the
 * runtime's counters to stderr), and the fault-tolerance flags
 * --keep-going (isolate failing jobs as NaN cells), --result-store /
 * --resume (publish finished cells so an interrupted sweep continues),
 * and --fault-inject (arm the deterministic I/O fault injector for
 * soak tests).
 *
 * declareStandardOptions() calls this; benches with no benchmark
 * capture of their own (worked examples) can call it directly.
 */
void declareRunnerOptions(Options &options);

/**
 * The result-defining fingerprint of a parsed experiment: every
 * declared option except those that change how a sweep executes but
 * not what any cell computes (threads, worker processes, caches,
 * stores, fault specs, self-checks, the CSV path). runGrid hashes it
 * into its result-store identity, so a resumed run with a different
 * executor or parallelism reuses every cell and a run with a different
 * experiment reuses none.
 */
std::string resultFingerprint(const Options &options);

/**
 * Declare the options every figure bench shares: --insts (trace length
 * per benchmark), --benchmarks (subset filter), --scale, --seed,
 * --skip, plus the runner options above.
 *
 * @param default_insts Default per-benchmark trace length; figure benches
 *        choose a length that keeps a full sweep under ~1 minute.
 */
void declareStandardOptions(Options &options,
                            std::uint64_t default_insts);

/**
 * Declare --csv for benches that write their cells with maybeWriteCsv();
 * the others reject the option at parse time.
 */
void declareCsvOption(Options &options);

/**
 * Declare --predictor for benches whose machine configuration exposes
 * the predictor kind; parse with predictorKindFromString().
 */
void declarePredictorOption(Options &options,
                            const std::string &default_kind = "stride");

/**
 * Validate @p names against the workload registry; fatal() with the
 * full list of valid names on any unknown entry.
 */
void validateBenchmarkNames(const std::vector<std::string> &names);

/**
 * Capture traces for the requested benchmarks (per the parsed options).
 *
 * Convenience wrapper that builds a SimRunner internally; benches that
 * also run a job grid should construct the SimRunner themselves and use
 * SimRunner::captureBenchmarks() so capture and simulation share one
 * pool and one cache.
 */
BenchmarkTraces captureBenchmarks(const Options &options);

/**
 * Value @p k of every cell of a SimRunner::runGrid() result whose cells
 * carry @p width values: a rows × cols table, NaN where a cell failed.
 */
std::vector<std::vector<double>>
gridValues(const std::vector<std::vector<double>> &cells, std::size_t width,
           std::size_t k);

/**
 * Build a figure-shaped table: one row per benchmark, one column per
 * configuration, plus an "avg" row of per-column arithmetic means.
 *
 * @param title Table title, e.g. "Figure 3.1 - ...".
 * @param row_names Benchmark names.
 * @param column_names Configuration labels.
 * @param cells cells[row][column] as fractions/values.
 * @param render Cell formatter (percent or number).
 */
std::string renderFigureTable(
    const std::string &title, const std::vector<std::string> &row_names,
    const std::vector<std::string> &column_names,
    const std::vector<std::vector<double>> &cells,
    const std::function<std::string(double)> &render);

/** Shorthand: render cells as percentages ("33.4%"). */
std::string renderPercentTable(
    const std::string &title, const std::vector<std::string> &row_names,
    const std::vector<std::string> &column_names,
    const std::vector<std::vector<double>> &cells);

/**
 * If --csv (declareCsvOption()) was given, append the figure's data to
 * that file in tidy long form: figure,benchmark,configuration,value.
 * Values are written raw (fractions, not percentages). No-op when the
 * option is empty.
 */
void maybeWriteCsv(const Options &options, const std::string &figure_id,
                   const std::vector<std::string> &row_names,
                   const std::vector<std::string> &column_names,
                   const std::vector<std::vector<double>> &cells);

} // namespace vpsim

#endif // VPSIM_SIM_EXPERIMENT_HPP
