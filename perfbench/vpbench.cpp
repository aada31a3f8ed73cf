/**
 * @file
 * vpbench: the repository benchmark.
 *
 * Runs one named workload in this process, on at most four threads,
 * by calling each simulator layer's public API and timing those calls
 * from outside:
 *
 *  - ideal_sweep:    the Section 3 work (Fig 3.1 grid plus the Fig
 *                    3.3-3.5 analyses) on traces loaded from a warm
 *                    trace cache, through SimRunner's grid;
 *  - pipeline_sweep: the Section 5 front-end grid on the same kind of
 *                    traces, through SimRunner's grid;
 *  - streamed_scale: a cold v3 capture of every benchmark, then each
 *                    entry streamed through StreamingTraceSource into
 *                    the ideal machine and the DID analysis on the
 *                    calling thread.
 *
 * A run repeats rounds of its workload (set-up, then every timed cell)
 * for --seconds and reports medians over rounds. Every cell result is
 * checked: against its first-round value in every later round, against
 * structural invariants, against the stored expected values for seed 0
 * at the default sizes, and against the reference ideal machine on a
 * seed-chosen sample. --trace 1 alternates untraced and traced rounds,
 * derives the per-layer metrics and the layer ledger from the traced
 * ones, and reports tracing overhead against the untraced ones.
 *
 * Diagnostics go to stderr; the last stdout line is the result object
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/did.hpp"
#include "analysis/predictability.hpp"
#include "common/resource_usage.hpp"
#include "common/thread_pool.hpp"
#include "core/ideal_machine.hpp"
#include "core/pipeline_machine.hpp"
#include "core/reference_machine.hpp"
#include "predictor/classifier.hpp"
#include "predictor/factory.hpp"
#include "sim/sim_runner.hpp"
#include "trace/streaming_source.hpp"
#include "trace/trace_cache_store.hpp"
#include "trace/trace_v3.hpp"
#include "workloads/workload.hpp"

#include "tracer.hpp"

namespace fs = std::filesystem;
using namespace vpsim;
using perfbench::nowNs;
using perfbench::ScopedSpan;

namespace
{

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Per-benchmark trace length; 0 = the workload's default. */
    std::uint64_t insts = 0;
    /** Worker threads: the machine's, at most four. */
    unsigned jobs = std::min(4u, ThreadPool::defaultThreadCount());
    std::string workdir = ".bench_build/work";
    std::string spansPath;
    std::string expectedPath;
    std::string dumpCellsPath;
};

[[noreturn]] void
usage(const std::string &error)
{
    std::fprintf(stderr,
                 "vpbench: %s\n"
                 "usage: vpbench --workload ideal_sweep|pipeline_sweep|"
                 "streamed_scale --seed N --seconds S --trace 0|1\n"
                 "       [--insts N] [--workdir DIR] "
                 "[--spans FILE] [--expected FILE] [--dump-cells FILE]\n",
                 error.c_str());
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || text[0] == '-')
        usage(flag + " expects a non-negative integer, got '" + text + "'");
    return value;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = parseUnsigned(flag, value);
        } else if (flag == "--seconds") {
            args.seconds = std::atof(value.c_str());
            if (!(args.seconds > 0.0))
                usage("--seconds must be positive");
        } else if (flag == "--trace") {
            args.trace = parseUnsigned(flag, value) != 0;
        } else if (flag == "--insts") {
            args.insts = parseUnsigned(flag, value);
        } else if (flag == "--workdir") {
            args.workdir = value;
        } else if (flag == "--spans") {
            args.spansPath = value;
        } else if (flag == "--expected") {
            args.expectedPath = value;
        } else if (flag == "--dump-cells") {
            args.dumpCellsPath = value;
        } else {
            usage("unknown option " + flag);
        }
    }
    if (args.workload.empty())
        usage("--workload is required");
    return args;
}

std::string
format(const char *fmt, ...)
{
    char buffer[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buffer, sizeof(buffer), fmt, ap);
    va_end(ap);
    return buffer;
}

using ull = unsigned long long;

// ---------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------

enum class CellKind
{
    Ideal,
    Pipeline,
    Did,
    Predictability,
};

/** One column of a workload's grid (the same for every benchmark). */
struct CellSpec
{
    std::string label;
    CellKind kind = CellKind::Ideal;
    /** Span around the layer call; its prefix names the layer. */
    const char *span = "";
    IdealMachineConfig ideal;
    PipelineConfig pipe;
    /**
     * Column of the VP-off twin of a predicting cell, -1 otherwise. The
     * ledger charges the VP-on cost above the twin's to the predictor.
     */
    int twin = -1;
};

/** What one cell computed in one round. */
struct CellResult
{
    bool ok = false;
    std::string canon;
    std::uint64_t records = 0;
    int span = -1;
    IdealMachineResult ideal;
    PipelineResult pipe;
    DidAnalysis did;
    PredictabilityAnalysis pred;
};

std::string
canonIdeal(const IdealMachineResult &r)
{
    return format("cycles=%llu insts=%llu made=%llu correct=%llu "
                  "wrong=%llu correct_uses=%llu stalling=%llu useful=%llu",
                  ull(r.cycles), ull(r.instructions), ull(r.predictionsMade),
                  ull(r.predictionsCorrect), ull(r.predictionsWrong),
                  ull(r.correctlyPredictedUses), ull(r.stallingUses),
                  ull(r.usefulPredictions));
}

std::string
canonPipeline(const PipelineResult &r)
{
    return format("cycles=%llu insts=%llu bmiss=%llu bacc=%.17g "
                  "made=%llu correct=%llu wrong=%llu tc_lookups=%llu "
                  "tc_hit=%.17g vpt_req=%llu vpt_denied=%llu",
                  ull(r.cycles), ull(r.instructions),
                  ull(r.branchMispredicts), r.branchAccuracy,
                  ull(r.vpPredictionsMade), ull(r.vpPredictionsCorrect),
                  ull(r.vpPredictionsWrong), ull(r.tcLookups), r.tcHitRate,
                  ull(r.vptRequests), ull(r.vptDeniedRequests));
}

std::string
canonDid(const DidAnalysis &d)
{
    return format("arcs=%llu avg=%.17g trimmed=%.17g ge4=%.17g",
                  ull(d.totalArcs), d.averageDid, d.averageDidTrimmed,
                  d.fracDidAtLeast4);
}

std::string
canonPred(const PredictabilityAnalysis &p)
{
    return format("arcs=%llu unpred=%.17g d1=%.17g d2=%.17g d3=%.17g "
                  "d4=%.17g",
                  ull(p.totalArcs), p.fracUnpredictable,
                  p.fracPredictableDid1, p.fracPredictableDid2,
                  p.fracPredictableDid3, p.fracPredictableDid4Plus);
}

std::string
canonOf(const CellSpec &spec, const CellResult &r)
{
    switch (spec.kind) {
    case CellKind::Ideal:
        return canonIdeal(r.ideal);
    case CellKind::Pipeline:
        return canonPipeline(r.pipe);
    case CellKind::Did:
        return canonDid(r.did);
    case CellKind::Predictability:
        return canonPred(r.pred);
    }
    return "";
}

/** Run one cell's layer call on an in-memory trace. */
void
computeCell(const CellSpec &spec, const std::vector<TraceRecord> &trace,
            CellResult &out)
{
    ScopedSpan call(spec.span);
    out.span = call.id();
    switch (spec.kind) {
    case CellKind::Ideal:
        out.ideal = runIdealMachine(trace, spec.ideal);
        break;
    case CellKind::Pipeline:
        out.pipe = runPipelineMachine(trace, spec.pipe);
        break;
    case CellKind::Did:
        out.did = analyzeDid(TraceSpan(trace));
        break;
    case CellKind::Predictability:
        out.pred = analyzePredictability(trace);
        break;
    }
}

/** Structural invariants every cell result must satisfy at any seed. */
std::string
structuralError(const CellSpec &spec, const CellResult &r)
{
    switch (spec.kind) {
    case CellKind::Ideal: {
        const IdealMachineResult &m = r.ideal;
        if (m.instructions != r.records)
            return "instruction count differs from the trace length";
        if (m.cycles * spec.ideal.fetchRate < m.instructions)
            return "IPC exceeds the fetch rate";
        if (!spec.ideal.useValuePrediction && m.predictionsMade != 0)
            return "predictions made with value prediction off";
        if (spec.ideal.perfectValuePrediction && m.predictionsWrong != 0)
            return "perfect value prediction mispredicted";
        if (m.usefulPredictions > m.correctlyPredictedUses)
            return "more useful predictions than correct uses";
        return "";
    }
    case CellKind::Pipeline: {
        const PipelineResult &m = r.pipe;
        if (m.instructions != r.records)
            return "instruction count differs from the trace length";
        if (m.cycles == 0 ||
            m.cycles * spec.pipe.issueWidth < m.instructions)
            return "IPC exceeds the issue width";
        if (spec.pipe.perfectBranchPredictor && m.branchMispredicts != 0)
            return "ideal BTB mispredicted";
        if (!spec.pipe.useValuePrediction && m.vpPredictionsMade != 0)
            return "predictions made with value prediction off";
        return "";
    }
    case CellKind::Did:
        return r.did.totalArcs == 0 ? "no dependence arcs" : "";
    case CellKind::Predictability:
        return r.pred.totalArcs == 0 ? "no dependence arcs" : "";
    }
    return "";
}

// ---------------------------------------------------------------------
// Rounds and checks
// ---------------------------------------------------------------------

/** One pass over the workload: set-up, then every timed cell. */
struct Round
{
    bool traced = false;
    double setupS = 0.0;
    double timedS = 0.0;
    /** Trace records consumed by the timed machine and analysis calls. */
    std::uint64_t records = 0;
    /** This round's spans are recordedSpans()[spanFirst, spanLast). */
    std::size_t spanFirst = 0;
    std::size_t spanLast = 0;
    /** benchmark-major: cells[row * columns + col]. */
    std::vector<CellResult> cells;

    /** @name Deterministic per-round layer counts */
    /// @{
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t recordsLoaded = 0;
    std::uint64_t instsCaptured = 0;
    std::uint64_t storeCalls = 0;
    std::uint64_t v3Bytes = 0;
    std::uint64_t v3Records = 0;
    std::uint64_t streamBlocks = 0;
    std::uint64_t recordsStreamed = 0;
    /// @}

    double wallS() const { return setupS + timedS; }
};

/** Counts checks and remembers the first few failures. */
class Checker
{
  public:
    void
    check(bool ok, const std::string &what)
    {
        ++attemptedCount;
        if (ok)
            return;
        ++failedCount;
        if (messages.size() < 20)
            messages.push_back(what);
    }

    void fail(const std::string &what) { check(false, what); }

    std::uint64_t attempted() const { return attemptedCount; }
    std::uint64_t failed() const { return failedCount; }

    void
    report() const
    {
        for (const std::string &message : messages)
            std::fprintf(stderr, "vpbench: FAILED %s\n", message.c_str());
    }

  private:
    std::uint64_t attemptedCount = 0;
    std::uint64_t failedCount = 0;
    std::vector<std::string> messages;
};

/** Samples collected by the standalone predictor pass (traced runs). */
struct PredictorProbe
{
    std::uint64_t lookups = 0;
    std::uint64_t made = 0;
    std::uint64_t correct = 0;
    std::int64_t ns = 0;
};

/**
 * ClassifiedPredictor::predictAndTrain over every value producer of
 * @p source, timing only the predictor loop (not block delivery).
 */
void
probePredictor(TraceSource &source, PredictorProbe &probe)
{
    const auto predictor = makeClassifiedPredictor(PredictorKind::Stride);
    source.reset();
    TraceSpan block;
    while (source.nextBlock(block)) {
        const std::int64_t start = nowNs();
        for (const TraceRecord &record : block) {
            if (record.producesValue())
                predictor->predictAndTrain(record.pc, record.result);
        }
        probe.ns += nowNs() - start;
    }
    probe.lookups += predictor->lookups();
    probe.made += predictor->predictionsMade();
    probe.correct += predictor->predictionsCorrect();
}

/**
 * Forwarding TraceSource that counts (and, when tracing, times) the
 * inner source's block deliveries.
 */
class TimedSource : public TraceSource
{
  public:
    explicit TimedSource(TraceSource &inner_source) : inner(inner_source) {}

    bool
    nextBlock(TraceSpan &out, std::size_t max_records) override
    {
        ScopedSpan span("trace.stream");
        const bool delivered = inner.nextBlock(out, max_records);
        return note(delivered, out.size());
    }

    bool
    nextColumns(TraceColumns &out, std::size_t max_records) override
    {
        ScopedSpan span("trace.stream");
        const bool delivered = inner.nextColumns(out, max_records);
        return note(delivered, out.size());
    }

    bool supportsColumns() const override { return inner.supportsColumns(); }

    void
    reset() override
    {
        ScopedSpan span("trace.stream");
        inner.reset();
    }

    std::uint64_t blocks = 0;
    std::uint64_t records = 0;

  private:
    bool
    note(bool delivered, std::size_t count)
    {
        if (delivered) {
            ++blocks;
            records += count;
        }
        return delivered;
    }

    TraceSource &inner;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

class Workload
{
  public:
    Workload(const Args &args_in, std::uint64_t default_insts)
        : args(args_in),
          insts(args_in.insts ? args_in.insts : default_insts),
          defaultSize(args_in.insts == 0 || args_in.insts == default_insts),
          names(workloadNames())
    {
        params.seed = args.seed;
    }
    virtual ~Workload() = default;

    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Untimed preparation before the first round. */
    virtual void prepare(Checker &) {}

    virtual Round runRound(bool traced) = 0;

    /** Reference-model sample on the last round's traces. */
    virtual void referenceChecks(const Round &last, Checker &checker) = 0;

    /** Standalone predictor pass over the last round's traces. */
    virtual void probe(PredictorProbe &probe) = 0;

    const std::vector<CellSpec> &columns() const { return cols; }
    std::uint64_t instsPerBenchmark() const { return insts; }
    bool atDefaultSize() const { return defaultSize; }

    std::string
    cellId(std::size_t idx) const
    {
        return names[idx / cols.size()] + "/" + cols[idx % cols.size()].label;
    }

  protected:
    TraceCacheKey
    keyFor(std::size_t row) const
    {
        return TraceCacheKey{names[row], insts, 0, params.scale, params.seed,
                             traceFormatVersionV3};
    }

    /** Cold-capture benchmark @p row into @p store, v3 and streamed. */
    Status
    captureInto(const TraceCacheStore &store, std::size_t row,
                std::uint64_t *captured) const
    {
        return store.storeStreaming(
            keyFor(row),
            [&](const std::function<Status(
                    const std::vector<TraceRecord> &)> &append) {
                ScopedSpan capture("vm.capture");
                *captured = 0;
                return captureWorkloadTraceChunked(
                    names[row], insts, params, defaultRecordsPerBlock,
                    [&](const std::vector<TraceRecord> &chunk) {
                        ScopedSpan sink("trace.v3_append");
                        *captured += chunk.size();
                        return append(chunk);
                    });
            });
    }

    const Args &args;
    const std::uint64_t insts;
    const bool defaultSize;
    WorkloadParams params;
    std::vector<std::string> names;
    std::vector<CellSpec> cols;
};

/** The two SimRunner grids over warm-cache in-memory traces. */
class SweepWorkload : public Workload
{
  public:
    SweepWorkload(const Args &args_in, std::uint64_t default_insts,
                  std::vector<CellSpec> columns)
        : Workload(args_in, default_insts),
          cacheDir(args_in.workdir + "/cache"),
          runnerOptions(makeRunnerOptions(args_in.jobs)),
          runner(runnerOptions), store(cacheDir)
    {
        cols = std::move(columns);
    }

    void
    prepare(Checker &checker) override
    {
        // Warm the cache this run's set-up loads from. Captures are not
        // part of the sweeps' set-up: a figure user pays them once per
        // machine, not per run.
        if (!store.status().isOk()) {
            checker.fail("trace cache unusable: " + store.status().message());
            return;
        }
        std::vector<SimJob> batch;
        std::vector<Status> status(names.size(), Status::ok());
        std::vector<std::uint64_t> captured(names.size(), 0);
        for (std::size_t row = 0; row < names.size(); ++row) {
            batch.push_back({"warm:" + names[row], [&, row] {
                                 status[row] = captureInto(store, row,
                                                           &captured[row]);
                             }});
        }
        runner.run(std::move(batch));
        for (std::size_t row = 0; row < names.size(); ++row)
            checker.check(status[row].isOk(),
                          "warm-up capture of " + names[row] + ": " +
                              status[row].message());
        for (std::size_t row = 0; row < names.size(); ++row) {
            std::error_code error;
            const auto bytes =
                fs::file_size(store.pathFor(keyFor(row)), error);
            entryBytes += error ? 0 : bytes;
        }
    }

    Round
    runRound(bool traced) override
    {
        Round round;
        round.traced = traced;
        round.cells.resize(names.size() * cols.size());
        traces.assign(names.size(), nullptr); // free the last round's
        const std::uint64_t hits_before = store.hits();
        const std::uint64_t misses_before = store.misses();

        round.spanFirst = perfbench::spanCount();
        const std::int64_t start = nowNs();
        ScopedSpan round_span("bench.round");
        {
            ScopedSpan setup("sim.setup", -1, ScopedSpan::inherit,
                             static_cast<int>(runner.jobs()));
            const int setup_id = setup.id();
            std::vector<SimJob> batch;
            for (std::size_t row = 0; row < names.size(); ++row) {
                batch.push_back({"load:" + names[row], [&, row, setup_id] {
                                     ScopedSpan load("trace.cache_load", -1,
                                                     setup_id);
                                     std::vector<TraceRecord> records;
                                     Status error = Status::ok();
                                     if (!store.tryLoad(keyFor(row), &records,
                                                        &error))
                                         throw std::runtime_error(
                                             "cache miss for " + names[row] +
                                             ": " + error.message());
                                     traces[row] = std::make_shared<
                                         const std::vector<TraceRecord>>(
                                         std::move(records));
                                 }});
            }
            runner.run(std::move(batch));
        }
        const std::int64_t setup_end = nowNs();
        {
            ScopedSpan grid("sim.grid", -1, ScopedSpan::inherit,
                            static_cast<int>(runner.jobs()));
            const int grid_id = grid.id();
            const auto values = runner.runGrid(
                names.size(), cols.size(),
                [&, grid_id](std::size_t row, std::size_t col) {
                    const std::size_t idx = row * cols.size() + col;
                    ScopedSpan cell("sim.cell", static_cast<int>(idx),
                                    grid_id);
                    if (!traces[row])
                        throw std::runtime_error("no trace for " +
                                                 names[row]);
                    CellResult &out = round.cells[idx];
                    out.records = traces[row]->size();
                    computeCell(cols[col], *traces[row], out);
                    return 0.0;
                });
            for (std::size_t idx = 0; idx < round.cells.size(); ++idx)
                round.cells[idx].ok =
                    !std::isnan(values[idx / cols.size()][idx % cols.size()]);
        }
        const std::int64_t end = nowNs();
        round.setupS = static_cast<double>(setup_end - start) * 1e-9;
        round.timedS = static_cast<double>(end - setup_end) * 1e-9;
        round.cacheHits = store.hits() - hits_before;
        round.cacheMisses = store.misses() - misses_before;
        for (const auto &trace : traces)
            round.recordsLoaded += trace ? trace->size() : 0;
        round.v3Bytes = entryBytes;
        round.v3Records = round.recordsLoaded;
        for (CellResult &cell : round.cells) {
            if (cell.ok)
                round.records += cell.records;
        }
        return round;
    }

    void
    referenceChecks(const Round &last, Checker &checker) override
    {
        // A seed-chosen fetch rate per benchmark, every ideal mode at
        // that rate, re-simulated on the naive reference model.
        std::vector<std::size_t> sample;
        for (std::size_t row = 0; row < names.size(); ++row) {
            std::vector<std::size_t> ideal_cols;
            for (std::size_t col = 0; col < cols.size(); ++col) {
                if (cols[col].kind == CellKind::Ideal)
                    ideal_cols.push_back(col);
            }
            if (ideal_cols.empty() || !traces[row])
                continue;
            const std::size_t pick =
                ideal_cols[(args.seed + row) % ideal_cols.size()];
            const unsigned rate = cols[pick].ideal.fetchRate;
            for (const std::size_t col : ideal_cols) {
                if (cols[col].ideal.fetchRate == rate)
                    sample.push_back(row * cols.size() + col);
            }
        }
        std::vector<std::string> reference(sample.size());
        std::vector<SimJob> batch;
        for (std::size_t s = 0; s < sample.size(); ++s) {
            const std::size_t idx = sample[s];
            batch.push_back({"reference:" + cellId(idx), [&, s, idx] {
                                 reference[s] = canonIdeal(
                                     runReferenceIdealMachine(
                                         *traces[idx / cols.size()],
                                         cols[idx % cols.size()].ideal));
                             }});
        }
        runner.run(std::move(batch));
        for (std::size_t s = 0; s < sample.size(); ++s) {
            const CellResult &cell = last.cells[sample[s]];
            checker.check(cell.ok && cell.canon == reference[s],
                          "reference model disagrees on " +
                              cellId(sample[s]) + ": " + cell.canon +
                              " vs " + reference[s]);
        }
    }

    void
    probe(PredictorProbe &probe) override
    {
        for (const auto &trace : traces) {
            if (!trace)
                continue;
            BorrowedTraceSource source{TraceSpan(*trace)};
            probePredictor(source, probe);
        }
    }

  private:
    /** A figure bench's options: --jobs N, failing cells kept as NaN. */
    static Options
    makeRunnerOptions(unsigned jobs)
    {
        Options options;
        declareStandardOptions(options, 1);
        const std::string jobs_text = std::to_string(jobs);
        const char *argv[] = {"vpbench", "--jobs", jobs_text.c_str(),
                              "--keep-going", "1"};
        options.parse(5, argv, "vpbench");
        return options;
    }

    std::string cacheDir;
    Options runnerOptions;
    SimRunner runner;
    TraceCacheStore store;
    std::vector<TraceHandle> traces;
    std::uint64_t entryBytes = 0;
};

/** Cold v3 capture, then every entry streamed on the calling thread. */
class StreamedWorkload : public Workload
{
  public:
    StreamedWorkload(const Args &args_in, std::uint64_t default_insts)
        : Workload(args_in, default_insts),
          cacheDir(args_in.workdir + "/stream-cache"), pool(args_in.jobs)
    {
        CellSpec vp;
        vp.label = "stream.vp";
        vp.span = "core.ideal_vp";
        vp.ideal.fetchRate = 40;
        vp.ideal.useValuePrediction = true;
        vp.twin = 1;
        CellSpec novp;
        novp.label = "stream.novp";
        novp.span = "core.ideal";
        novp.ideal.fetchRate = 40;
        CellSpec did;
        did.label = "stream.did";
        did.kind = CellKind::Did;
        did.span = "analysis.did";
        cols = {vp, novp, did};
    }

    Round
    runRound(bool traced) override
    {
        Round round;
        round.traced = traced;
        round.cells.resize(names.size() * cols.size());
        store.reset();
        std::error_code ignored;
        fs::remove_all(cacheDir, ignored); // every round starts cold

        round.spanFirst = perfbench::spanCount();
        const std::int64_t start = nowNs();
        ScopedSpan round_span("bench.round");
        std::vector<Status> status(names.size(), Status::ok());
        std::vector<std::uint64_t> captured(names.size(), 0);
        {
            ScopedSpan setup("bench.setup", -1, ScopedSpan::inherit,
                             static_cast<int>(pool.threadCount()));
            const int setup_id = setup.id();
            store = std::make_unique<TraceCacheStore>(cacheDir);
            for (std::size_t row = 0; row < names.size(); ++row) {
                pool.submit([&, row, setup_id] {
                    ScopedSpan entry("trace.store", -1, setup_id);
                    try {
                        // The lookup a cold figure run makes first.
                        {
                            ScopedSpan lookup("trace.cache_load");
                            std::vector<TraceRecord> unused;
                            Status error = Status::ok();
                            if (store->tryLoad(keyFor(row), &unused,
                                               &error))
                                throw std::runtime_error("cache not cold");
                        }
                        status[row] = captureInto(*store, row,
                                                  &captured[row]);
                    } catch (const std::exception &e) {
                        status[row] = Status::error(StatusCode::kInternal,
                                                    e.what());
                    }
                });
            }
            pool.wait();
        }
        const std::int64_t setup_end = nowNs();
        for (std::size_t row = 0; row < names.size(); ++row) {
            const std::size_t base = row * cols.size();
            if (!status[row].isOk()) {
                std::fprintf(stderr, "vpbench: capture of %s failed: %s\n",
                             names[row].c_str(),
                             status[row].message().c_str());
                continue;
            }
            StreamingTraceSource source;
            if (!source.open(store->pathFor(keyFor(row))).isOk())
                continue;
            TimedSource timed(source);
            for (std::size_t col = 0; col < cols.size(); ++col) {
                CellResult &out = round.cells[base + col];
                const std::uint64_t before = timed.records;
                try {
                    ScopedSpan call(cols[col].span,
                                    static_cast<int>(base + col));
                    out.span = call.id();
                    if (cols[col].kind == CellKind::Did)
                        out.did = analyzeDid(timed);
                    else
                        out.ideal = runIdealMachine(timed, cols[col].ideal);
                    out.ok = source.status().isOk();
                } catch (const std::exception &e) {
                    // As SimRunner's --keep-going: the cell fails, the
                    // run goes on.
                    std::fprintf(stderr, "vpbench: %s failed: %s\n",
                                 cellId(base + col).c_str(), e.what());
                }
                out.records = timed.records - before;
            }
            round.streamBlocks += timed.blocks;
            round.recordsStreamed += timed.records;
        }
        const std::int64_t end = nowNs();
        round.setupS = static_cast<double>(setup_end - start) * 1e-9;
        round.timedS = static_cast<double>(end - setup_end) * 1e-9;
        round.cacheHits = store->hits();
        round.cacheMisses = store->misses();
        round.storeCalls = names.size();
        for (std::size_t row = 0; row < names.size(); ++row) {
            round.instsCaptured += captured[row];
            std::error_code error;
            const auto bytes =
                fs::file_size(store->pathFor(keyFor(row)), error);
            round.v3Bytes += error ? 0 : bytes;
        }
        round.v3Records = round.instsCaptured;
        for (CellResult &cell : round.cells) {
            if (cell.ok)
                round.records += cell.records;
        }
        return round;
    }

    void
    referenceChecks(const Round &last, Checker &checker) override
    {
        // Two seed-chosen benchmarks, materialized from their entries:
        // the reference ideal machine and the in-memory DID analysis
        // must agree with what the streamed path computed.
        for (std::size_t k = 0; k < 2 && k < names.size(); ++k) {
            const std::size_t row = (args.seed + 3 * k) % names.size();
            std::vector<TraceRecord> records;
            const Status read =
                readTraceV3(store->pathFor(keyFor(row)), &records);
            if (!read.isOk()) {
                checker.fail("cannot read back " + names[row] + ": " +
                             read.message());
                continue;
            }
            for (std::size_t col = 0; col < cols.size(); ++col) {
                const std::size_t idx = row * cols.size() + col;
                const std::string expected =
                    cols[col].kind == CellKind::Did
                        ? canonDid(analyzeDid(TraceSpan(records)))
                        : canonIdeal(runReferenceIdealMachine(
                              records, cols[col].ideal));
                checker.check(last.cells[idx].ok &&
                                  last.cells[idx].canon == expected,
                              "in-memory reference disagrees on " +
                                  cellId(idx) + ": " +
                                  last.cells[idx].canon + " vs " +
                                  expected);
            }
        }
    }

    void
    probe(PredictorProbe &probe) override
    {
        for (std::size_t row = 0; row < names.size(); ++row) {
            StreamingTraceSource source;
            if (source.open(store->pathFor(keyFor(row))).isOk())
                probePredictor(source, probe);
        }
    }

  private:
    std::string cacheDir;
    ThreadPool pool;
    std::unique_ptr<TraceCacheStore> store;
};

std::vector<CellSpec>
idealSweepColumns()
{
    std::vector<CellSpec> columns;
    for (const unsigned rate : {4u, 8u, 16u, 32u, 40u}) {
        const std::string bw = "ideal.bw" + std::to_string(rate);
        CellSpec none;
        none.label = bw + ".none";
        none.span = "core.ideal";
        none.ideal.fetchRate = rate;
        CellSpec stride = none;
        stride.label = bw + ".stride";
        stride.span = "core.ideal_vp";
        stride.ideal.useValuePrediction = true;
        stride.twin = static_cast<int>(columns.size());
        CellSpec perfect = stride;
        perfect.label = bw + ".perfect";
        perfect.span = "core.ideal_perfect";
        perfect.ideal.perfectValuePrediction = true;
        perfect.twin = -1;
        columns.push_back(none);
        columns.push_back(stride);
        columns.push_back(perfect);
    }
    CellSpec did;
    did.label = "did";
    did.kind = CellKind::Did;
    did.span = "analysis.did";
    CellSpec pred;
    pred.label = "predictability";
    pred.kind = CellKind::Predictability;
    pred.span = "analysis.predictability";
    columns.push_back(did);
    columns.push_back(pred);
    return columns;
}

std::vector<CellSpec>
pipelineSweepColumns()
{
    struct Family
    {
        const char *name;
        const char *span;
        FrontEndKind frontEnd;
        unsigned maxTaken;
        bool interleaved;
    };
    static const Family families[] = {
        {"seq1", "core.pipeline.seq1", FrontEndKind::Sequential, 1, false},
        {"seq2", "core.pipeline.seq2", FrontEndKind::Sequential, 2, false},
        {"seq4", "core.pipeline.seq4", FrontEndKind::Sequential, 4, false},
        {"sequnl", "core.pipeline.sequnl", FrontEndKind::Sequential, 0,
         false},
        {"tc", "core.pipeline.tc", FrontEndKind::TraceCache, 1, false},
        {"tcvpt", "core.pipeline.tcvpt", FrontEndKind::TraceCache, 1, true},
    };
    std::vector<CellSpec> columns;
    for (const Family &family : families) {
        for (const bool ideal_btb : {true, false}) {
            // The interleaved-table column runs with the ideal BTB only,
            // as the Section 4 bank study does.
            if (family.interleaved && !ideal_btb)
                continue;
            for (const bool vp : {false, true}) {
                CellSpec spec;
                spec.kind = CellKind::Pipeline;
                spec.span = family.span;
                spec.label = std::string("pipe.") + family.name +
                             (ideal_btb ? ".ideal" : ".2lev") +
                             (vp ? ".vp" : ".novp");
                spec.pipe.frontEnd = family.frontEnd;
                spec.pipe.maxTakenBranches = family.maxTaken;
                spec.pipe.perfectBranchPredictor = ideal_btb;
                spec.pipe.useInterleavedVpTable = family.interleaved;
                spec.pipe.useValuePrediction = vp;
                spec.twin = vp ? static_cast<int>(columns.size()) - 1 : -1;
                columns.push_back(spec);
            }
        }
    }
    return columns;
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Nearest-rank percentile @p p (0..100) of @p values. */
double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

const std::vector<std::string> ledgerLayers = {
    "vm", "trace", "predictor", "core", "analysis", "sim", "bench"};

/** Per-layer metrics and the layer ledger from the traced rounds. */
std::vector<Metric>
layerMetrics(const Workload &workload, const std::vector<Round> &rounds,
             const PredictorProbe &probe,
             std::map<std::string, double> &ledger)
{
    const std::vector<CellSpec> &cols = workload.columns();
    const std::vector<perfbench::Span> &spans = perfbench::recordedSpans();

    std::map<std::string, double> self_ns;   // by span name
    std::map<std::string, double> records;   // by span name
    std::map<std::string, double> layer_ns;  // ledger, by layer
    std::vector<double> cell_ms, queue_ms;
    double cell_ns_sum = 0.0, grid_capacity_ns = 0.0;
    const Round *last_traced = nullptr;
    std::vector<double> traced_wall, untraced_wall;
    // Denominators of the per-record times: totals over traced rounds.
    double captured_sum = 0, stores_sum = 0, loaded_sum = 0,
           streamed_sum = 0;

    for (const Round &round : rounds) {
        (round.traced ? traced_wall : untraced_wall)
            .push_back(round.wallS());
        if (!round.traced)
            continue;
        last_traced = &round;
        captured_sum += static_cast<double>(round.instsCaptured);
        stores_sum += static_cast<double>(round.storeCalls);
        loaded_sum += static_cast<double>(round.recordsLoaded);
        streamed_sum += static_cast<double>(round.recordsStreamed);
        const std::vector<std::int64_t> self = perfbench::selfTimes(
            spans, round.spanFirst, round.spanLast);
        const auto self_of = [&](int id) {
            return id < 0 ? 0.0
                          : static_cast<double>(
                                self[static_cast<std::size_t>(id) -
                                     round.spanFirst]);
        };
        for (std::size_t i = round.spanFirst; i < round.spanLast; ++i) {
            const perfbench::Span &span = spans[i];
            const double s = self_of(static_cast<int>(i));
            self_ns[span.name] += s;
            layer_ns[perfbench::layerOf(span.name)] += s;
            if (std::string(span.name) == "sim.cell") {
                cell_ms.push_back(static_cast<double>(span.duration()) *
                                  1e-6);
                cell_ns_sum += static_cast<double>(span.duration());
                if (span.parent >= 0)
                    queue_ms.push_back(
                        static_cast<double>(
                            span.start -
                            spans[static_cast<std::size_t>(span.parent)]
                                .start) *
                        1e-6);
            } else if (std::string(span.name) == "sim.grid") {
                grid_capacity_ns += static_cast<double>(span.duration()) *
                                    span.width;
            }
        }
        for (std::size_t idx = 0; idx < round.cells.size(); ++idx) {
            const CellResult &cell = round.cells[idx];
            if (!cell.ok)
                continue;
            const CellSpec &spec = cols[idx % cols.size()];
            const auto n = static_cast<double>(cell.records);
            records[spec.span] += n;
            if (spec.kind == CellKind::Pipeline)
                records["core.pipeline"] += n;
            if (spec.twin >= 0) {
                // Predictor share of a VP-on cell: its cost above the
                // VP-off twin's on the same trace.
                const CellResult &twin =
                    round.cells[idx - idx % cols.size() +
                                static_cast<std::size_t>(spec.twin)];
                const double vp_ns = self_of(cell.span);
                const double extra = std::clamp(
                    vp_ns - self_of(twin.span), 0.0, vp_ns);
                layer_ns["core"] -= extra;
                layer_ns["predictor"] += extra;
            }
        }
    }

    double pipeline_ns = 0.0;
    for (const auto &[name, ns] : self_ns) {
        if (name.rfind("core.pipeline.", 0) == 0)
            pipeline_ns += ns;
    }
    // Self time of a span name per record its cells consumed.
    const auto per_record = [&](const std::string &span) {
        return ratio(self_ns[span], records[span]);
    };

    // Deterministic counts come from the cells of the last traced round.
    double useful = 0, correct_uses = 0, stalling = 0, base_insts = 0;
    double pipe_insts = 0, pipe_cycles = 0, tc_hits = 0, tc_lookups = 0;
    double bpred_sum = 0, bpred_cells = 0, vpt_denied = 0, vpt_requests = 0;
    double arcs = 0;
    if (last_traced) {
        for (std::size_t idx = 0; idx < last_traced->cells.size(); ++idx) {
            const CellResult &cell = last_traced->cells[idx];
            const CellSpec &spec = cols[idx % cols.size()];
            if (!cell.ok)
                continue;
            if (spec.kind == CellKind::Ideal) {
                if (spec.ideal.useValuePrediction &&
                    !spec.ideal.perfectValuePrediction) {
                    useful += static_cast<double>(
                        cell.ideal.usefulPredictions);
                    correct_uses += static_cast<double>(
                        cell.ideal.correctlyPredictedUses);
                } else if (!spec.ideal.useValuePrediction) {
                    stalling += static_cast<double>(cell.ideal.stallingUses);
                    base_insts +=
                        static_cast<double>(cell.ideal.instructions);
                }
            } else if (spec.kind == CellKind::Pipeline) {
                const PipelineResult &p = cell.pipe;
                pipe_insts += static_cast<double>(p.instructions);
                pipe_cycles += static_cast<double>(p.cycles);
                tc_hits += p.tcHitRate * static_cast<double>(p.tcLookups);
                tc_lookups += static_cast<double>(p.tcLookups);
                if (!spec.pipe.perfectBranchPredictor) {
                    bpred_sum += p.branchAccuracy;
                    bpred_cells += 1;
                }
                vpt_denied += static_cast<double>(p.vptDeniedRequests);
                vpt_requests += static_cast<double>(p.vptRequests);
            } else if (spec.kind == CellKind::Did) {
                arcs += static_cast<double>(cell.did.totalArcs);
            }
        }
    }
    const Round empty;
    const Round &counts = last_traced ? *last_traced : empty;

    const double ideal_ns = per_record("core.ideal");
    const double ideal_vp_ns = per_record("core.ideal_vp");
    const bool has_both = records["core.ideal"] > 0 &&
                          records["core.ideal_vp"] > 0;

    std::vector<Metric> metrics = {
        {"vm.capture_ns_per_inst",
         ratio(self_ns["vm.capture"], captured_sum),
         "ns"},
        {"vm.insts_captured", static_cast<double>(counts.instsCaptured),
         "count"},
        {"trace.v3_append_ns_per_record",
         ratio(self_ns["trace.v3_append"], captured_sum),
         "ns"},
        {"trace.publish_ms",
         ratio(self_ns["trace.store"] * 1e-6, stores_sum),
         "ms"},
        {"trace.v3_bytes_per_record",
         ratio(static_cast<double>(counts.v3Bytes),
               static_cast<double>(counts.v3Records)),
         "B"},
        {"trace.cache_load_ns_per_record",
         ratio(self_ns["trace.cache_load"], loaded_sum),
         "ns"},
        {"trace.cache_hits", static_cast<double>(counts.cacheHits), "count"},
        {"trace.cache_misses", static_cast<double>(counts.cacheMisses),
         "count"},
        {"trace.stream_ns_per_record",
         ratio(self_ns["trace.stream"], streamed_sum),
         "ns"},
        {"trace.stream_blocks", static_cast<double>(counts.streamBlocks),
         "count"},
        {"predictor.ns_per_lookup",
         ratio(static_cast<double>(probe.ns),
               static_cast<double>(probe.lookups)),
         "ns"},
        {"predictor.vp_delta_ns_per_record",
         has_both ? ideal_vp_ns - ideal_ns : 0.0, "ns"},
        {"predictor.accuracy",
         ratio(static_cast<double>(probe.correct),
               static_cast<double>(probe.made)),
         "ratio"},
        {"predictor.coverage",
         ratio(static_cast<double>(probe.made),
               static_cast<double>(probe.lookups)),
         "ratio"},
        {"core.ideal_ns_per_record", ideal_ns, "ns"},
        {"core.ideal_vp_ns_per_record", ideal_vp_ns, "ns"},
        {"core.ideal_useful_ratio", ratio(useful, correct_uses), "ratio"},
        {"core.ideal_stalling_uses_per_inst", ratio(stalling, base_insts),
         "ratio"},
        {"core.pipeline_ns_per_record",
         ratio(pipeline_ns, records["core.pipeline"]), "ns"},
    };
    for (const char *family :
         {"seq1", "seq2", "seq4", "sequnl", "tc", "tcvpt"}) {
        const std::string span = std::string("core.pipeline.") + family;
        metrics.push_back({"core.pipeline_ns_per_record." +
                               std::string(family),
                           per_record(span), "ns"});
    }
    const std::vector<Metric> tail = {
        {"core.pipeline_ipc", ratio(pipe_insts, pipe_cycles), "inst/cycle"},
        {"fetch.tc_hit_rate", ratio(tc_hits, tc_lookups), "ratio"},
        {"bpred.accuracy", ratio(bpred_sum, bpred_cells), "ratio"},
        {"vptable.denied_ratio", ratio(vpt_denied, vpt_requests), "ratio"},
        {"analysis.did_ns_per_record",
         per_record("analysis.did"), "ns"},
        {"analysis.predictability_ns_per_record",
         per_record("analysis.predictability"),
         "ns"},
        {"analysis.arcs", arcs, "count"},
        {"sim.cell_ms_p50", percentile(cell_ms, 50), "ms"},
        {"sim.cell_ms_p90", percentile(cell_ms, 90), "ms"},
        {"sim.queue_wait_ms_p50", percentile(queue_ms, 50), "ms"},
        {"sim.parallel_efficiency", ratio(cell_ns_sum, grid_capacity_ns),
         "ratio"},
    };
    metrics.insert(metrics.end(), tail.begin(), tail.end());

    double total_ns = 0.0;
    for (const std::string &layer : ledgerLayers)
        total_ns += layer_ns[layer];
    for (const std::string &layer : ledgerLayers) {
        ledger[layer] = 100.0 * ratio(layer_ns[layer], total_ns);
        metrics.push_back({"ledger." + layer + "_share", ledger[layer], "%"});
    }
    metrics.push_back(
        {"bench.tracing_overhead_pct",
         100.0 * (ratio(median(traced_wall), median(untraced_wall)) - 1.0),
         "%"});
    return metrics;
}

std::vector<Metric>
endToEndMetrics(const std::vector<Round> &rounds)
{
    std::vector<double> wall, setup, mips;
    for (const Round &round : rounds) {
        if (round.traced)
            continue;
        wall.push_back(round.wallS());
        setup.push_back(round.setupS);
        mips.push_back(ratio(static_cast<double>(round.records) * 1e-6,
                             round.timedS));
    }
    return {
        {"wall_s", median(wall), "s"},
        {"setup_s", median(setup), "s"},
        {"sim_mips", median(mips), "MIPS"},
        {"peak_rss_mib",
         static_cast<double>(RssSampler::processPeakRssBytes()) /
             (1024.0 * 1024.0),
         "MiB"},
    };
}

// ---------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------

std::unique_ptr<Workload>
makeWorkload(const Args &args)
{
    if (args.workload == "ideal_sweep")
        return std::make_unique<SweepWorkload>(args, 1000000,
                                               idealSweepColumns());
    if (args.workload == "pipeline_sweep")
        return std::make_unique<SweepWorkload>(args, 250000,
                                               pipelineSweepColumns());
    if (args.workload == "streamed_scale")
        return std::make_unique<StreamedWorkload>(args, 1000000);
    usage("unknown workload '" + args.workload + "'");
}

/** Every cell of every round: ran, is self-consistent, repeats round 0. */
void
checkRounds(const Workload &workload, std::vector<Round> &rounds,
            Checker &checker)
{
    const std::vector<CellSpec> &cols = workload.columns();
    for (Round &round : rounds) {
        for (std::size_t idx = 0; idx < round.cells.size(); ++idx) {
            CellResult &cell = round.cells[idx];
            const CellSpec &spec = cols[idx % cols.size()];
            if (!cell.ok) {
                checker.fail(workload.cellId(idx) + " did not complete");
                continue;
            }
            cell.canon = canonOf(spec, cell);
            const std::string error = structuralError(spec, cell);
            if (!error.empty()) {
                checker.fail(workload.cellId(idx) + ": " + error);
                continue;
            }
            const CellResult &first = rounds.front().cells[idx];
            checker.check(cell.canon == first.canon,
                          workload.cellId(idx) +
                              " changed between rounds: " + first.canon +
                              " vs " + cell.canon);
        }
    }
}

/** Seed 0 at the default size: every cell against the stored values. */
void
checkExpected(const Workload &workload, const Round &round,
              const std::string &path, Checker &checker)
{
    std::map<std::string, std::string> expected;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t tab = line.find('\t');
        if (tab != std::string::npos)
            expected[line.substr(0, tab)] = line.substr(tab + 1);
    }
    if (expected.empty())
        std::fprintf(stderr, "vpbench: no expected values in '%s'\n",
                     path.c_str());
    for (std::size_t idx = 0; idx < round.cells.size(); ++idx) {
        const std::string id = workload.cellId(idx);
        const auto it = expected.find(id);
        checker.check(it != expected.end() &&
                          it->second == round.cells[idx].canon,
                      id + " differs from the expected value: " +
                          round.cells[idx].canon + " vs " +
                          (it == expected.end() ? "(missing)" : it->second));
    }
}

void
writeCells(const Workload &workload, const Round &round,
           const std::string &path)
{
    std::ofstream out(path);
    for (std::size_t idx = 0; idx < round.cells.size(); ++idx)
        out << workload.cellId(idx) << '\t' << round.cells[idx].canon
            << '\n';
}

void
printLedger(const std::string &workload,
            const std::map<std::string, double> &ledger)
{
    std::vector<std::pair<double, std::string>> rows;
    for (const auto &[layer, share] : ledger)
        rows.push_back({share, layer});
    std::sort(rows.rbegin(), rows.rend());
    std::fprintf(stderr, "layer ledger (%s, self-time share of traced "
                         "rounds):\n",
                 workload.c_str());
    for (const auto &[share, layer] : rows)
        std::fprintf(stderr, "  %-10s %6.2f%%\n", layer.c_str(), share);
    if (!rows.empty())
        std::fprintf(stderr, "  slowest layer: %s\n",
                     rows.front().second.c_str());
}

int
run(const Args &args)
{
    std::error_code ignored;
    fs::create_directories(args.workdir, ignored);
    std::unique_ptr<Workload> workload = makeWorkload(args);
    Checker checker;
    workload->prepare(checker);

    // Alternate untraced and traced rounds under --trace 1 so tracing
    // overhead is measured against rounds interleaved in time.
    const std::size_t min_rounds = args.trace ? 4 : 2;
    const std::size_t max_rounds = 1000;
    std::vector<Round> rounds;
    const std::int64_t start = nowNs();
    while (rounds.size() < max_rounds &&
           (rounds.size() < min_rounds ||
            static_cast<double>(nowNs() - start) * 1e-9 < args.seconds)) {
        const bool traced = args.trace && rounds.size() % 2 == 1;
        perfbench::setTracing(traced);
        Round round = workload->runRound(traced);
        perfbench::setTracing(false);
        round.spanLast = perfbench::spanCount();
        std::fprintf(stderr,
                     "round %zu%s: setup %.3f s, timed %.3f s, %.2f MIPS\n",
                     rounds.size(), traced ? " (traced)" : "", round.setupS,
                     round.timedS,
                     ratio(static_cast<double>(round.records) * 1e-6,
                           round.timedS));
        rounds.push_back(std::move(round));
    }

    checkRounds(*workload, rounds, checker);
    workload->referenceChecks(rounds.back(), checker);
    if (args.seed == 0 && workload->atDefaultSize() &&
        !args.expectedPath.empty())
        checkExpected(*workload, rounds.front(), args.expectedPath, checker);
    if (!args.dumpCellsPath.empty())
        writeCells(*workload, rounds.front(), args.dumpCellsPath);

    std::vector<Metric> metrics;
    const std::vector<Metric> e2e = endToEndMetrics(rounds);
    if (args.trace) {
        PredictorProbe probe;
        workload->probe(probe);
        std::map<std::string, double> ledger;
        metrics = layerMetrics(*workload, rounds, probe, ledger);
        printLedger(args.workload, ledger);
        if (!args.spansPath.empty() &&
            !perfbench::writeSpans(args.spansPath,
                                   perfbench::recordedSpans()))
            std::fprintf(stderr, "vpbench: cannot write spans to %s\n",
                         args.spansPath.c_str());
    } else {
        metrics = e2e;
    }

    std::fprintf(stderr, "%s: %zu rounds, %llu insts/benchmark, seed %llu\n",
                 args.workload.c_str(), rounds.size(),
                 ull(workload->instsPerBenchmark()), ull(args.seed));
    for (const Metric &m : args.trace ? e2e : std::vector<Metric>{})
        std::fprintf(stderr, "  %-40s %.6g %s (untraced rounds)\n",
                     m.name.c_str(), m.value, m.unit.c_str());
    for (const Metric &m : metrics)
        std::fprintf(stderr, "  %-40s %.6g %s\n", m.name.c_str(), m.value,
                     m.unit.c_str());
    std::fprintf(stderr, "  cells_failed %llu of %llu checks attempted\n",
                 ull(checker.failed()), ull(checker.attempted()));
    checker.report();

    std::string json = format("{\"correct\": %s, \"attempted\": %llu, "
                              "\"failed\": %llu, \"metrics\": {",
                              checker.failed() == 0 ? "true" : "false",
                              ull(checker.attempted()),
                              ull(checker.failed()));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                       i ? ", " : "", metrics[i].name.c_str(),
                       std::isfinite(metrics[i].value) ? metrics[i].value
                                                       : 0.0,
                       metrics[i].unit.c_str());
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    workload.reset();
    fs::remove_all(args.workdir, ignored);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "vpbench: %s\n", e.what());
        return 1;
    }
}
