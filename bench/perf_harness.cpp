/**
 * @file
 * Simulation-throughput harness: wall-clock, MIPS and peak RSS for
 * every machine model, emitted as JSON (schema in docs/PERF.md).
 *
 * Tracks the simulator's own speed across commits (the committed
 * BENCH_<n>.json snapshots; compare with scripts/perf_report.py).
 *
 * Measurement method: each model runs --repeats times over all
 * captured benchmark traces back to back; the reported wall time is
 * the median repeat, MIPS = simulated instructions / median seconds,
 * and peak RSS is sampled per model phase (RssSampler) plus the
 * process-lifetime ru_maxrss upper bound. Each model also reports
 * mips_min (from the fastest repeat): on a shared machine the median
 * still absorbs interference, so trajectory comparisons between
 * BENCH_*.json snapshots should prefer the min (see perf_report.py).
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/resource_usage.hpp"
#include "core/ideal_machine.hpp"
#include "core/pipeline_machine.hpp"
#include "core/reference_machine.hpp"
#include "sim/experiment.hpp"
#include "trace/source.hpp"
#include "trace/streaming_source.hpp"
#include "trace/trace_v3.hpp"

namespace vpsim
{
namespace
{

/** Everything the JSON needs about one model's measurement. */
struct ModelMeasurement
{
    std::string name;
    std::vector<double> wallSeconds; //!< one entry per repeat
    double medianSeconds = 0.0;
    double minSeconds = 0.0;
    double mips = 0.0;
    /**
     * MIPS from the fastest repeat. The median absorbs one-sided
     * scheduling noise but still wanders when half the repeats land on
     * a busy machine; the minimum is the run closest to the code's
     * true cost and is what trajectory comparisons should use (the
     * only error on a min is that the machine was never quiet).
     */
    double mipsMin = 0.0;
    std::size_t peakRssBytes = 0;
    /** Sum of cycle counts across benchmarks: a cheap result digest. */
    std::uint64_t cyclesDigest = 0;
};

double
medianOf(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    if (n == 0)
        return 0.0;
    if (n % 2 == 1)
        return samples[n / 2];
    return (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

/**
 * Measure @p body, which must simulate all benchmarks once and return
 * the summed cycle digest, @p repeats times.
 */
template <typename Body>
ModelMeasurement
measureModel(const std::string &name, std::uint64_t total_insts,
             unsigned repeats, RssSampler &sampler, const Body &body)
{
    ModelMeasurement m;
    m.name = name;
    sampler.beginPhase();
    for (unsigned r = 0; r < repeats; ++r) {
        Stopwatch watch;
        const std::uint64_t digest = body();
        m.wallSeconds.push_back(watch.seconds());
        if (r == 0) {
            m.cyclesDigest = digest;
        } else {
            fatalIf(digest != m.cyclesDigest,
                    "model " + name + " was not run-to-run deterministic");
        }
    }
    m.medianSeconds = medianOf(m.wallSeconds);
    m.minSeconds = m.wallSeconds.empty()
        ? 0.0
        : *std::min_element(m.wallSeconds.begin(), m.wallSeconds.end());
    m.peakRssBytes = sampler.peakBytes();
    m.mips = m.medianSeconds <= 0.0
        ? 0.0
        : static_cast<double>(total_insts) / m.medianSeconds / 1e6;
    m.mipsMin = m.minSeconds <= 0.0
        ? 0.0
        : static_cast<double>(total_insts) / m.minSeconds / 1e6;
    std::fprintf(stderr,
                 "  %-18s %8.3f s  %8.2f MIPS (min %8.2f)  %6.1f MiB\n",
                 name.c_str(), m.medianSeconds, m.mips, m.mipsMin,
                 static_cast<double>(m.peakRssBytes) / (1024.0 * 1024.0));
    return m;
}

void
writeJson(std::FILE *out, const Options &options,
          const BenchmarkTraces &bench, std::uint64_t total_insts,
          unsigned repeats, const std::vector<ModelMeasurement> &models)
{
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"schema\": \"vpsim-perf-1\",\n");
    std::fprintf(out, "  \"insts_per_benchmark\": %llu,\n",
                 static_cast<unsigned long long>(
                     options.getInt("insts")));
    std::fprintf(out, "  \"repeats\": %u,\n", repeats);
    std::fprintf(out, "  \"benchmarks\": [");
    for (std::size_t i = 0; i < bench.names.size(); ++i) {
        std::fprintf(out, "%s\"%s\"", i == 0 ? "" : ", ",
                     bench.names[i].c_str());
    }
    std::fprintf(out, "],\n");
    std::fprintf(out, "  \"total_instructions\": %llu,\n",
                 static_cast<unsigned long long>(total_insts));
    std::fprintf(out, "  \"process_peak_rss_bytes\": %llu,\n",
                 static_cast<unsigned long long>(
                     RssSampler::processPeakRssBytes()));
    std::fprintf(out, "  \"models\": [\n");
    for (std::size_t i = 0; i < models.size(); ++i) {
        const ModelMeasurement &m = models[i];
        std::fprintf(out, "    {\n");
        std::fprintf(out, "      \"name\": \"%s\",\n", m.name.c_str());
        std::fprintf(out, "      \"wall_seconds\": %.6f,\n",
                     m.medianSeconds);
        std::fprintf(out, "      \"wall_seconds_all\": [");
        for (std::size_t r = 0; r < m.wallSeconds.size(); ++r) {
            std::fprintf(out, "%s%.6f", r == 0 ? "" : ", ",
                         m.wallSeconds[r]);
        }
        std::fprintf(out, "],\n");
        std::fprintf(out, "      \"wall_seconds_min\": %.6f,\n",
                     m.minSeconds);
        std::fprintf(out, "      \"mips\": %.3f,\n", m.mips);
        std::fprintf(out, "      \"mips_min\": %.3f,\n", m.mipsMin);
        std::fprintf(out, "      \"peak_rss_bytes\": %llu,\n",
                     static_cast<unsigned long long>(m.peakRssBytes));
        std::fprintf(out, "      \"cycles_digest\": %llu\n",
                     static_cast<unsigned long long>(m.cyclesDigest));
        std::fprintf(out, "    }%s\n",
                     i + 1 == models.size() ? "" : ",");
    }
    std::fprintf(out, "  ]\n");
    std::fprintf(out, "}\n");
}

} // namespace
} // namespace vpsim

int
main(int argc, char **argv)
{
    using namespace vpsim;

    Options options;
    declareStandardOptions(options, 400000);
    options.declare("repeats", "3",
                    "timing repeats per model (median is reported)");
    options.declare("out", "",
                    "write the JSON report to this file (default: "
                    "stdout only)");
    options.parse(argc, argv,
                  "Perf harness: wall-clock / MIPS / peak RSS per "
                  "machine model, JSON out (docs/PERF.md)");

    const BenchmarkTraces bench = captureBenchmarks(options);
    const unsigned repeats =
        static_cast<unsigned>(options.getInt("repeats"));
    fatalIf(repeats == 0, "--repeats must be at least 1");

    std::uint64_t total_insts = 0;
    for (std::size_t b = 0; b < bench.size(); ++b)
        total_insts += bench.trace(b).size();

    IdealMachineConfig ideal_config;
    ideal_config.useValuePrediction = true;
    // The pure scheduling loop: no predictor tables, so delivery and
    // bookkeeping costs are the whole per-instruction path.
    IdealMachineConfig novp_config;
    novp_config.useValuePrediction = false;

    RssSampler sampler;
    std::vector<ModelMeasurement> models;
    std::fprintf(stderr,
                 "perf harness: %zu benchmarks, %llu insts total, "
                 "%u repeats\n",
                 bench.size(),
                 static_cast<unsigned long long>(total_insts), repeats);

    // The ideal machine on the bare scheduling loop (no VP: delivery
    // cost is the whole story) and with the stride predictor on
    // (delivery amortized against table lookups).
    const auto idealModel = [&](const char *name,
                                const IdealMachineConfig &config) {
        return measureModel(name, total_insts, repeats, sampler, [&] {
            std::uint64_t digest = 0;
            for (std::size_t b = 0; b < bench.size(); ++b)
                digest += runIdealMachine(bench.trace(b), config).cycles;
            return digest;
        });
    };
    models.push_back(idealModel("ideal_novp_span", novp_config));
    models.push_back(idealModel("ideal_span", ideal_config));
    const std::uint64_t ideal_span_digest = models.back().cyclesDigest;

    // Streaming phase: the same ideal-machine sweep, but fed from v3
    // files through the bounded-memory StreamingTraceSource instead of
    // the materialized spans — the cost of block decode, measured
    // against ideal_span above. The digest must match the in-memory
    // path exactly, and with --mem-budget set the phase's peak RSS
    // must stay under it (note the budget must also cover the
    // materialized captures the harness itself holds).
    {
        const char *tmp = std::getenv("TMPDIR");
        const std::string v3_stem =
            std::string(tmp ? tmp : "/tmp") + "/vpsim-perf-v3-" +
            std::to_string(::getpid()) + "-";
        std::vector<std::string> v3_paths;
        for (std::size_t b = 0; b < bench.size(); ++b) {
            v3_paths.push_back(v3_stem + bench.names[b] + ".vptrace");
            fatalIf(!writeTraceV3(v3_paths[b], bench.trace(b)).isOk(),
                    "cannot write v3 copy of " + bench.names[b]);
        }
        const std::uint64_t mem_budget_bytes =
            static_cast<std::uint64_t>(options.getInt("mem-budget"))
            << 20;
        models.push_back(measureModel(
            "ideal_span_streaming_v3", total_insts, repeats, sampler,
            [&] {
                std::uint64_t digest = 0;
                for (std::size_t b = 0; b < bench.size(); ++b) {
                    StreamingTraceSource source;
                    fatalIf(!source.open(v3_paths[b]).isOk(),
                            "cannot stream " + v3_paths[b]);
                    digest +=
                        runIdealMachine(source, ideal_config).cycles;
                    fatalIf(!source.status().isOk(),
                            "streaming " + bench.names[b] +
                                " failed: " +
                                source.status().message());
                }
                return digest;
            }));
        for (const std::string &v3_path : v3_paths)
            std::remove(v3_path.c_str());
        const ModelMeasurement &streamed = models.back();
        fatalIf(streamed.cyclesDigest != ideal_span_digest,
                "streaming v3 path diverged from the in-memory span "
                "path");
        fatalIf(mem_budget_bytes != 0 &&
                    streamed.peakRssBytes > mem_budget_bytes,
                "streaming phase peak RSS exceeds --mem-budget");
    }

    models.push_back(measureModel(
        "reference_ideal", total_insts, repeats, sampler, [&] {
            std::uint64_t digest = 0;
            for (std::size_t b = 0; b < bench.size(); ++b) {
                digest += runReferenceIdealMachine(bench.trace(b),
                                                   ideal_config)
                              .cycles;
            }
            return digest;
        }));

    PipelineConfig pipe_seq;
    pipe_seq.useValuePrediction = true;
    models.push_back(measureModel(
        "pipeline_sequential", total_insts, repeats, sampler, [&] {
            std::uint64_t digest = 0;
            for (std::size_t b = 0; b < bench.size(); ++b) {
                digest +=
                    runPipelineMachine(bench.trace(b), pipe_seq).cycles;
            }
            return digest;
        }));

    PipelineConfig pipe_tc = pipe_seq;
    pipe_tc.frontEnd = FrontEndKind::TraceCache;
    models.push_back(measureModel(
        "pipeline_trace_cache", total_insts, repeats, sampler, [&] {
            std::uint64_t digest = 0;
            for (std::size_t b = 0; b < bench.size(); ++b) {
                digest +=
                    runPipelineMachine(bench.trace(b), pipe_tc).cycles;
            }
            return digest;
        }));

    writeJson(stdout, options, bench, total_insts, repeats, models);
    const std::string out_path = options.getString("out");
    if (!out_path.empty()) {
        std::FILE *out = std::fopen(out_path.c_str(), "w");
        fatalIf(out == nullptr,
                "cannot open --out file " + out_path);
        writeJson(out, options, bench, total_insts, repeats, models);
        std::fclose(out);
    }
    return 0;
}
