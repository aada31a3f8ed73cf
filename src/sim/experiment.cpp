#include "sim/experiment.hpp"

#include <algorithm>
#include <cstdio>

#include "common/logging.hpp"
#include "core/speedup.hpp"
#include "sim/run_manifest.hpp"
#include "sim/sim_runner.hpp"
#include "trace/trace_stats.hpp"
#include "workloads/workload.hpp"

namespace vpsim
{

void
declareRunnerOptions(Options &options)
{
    options.declare("jobs", "0",
                    "worker threads for the simulation grid "
                    "(0 = hardware concurrency; 1 = serial)");
    options.declare("stats", "0",
                    "dump the experiment runtime's stats registry to "
                    "stderr");
    options.declare("keep-going", "0",
                    "record failing jobs (cells become NaN) and finish "
                    "the sweep instead of aborting on the first error");
    options.declare("fleet-workers", "0",
                    "run grid cells in N forked worker processes "
                    "(crash and hang isolation, bit-identical results; "
                    "0 = the --jobs thread pool)");
    options.declare("result-store", "",
                    "directory of content-addressed result files: "
                    "finished grid cells are published here when a grid "
                    "completes or SIGINT/SIGTERM interrupts it (process "
                    "mode without one uses a private temporary store)");
    options.declare("resume", "0",
                    "reuse finished cells already present in "
                    "--result-store instead of starting fresh");
    options.declare("fault-inject", "",
                    "deterministic I/O fault spec, e.g. "
                    "write:3:torn,read:2:eio,job:5:sigint "
                    "(testing only; results stay byte-identical)");
    options.declare("check-invariants", "cheap",
                    "self-check level: off, cheap (always-on O(1) "
                    "audits) or full (deep per-cycle model audits)");
    options.declare("cross-check", "0",
                    "re-simulate N deterministically sampled grid cells "
                    "on the naive golden-reference model and fail on "
                    "divergence (0 = off)");
    options.declare("job-timeout", "0",
                    "seconds without simulation progress before a job "
                    "is canceled, or its worker process killed (cell "
                    "becomes a timeout NaN; 0 = off)");
    options.declare("mem-budget", "0",
                    "soft process-RSS budget in MB: warns once when a "
                    "trace capture leaves the process above it "
                    "(0 = unlimited)");

    // Bad option *combinations* should fail at parse time with a usage
    // hint, not forty minutes into a sweep.
    options.addValidator([](const Options &parsed) -> std::string {
        if (parsed.getBool("resume") &&
            parsed.getString("result-store").empty())
            return "--resume 1 requires --result-store DIR (there is no "
                   "store to reload cells from)";
        return "";
    });
    options.addValidator([](const Options &parsed) -> std::string {
        if (parsed.provided("job-timeout") &&
            parsed.getDouble("job-timeout") <= 0.0)
            return "--job-timeout SEC must be positive (omit the "
                   "option to disable the watchdog)";
        return "";
    });
    options.addValidator([](const Options &parsed) -> std::string {
        if (parsed.getInt("cross-check") < 0)
            return "--cross-check N must be >= 0 (N cells re-simulated "
                   "on the reference model)";
        if (parsed.getInt("cross-check") > 0 &&
            !parsed.getString("fault-inject").empty())
            return "--cross-check cannot run under --fault-inject: "
                   "injected faults would report as model divergence";
        return "";
    });
    options.addValidator([](const Options &parsed) -> std::string {
        const std::string level = parsed.getString("check-invariants");
        if (level != "off" && level != "cheap" && level != "full")
            return "--check-invariants expects off, cheap or full, "
                   "got '" + level + "'";
        return "";
    });
    options.addValidator([](const Options &parsed) -> std::string {
        if (parsed.getInt("fleet-workers") < 0)
            return "--fleet-workers N must be >= 0 (0 = thread pool)";
        if (parsed.getInt("mem-budget") < 0)
            return "--mem-budget MB must be >= 0 (0 = unlimited)";
        return "";
    });
}

std::string
resultFingerprint(const Options &options)
{
    // The executor is an execution option too: thread-mode and
    // process-mode runs share one store namespace.
    static const std::vector<std::string> executionOptions = {
        "jobs", "stats", "keep-going", "result-store", "resume",
        "fault-inject", "check-invariants", "cross-check", "job-timeout",
        "mem-budget", "csv", "fleet-workers"};
    return options.fingerprint(executionOptions);
}

void
declareStandardOptions(Options &options, std::uint64_t default_insts)
{
    options.declare("insts", std::to_string(default_insts),
                    "dynamic instructions captured per benchmark");
    options.declare("benchmarks", "",
                    "comma-separated benchmark subset (default: all 8)");
    options.declare("scale", "1",
                    "workload input-set scale factor (SPEC-style "
                    "test/train/ref sizing)");
    options.declare("seed", "0", "workload input-data seed");
    options.declare("skip", "0",
                    "warm-up instructions to execute and discard before "
                    "the measured window");
    declareRunnerOptions(options);
}

void
declareCsvOption(Options &options)
{
    options.declare("csv", "",
                    "append the figure data to this CSV file "
                    "(figure,benchmark,configuration,value)");
}

void
declarePredictorOption(Options &options,
                       const std::string &default_kind)
{
    options.declare("predictor", default_kind,
                    "value predictor kind: last-value / stride / "
                    "2-delta / hybrid / fcm");
}

void
validateBenchmarkNames(const std::vector<std::string> &names)
{
    const std::vector<std::string> &valid = workloadNames();
    for (const std::string &name : names) {
        if (std::find(valid.begin(), valid.end(), name) != valid.end())
            continue;
        std::string message =
            "unknown benchmark '" + name + "'; valid names:";
        for (const std::string &known : valid)
            message += " " + known;
        fatal(message);
    }
}

BenchmarkTraces
captureBenchmarks(const Options &options)
{
    const std::uint64_t insts =
        static_cast<std::uint64_t>(options.getInt("insts"));
    fatalIf(insts == 0, "--insts must be positive");
    SimRunner runner(options);
    return runner.captureBenchmarks();
}

std::string
renderFigureTable(const std::string &title,
                  const std::vector<std::string> &row_names,
                  const std::vector<std::string> &column_names,
                  const std::vector<std::vector<double>> &cells,
                  const std::function<std::string(double)> &render)
{
    panicIf(cells.size() != row_names.size(),
            "figure table row count mismatch");

    std::vector<std::string> header;
    header.push_back("benchmark");
    header.insert(header.end(), column_names.begin(), column_names.end());
    TablePrinter table(title, header);

    for (std::size_t row = 0; row < row_names.size(); ++row) {
        panicIf(cells[row].size() != column_names.size(),
                "figure table column count mismatch");
        std::vector<std::string> line;
        line.push_back(row_names[row]);
        for (const double value : cells[row])
            line.push_back(render(value));
        table.addRow(line);
    }

    // Average row, per column, as in the paper's "avg" bars.
    table.addSeparator();
    std::vector<std::string> avg_line;
    avg_line.push_back("avg");
    for (std::size_t col = 0; col < column_names.size(); ++col) {
        std::vector<double> column;
        for (std::size_t row = 0; row < row_names.size(); ++row)
            column.push_back(cells[row][col]);
        avg_line.push_back(render(arithmeticMean(column)));
    }
    table.addRow(avg_line);

    return table.render();
}

void
maybeWriteCsv(const Options &options, const std::string &figure_id,
              const std::vector<std::string> &row_names,
              const std::vector<std::string> &column_names,
              const std::vector<std::vector<double>> &cells)
{
    const std::string path = options.getString("csv");
    if (path.empty())
        return;
    std::FILE *file = std::fopen(path.c_str(), "a");
    fatalIf(!file, "cannot open CSV file " + path);
    for (std::size_t row = 0; row < row_names.size(); ++row) {
        for (std::size_t col = 0; col < column_names.size(); ++col) {
            std::fprintf(file, "%s,%s,%s,%.9g\n", figure_id.c_str(),
                         row_names[row].c_str(),
                         column_names[col].c_str(), cells[row][col]);
        }
    }
    std::fclose(file);
    std::fprintf(stderr, "appended %zu rows to %s\n",
                 row_names.size() * column_names.size(), path.c_str());
    // Provenance sidecar: every CSV ships with a signed manifest
    // (run_manifest.hpp) so figures can be traced back to the exact
    // experiment and source revision that produced them.
    writeRunManifest(options, path);
}

std::vector<std::vector<double>>
gridValues(const std::vector<std::vector<double>> &cells, std::size_t width,
           std::size_t k)
{
    std::vector<std::vector<double>> plane;
    plane.reserve(cells.size());
    for (const std::vector<double> &row : cells) {
        std::vector<double> &values = plane.emplace_back();
        for (std::size_t at = k; at < row.size(); at += width)
            values.push_back(row[at]);
    }
    return plane;
}

std::string
renderPercentTable(const std::string &title,
                   const std::vector<std::string> &row_names,
                   const std::vector<std::string> &column_names,
                   const std::vector<std::vector<double>> &cells)
{
    return renderFigureTable(
        title, row_names, column_names, cells,
        [](double value) { return TablePrinter::percentCell(value); });
}

} // namespace vpsim
