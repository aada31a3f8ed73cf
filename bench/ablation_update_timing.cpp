/**
 * @file
 * Ablation — value-predictor update timing (a methodology finding of
 * this reproduction, not an experiment in the paper).
 *
 * The paper's trace-driven simulator consults the predictor with
 * coherent sequential state (update at dispatch, in program order). A
 * real pipeline trains at retire: lookups then read state that lags by
 * the in-flight window, which floods short-period value patterns with
 * confident mispredictions. This bench quantifies the gap on the
 * Section 5 machine and shows it widens with fetch bandwidth — at
 * higher bandwidth more copies are in flight, so the stale-state
 * problem the paper's Section 4 hardware ultimately has to solve (via
 * speculative update and in-flight repair) gets worse.
 */

#include <cstdio>

#include "common/table_printer.hpp"
#include "core/pipeline_machine.hpp"
#include "core/speedup.hpp"
#include "sim/sim_runner.hpp"

int
main(int argc, char **argv)
{
    using namespace vpsim;

    Options options;
    declareStandardOptions(options, 150000);
    options.parse(argc, argv,
                  "ablation: dispatch-time vs retire-time predictor "
                  "update");
    SimRunner runner(options);
    const BenchmarkTraces bench = runner.captureBenchmarks();

    const std::vector<unsigned> taken_limits = {1, 4, 0};

    // One cell per (limit, benchmark) carrying the gain with
    // dispatch-time and with retire-time predictor update.
    const auto cells = runner.runGrid(
        taken_limits.size(), bench.size(), 2,
        [&](std::size_t row, std::size_t col, std::span<double> out) {
            PipelineConfig config;
            config.perfectBranchPredictor = true;
            config.maxTakenBranches = taken_limits[row];
            config.vpUpdateTiming = VpUpdateTiming::Dispatch;
            out[0] = pipelineVpSpeedup(bench.trace(col), config) - 1.0;
            config.vpUpdateTiming = VpUpdateTiming::Retire;
            out[1] = pipelineVpSpeedup(bench.trace(col), config) - 1.0;
        });
    const auto dispatch = gridValues(cells, 2, 0);
    const auto retire = gridValues(cells, 2, 1);

    TablePrinter table(
        "Predictor update timing (VP speedup, averages over the "
        "benchmarks; perfect branch prediction)",
        {"max taken/cycle", "update at dispatch", "update at retire",
         "gap"});
    for (std::size_t l = 0; l < taken_limits.size(); ++l) {
        const double dispatch_avg = arithmeticMean(dispatch[l]);
        const double retire_avg = arithmeticMean(retire[l]);
        table.addRow({taken_limits[l] == 0
                          ? "unlimited"
                          : std::to_string(taken_limits[l]),
                      TablePrinter::percentCell(dispatch_avg),
                      TablePrinter::percentCell(retire_avg),
                      TablePrinter::percentCell(dispatch_avg -
                                                retire_avg)});
    }

    std::fputs(table.render().c_str(), stdout);
    std::puts("\ntakeaway: realistic (retire-time) update costs a large "
              "share of the headline speedup, and the loss grows with "
              "fetch bandwidth - exactly the regime the paper targets - "
              "so the speculative-update machinery of Sections 3.1/4 is "
              "load-bearing, not an implementation detail");
    runner.reportStats();
    return 0;
}
