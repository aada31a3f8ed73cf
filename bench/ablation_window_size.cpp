/**
 * @file
 * Ablation — sensitivity of Figure 3.1 to the instruction window size.
 *
 * The paper fixes the window at 40 entries (§3.1). This bench re-runs
 * the BW=40 point of Figure 3.1 with windows of 16..256 entries. With
 * tiny windows the machine cannot keep enough iterations in flight for
 * value prediction to matter; at larger windows the picture is
 * two-sided, because the baseline machine also mines more ILP from the
 * window and every wrong speculation shows up on the now-tighter
 * critical path.
 */

#include <cstdio>

#include "core/ideal_machine.hpp"
#include "core/reference_machine.hpp"
#include "predictor/factory.hpp"
#include "sim/sim_runner.hpp"

int
main(int argc, char **argv)
{
    using namespace vpsim;

    Options options;
    declareStandardOptions(options, 200000);
    declareCsvOption(options);
    declarePredictorOption(options);
    options.parse(argc, argv,
                  "ablation: Figure 3.1 vs instruction window size");
    SimRunner runner(options);
    const BenchmarkTraces bench = runner.captureBenchmarks();
    const PredictorKind predictor =
        predictorKindFromString(options.getString("predictor"));

    const std::vector<unsigned> windows = {16, 40, 64, 128, 256};
    std::vector<std::string> columns;
    for (const unsigned window : windows)
        columns.push_back("W=" + std::to_string(window));

    const auto pointConfig = [&](std::size_t col) {
        IdealMachineConfig config;
        config.fetchRate = 40;
        config.windowSize = windows[col];
        config.predictorKind = predictor;
        return config;
    };
    const auto gains = runner.runGrid(
        bench.size(), windows.size(),
        [&](std::size_t row, std::size_t col) {
            return idealVpSpeedup(bench.trace(row), pointConfig(col)) -
                   1.0;
        },
        [&](std::size_t row, std::size_t col) {
            return referenceIdealVpSpeedup(bench.trace(row),
                                           pointConfig(col)) -
                   1.0;
        });

    std::fputs(renderPercentTable(
                   "Window-size ablation - VP speedup on the ideal "
                   "machine at BW=40",
                   bench.names, columns, gains)
                   .c_str(),
               stdout);
    std::puts("\ntakeaway: window scaling is NON-monotone per "
              "benchmark: a larger window also speeds the no-VP "
              "baseline and exposes more wrong speculations to the "
              "1-cycle penalty; only the 16 -> 256 average trend is "
              "robustly upward");
    maybeWriteCsv(options, "ablation.window_size", bench.names, columns,
                  gains);
    runner.reportStats();
    return 0;
}
