/**
 * @file
 * Figure 3.1 — "The effect of instruction-fetch rate in an ideal
 * execution environment."
 *
 * For each benchmark and each fetch/issue rate in {4, 8, 16, 32, 40},
 * run the ideal machine (window 40, infinite stride predictor with 2-bit
 * classification, speculative update) with and without value prediction
 * and report the speedup contributed by value prediction alone.
 *
 * Paper reference (averages): BW=4 ~0%, BW=8 ~8%, BW=16 ~33%,
 * BW=32 ~70%, BW=40 ~80%; m88ksim moves 4% -> 112% and vortex
 * 1.5% -> 83% between BW=4 and BW=16.
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
    declareStandardOptions(options, 400000);
    declareCsvOption(options);
    declarePredictorOption(options);
    options.parse(argc, argv,
                  "Figure 3.1: VP speedup vs fetch rate, ideal machine");
    SimRunner runner(options);
    const BenchmarkTraces bench = runner.captureBenchmarks();
    const PredictorKind predictor =
        predictorKindFromString(options.getString("predictor"));

    const std::vector<unsigned> rates = {4, 8, 16, 32, 40};
    std::vector<std::string> columns;
    for (const unsigned rate : rates)
        columns.push_back("BW=" + std::to_string(rate));

    const auto pointConfig = [&](std::size_t col) {
        IdealMachineConfig config;
        config.fetchRate = rates[col];
        config.predictorKind = predictor;
        return config;
    };
    const auto gains = runner.runGrid(
        bench.size(), rates.size(),
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
                   "Figure 3.1 - value prediction speedup on the ideal "
                   "machine (window=40, stride predictor)",
                   bench.names, columns, gains)
                   .c_str(),
               stdout);
    std::puts("\npaper reference (avg): BW=4 ~0%, BW=8 8%, BW=16 33%, "
              "BW=32 70%, BW=40 80%");
    maybeWriteCsv(options, "fig3.1", bench.names, columns, gains);
    runner.reportStats();
    return 0;
}
