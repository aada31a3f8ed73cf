/**
 * @file
 * Ablation — the fraction of CORRECT predictions that are USEFUL.
 *
 * The paper's Section 3 mechanism, measured head-on: "there are a
 * significant number of cases where the dependent instructions are
 * fetched too late ... even though the predictor yields a correct
 * prediction, the prediction becomes useless." For each benchmark and
 * fetch rate this prints useful/correct — the fraction of correct
 * predictions that actually removed a stall. At 4-wide fetch most
 * correct predictions die useless; wide fetch is what turns prediction
 * accuracy into speedup.
 */

#include <cstdio>

#include "core/ideal_machine.hpp"
#include "sim/sim_runner.hpp"

int
main(int argc, char **argv)
{
    using namespace vpsim;

    Options options;
    declareStandardOptions(options, 200000);
    declareCsvOption(options);
    options.parse(argc, argv,
                  "ablation: useful fraction of correct predictions");
    SimRunner runner(options);
    const BenchmarkTraces bench = runner.captureBenchmarks();

    // Stalling uses per 1000 instructions on the NO-VP machine: the
    // dependences a value predictor could possibly remove. This is the
    // paper's Section 3 mechanism measured directly, and it grows with
    // fetch bandwidth: at 4-wide most operands are computed before the
    // consumer could issue anyway.
    const std::vector<unsigned> rates = {4, 8, 16, 40};
    std::vector<std::string> columns;
    for (const unsigned rate : rates)
        columns.push_back("BW=" + std::to_string(rate));

    const auto per_k = runner.runGrid(
        bench.size(), rates.size(),
        [&](std::size_t row, std::size_t col) {
            IdealMachineConfig config;
            config.fetchRate = rates[col];
            config.useValuePrediction = false;
            const IdealMachineResult run =
                runIdealMachine(bench.trace(row), config);
            return 1000.0 * static_cast<double>(run.stallingUses) /
                static_cast<double>(run.instructions);
        });

    std::fputs(renderFigureTable(
                   "Stalling operand uses per 1000 instructions "
                   "(no-VP ideal machine) - the predictor's addressable "
                   "market",
                   bench.names, columns, per_k,
                   [](double v) {
                       return TablePrinter::numberCell(v, 1);
                   })
                   .c_str(),
               stdout);
    maybeWriteCsv(options, "ablation.useful", bench.names, columns,
                  per_k);
    std::puts("\npaper section 3: a prediction only helps when the "
              "dependent would otherwise wait; the number of such "
              "stalling dependences - the predictor's addressable "
              "market - is what wide fetch creates");
    runner.reportStats();
    return 0;
}
