/**
 * @file
 * Figure 5.1 — "Value prediction speedup when using an ideal BTB."
 *
 * The Section 5 machine (window 40, 40 FUs, issue width 40, branch
 * mispredict penalty 3, value mispredict penalty 1, stride predictor
 * with 2-bit classification) with a PERFECT branch predictor and a fetch
 * engine that can cross up to n taken branches per cycle,
 * n in {1, 2, 3, 4, unlimited}. Speedup is VP on vs VP off on the same
 * machine.
 *
 * Paper reference (averages): n=1 ~3%, rising to ~50% at n=4.
 */

#include <cstdio>

#include "core/pipeline_machine.hpp"
#include "core/reference_machine.hpp"
#include "sim/sim_runner.hpp"

int
main(int argc, char **argv)
{
    using namespace vpsim;

    Options options;
    declareStandardOptions(options, 200000);
    declareCsvOption(options);
    options.parse(argc, argv,
                  "Figure 5.1: VP speedup vs taken branches/cycle, "
                  "perfect branch prediction");
    SimRunner runner(options);
    const BenchmarkTraces bench = runner.captureBenchmarks();

    const std::vector<unsigned> taken_limits = {1, 2, 3, 4, 0};
    std::vector<std::string> columns = {"n=1", "n=2", "n=3", "n=4",
                                        "unlimited"};

    const auto pointConfig = [&](std::size_t col) {
        PipelineConfig config;
        config.frontEnd = FrontEndKind::Sequential;
        config.maxTakenBranches = taken_limits[col];
        config.perfectBranchPredictor = true;
        return config;
    };
    const auto gains = runner.runGrid(
        bench.size(), taken_limits.size(),
        [&](std::size_t row, std::size_t col) {
            return pipelineVpSpeedup(bench.trace(row), pointConfig(col)) -
                   1.0;
        },
        [&](std::size_t row, std::size_t col) {
            return referencePipelineVpSpeedup(bench.trace(row),
                                              pointConfig(col)) -
                   1.0;
        });

    std::fputs(renderPercentTable(
                   "Figure 5.1 - VP speedup vs max taken branches per "
                   "cycle (ideal BTB)",
                   bench.names, columns, gains)
                   .c_str(),
               stdout);
    std::puts("\npaper reference (avg): ~3% at n=1, ~50% at n=4");
    maybeWriteCsv(options, "fig5.1", bench.names, columns, gains);
    runner.reportStats();
    return 0;
}
