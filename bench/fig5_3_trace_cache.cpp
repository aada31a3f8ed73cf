/**
 * @file
 * Figure 5.3 — "Value prediction speedup when using a trace cache."
 *
 * The Section 5 machine fed by a trace cache (64 entries, direct mapped,
 * lines of up to 32 instructions / 6 basic blocks, as in Rotenberg et
 * al.), once with an ideal branch predictor and once with the 2-level
 * PAp BTB. Speedup is VP on vs VP off on the same machine.
 *
 * Paper reference: >10% average VP speedup with the 2-level BTB and just
 * under 40% average with the ideal BTB; the gap shows the BTB's accuracy
 * throttles how much of the trace cache's bandwidth VP can exploit.
 */

#include <cstdio>

#include "core/pipeline_machine.hpp"
#include "core/reference_machine.hpp"
#include "core/speedup.hpp"
#include "sim/sim_runner.hpp"

int
main(int argc, char **argv)
{
    using namespace vpsim;

    Options options;
    declareStandardOptions(options, 200000);
    declareCsvOption(options);
    options.parse(argc, argv,
                  "Figure 5.3: VP speedup with a trace cache");
    SimRunner runner(options);
    const BenchmarkTraces bench = runner.captureBenchmarks();

    const std::vector<std::string> columns = {"TC+2levelBTB",
                                              "TC+idealBTB"};
    // One cell per (benchmark, BTB): the VP gain and the trace cache
    // hit rate of the VP-on run. The reference pipeline recomputes both
    // values of a sampled cell.
    const auto cell = [&](PipelineMachineFn run, std::size_t row,
                          std::size_t col, std::span<double> out) {
        PipelineConfig config;
        config.frontEnd = FrontEndKind::TraceCache;
        config.perfectBranchPredictor = col == 1;
        const PipelineResult off = run(bench.trace(row), config);
        config.useValuePrediction = true;
        const PipelineResult on = run(bench.trace(row), config);
        out[0] = vpSpeedup(off.cycles, on.cycles) - 1.0;
        out[1] = on.tcHitRate;
    };
    const auto cells = runner.runGrid(
        bench.size(), columns.size(), 2,
        [&](std::size_t row, std::size_t col, std::span<double> out) {
            cell(runPipelineMachine, row, col, out);
        },
        [&](std::size_t row, std::size_t col, std::span<double> out) {
            cell(runReferencePipelineMachine, row, col, out);
        });
    const auto gains = gridValues(cells, 2, 0);
    const auto hit_rates = gridValues(cells, 2, 1);

    std::fputs(renderPercentTable(
                   "Figure 5.3 - VP speedup with a trace cache "
                   "(64 entries, direct mapped, <=32 insts / <=6 BBs "
                   "per line)",
                   bench.names, columns, gains)
                   .c_str(),
               stdout);
    std::fputs(renderPercentTable("\ntrace cache hit rate", bench.names,
                                  columns, hit_rates)
                   .c_str(),
               stdout);
    std::puts("\npaper reference (avg): >10% with the 2-level BTB, "
              "<40% with an ideal BTB");
    maybeWriteCsv(options, "fig5.3", bench.names, columns, gains);
    maybeWriteCsv(options, "fig5.3.tc_hit_rate", bench.names, columns,
                  hit_rates);
    runner.reportStats();
    return 0;
}
