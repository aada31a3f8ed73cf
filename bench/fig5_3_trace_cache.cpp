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
#include "sim/sim_runner.hpp"

int
main(int argc, char **argv)
{
    using namespace vpsim;

    Options options;
    declareStandardOptions(options, 200000);
    options.parse(argc, argv,
                  "Figure 5.3: VP speedup with a trace cache");
    SimRunner runner(options);
    const BenchmarkTraces bench = runner.captureBenchmarks();

    const std::vector<std::string> columns = {"TC+2levelBTB",
                                              "TC+idealBTB"};
    // Each (benchmark, BTB) job owns one gains and one hit-rate cell.
    std::vector<std::vector<double>> gains = unsetCells(bench.size(), 2);
    std::vector<std::vector<double>> hit_rates = unsetCells(bench.size(), 2);
    std::vector<SimJob> batch;
    for (std::size_t i = 0; i < bench.size(); ++i) {
        for (std::size_t col = 0; col < 2; ++col) {
            batch.push_back(
                {bench.names[i] + ":" + columns[col], [&, i, col] {
                     PipelineConfig config;
                     config.frontEnd = FrontEndKind::TraceCache;
                     config.perfectBranchPredictor = col == 1;
                     gains[i][col] =
                         pipelineVpSpeedup(bench.trace(i), config) - 1.0;

                     PipelineConfig probe = config;
                     probe.useValuePrediction = true;
                     hit_rates[i][col] =
                         runPipelineMachine(bench.trace(i), probe)
                             .tcHitRate;
                 }});
        }
    }
    runner.run(std::move(batch));

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
