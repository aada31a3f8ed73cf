/**
 * @file
 * Ablation — decode/issue width vs taken-branch limit.
 *
 * The paper fixes the decode/issue width at 40 and varies only the
 * taken-branch limit. This sweep crosses both: VP speedup for issue
 * widths 8/16/40 at 1 and 4 taken branches per cycle (perfect branch
 * prediction). It shows the two bandwidth knobs are complementary: a
 * narrow machine cannot exploit multi-branch fetch, and a wide machine
 * is wasted on single-branch fetch.
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
    declareStandardOptions(options, 120000);
    options.parse(argc, argv,
                  "ablation: issue width x taken-branch limit");
    SimRunner runner(options);
    const BenchmarkTraces bench = runner.captureBenchmarks();

    const std::vector<unsigned> widths = {8, 16, 40};
    const std::vector<unsigned> takens = {1, 4};

    // Grid rows = (width, taken) pairs, columns = benchmarks; the
    // per-configuration averages below reduce each row.
    const auto gains = runner.runGrid(
        widths.size() * takens.size(), bench.size(),
        [&](std::size_t row, std::size_t col) {
            PipelineConfig config;
            config.issueWidth = widths[row / takens.size()];
            config.maxTakenBranches = takens[row % takens.size()];
            return pipelineVpSpeedup(bench.trace(col), config) - 1.0;
        });

    TablePrinter table(
        "Issue-width x taken-branch ablation (average VP speedup, "
        "perfect branch prediction)",
        {"issue width", "n=1 taken", "n=4 taken"});
    for (std::size_t w = 0; w < widths.size(); ++w) {
        std::vector<std::string> row = {std::to_string(widths[w])};
        for (std::size_t t = 0; t < takens.size(); ++t) {
            row.push_back(TablePrinter::percentCell(
                arithmeticMean(gains[w * takens.size() + t])));
        }
        table.addRow(row);
    }
    std::fputs(table.render().c_str(), stdout);
    std::puts("\ntakeaway: fetch bandwidth (taken branches) and machine "
              "width move together; the paper's width-40 machine is "
              "what lets the n=4 fetch rate matter");
    runner.reportStats();
    return 0;
}
