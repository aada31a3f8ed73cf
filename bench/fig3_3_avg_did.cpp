/**
 * @file
 * Figure 3.3 — "Average DID measurements."
 *
 * Builds the trace-wide dataflow graph of every benchmark (register
 * true-data dependencies across basic-block boundaries, Equation 3.1)
 * and reports the arithmetic mean dynamic instruction distance.
 *
 * Paper reference: every benchmark's average DID exceeds the 4-wide
 * fetch bandwidth of then-current processors.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/did.hpp"
#include "common/table_printer.hpp"
#include "core/speedup.hpp"
#include "sim/sim_runner.hpp"

int
main(int argc, char **argv)
{
    using namespace vpsim;

    Options options;
    declareStandardOptions(options, 1000000);
    declareCsvOption(options);
    options.parse(argc, argv, "Figure 3.3: average DID per benchmark");
    SimRunner runner(options);
    const BenchmarkTraces bench = runner.captureBenchmarks();

    // One cell per benchmark carrying its four DID measurements.
    const auto dids = runner.runGrid(
        bench.size(), 1, 4,
        [&](std::size_t row, std::size_t, std::span<double> out) {
            const DidAnalysis did = analyzeDid(bench.trace(row));
            out[0] = did.averageDid;
            out[1] = did.averageDidTrimmed;
            out[2] = static_cast<double>(did.totalArcs);
            out[3] = did.fracDidAtLeast4;
        });

    const std::vector<std::string> columns = {"avg DID", "avg DID (<=256)",
                                              "arcs", "DID>=4"};
    std::vector<std::string> header = {"benchmark"};
    header.insert(header.end(), columns.begin(), columns.end());
    TablePrinter table(
        "Figure 3.3 - average dynamic instruction distance (DID)", header);
    std::vector<double> averages;
    for (std::size_t i = 0; i < bench.size(); ++i) {
        const std::vector<double> &did = dids[i];
        averages.push_back(did[1]);
        table.addRow({bench.names[i], TablePrinter::numberCell(did[0], 1),
                      TablePrinter::numberCell(did[1], 1),
                      TablePrinter::numberCell(did[2], 0),
                      TablePrinter::percentCell(did[3])});
    }
    table.addSeparator();
    table.addRow({"avg", "-",
                  TablePrinter::numberCell(arithmeticMean(averages), 1),
                  "-", "-"});
    std::fputs(table.render().c_str(), stdout);
    std::puts("\npaper reference: all benchmarks have average DID > 4 "
              "(the fetch width of 1998-era processors)");
    maybeWriteCsv(options, "fig3.3", bench.names, columns, dids);
    runner.reportStats();
    return 0;
}
