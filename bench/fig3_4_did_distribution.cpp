/**
 * @file
 * Figure 3.4 — "The distribution of dependencies in a program according
 * to their DID."
 *
 * Histograms every dependence arc of the trace-wide DFG by its dynamic
 * instruction distance.
 *
 * Paper reference: ~60% of true-data dependencies (average) span a
 * distance of 4 or more instructions, which is why a 4-wide machine can
 * exploit so few correct value predictions.
 */

#include <cstdio>

#include "analysis/did.hpp"
#include "sim/sim_runner.hpp"

int
main(int argc, char **argv)
{
    using namespace vpsim;

    Options options;
    declareStandardOptions(options, 1000000);
    declareCsvOption(options);
    options.parse(argc, argv, "Figure 3.4: DID distribution histograms");
    SimRunner runner(options);
    const BenchmarkTraces bench = runner.captureBenchmarks();

    // Column labels come from the histogram's own bucket bounds.
    const Histogram prototype{didHistogramBounds()};
    std::vector<std::string> columns;
    for (std::size_t bucket = 0; bucket < prototype.numBuckets(); ++bucket)
        columns.push_back("DID " + prototype.bucketLabel(bucket));

    // One cell per benchmark: a single DFG walk fills the whole row.
    const auto cells = runner.runGrid(
        bench.size(), 1, columns.size(),
        [&](std::size_t row, std::size_t, std::span<double> out) {
            const DidAnalysis did = analyzeDid(bench.trace(row));
            for (std::size_t bucket = 0; bucket < out.size(); ++bucket)
                out[bucket] = did.distribution.bucketFraction(bucket);
        });

    std::fputs(renderPercentTable(
                   "Figure 3.4 - distribution of dependencies by DID",
                   bench.names, columns, cells)
                   .c_str(),
               stdout);
    std::puts("\npaper reference: ~60% of dependencies (avg) have "
              "DID >= 4");
    maybeWriteCsv(options, "fig3.4", bench.names, columns, cells);
    runner.reportStats();
    return 0;
}
