/**
 * @file
 * Figure 3.5 — "The distribution of data dependencies according to their
 * value predictability and DID."
 *
 * Every dependence arc is classified by whether an infinite stride
 * predictor got the producer's value right at that dynamic instance;
 * predictable arcs are split by DID (1 / 2 / 3 / >=4).
 *
 * Paper reference: ~23% of dependencies (avg) are predictable with
 * DID < 4 (exploitable by a 4-wide machine); the predictable DID >= 4
 * fraction is ~40% for m88ksim and >55% for vortex versus ~20-25% for
 * the rest, which is why those two gain most from wider fetch.
 */

#include <cstdio>

#include "analysis/predictability.hpp"
#include "sim/sim_runner.hpp"

int
main(int argc, char **argv)
{
    using namespace vpsim;

    Options options;
    declareStandardOptions(options, 1000000);
    declareCsvOption(options);
    options.parse(argc, argv,
                  "Figure 3.5: predictability x DID distribution");
    SimRunner runner(options);
    const BenchmarkTraces bench = runner.captureBenchmarks();

    const std::vector<std::string> columns = {
        "unpredictable", "pred DID=1", "pred DID=2", "pred DID=3",
        "pred DID>=4",
    };
    // One cell per benchmark: a single analysis pass fills the row.
    const auto cells = runner.runGrid(
        bench.size(), 1, columns.size(),
        [&](std::size_t row, std::size_t, std::span<double> out) {
            const PredictabilityAnalysis pa =
                analyzePredictability(bench.trace(row));
            out[0] = pa.fracUnpredictable;
            out[1] = pa.fracPredictableDid1;
            out[2] = pa.fracPredictableDid2;
            out[3] = pa.fracPredictableDid3;
            out[4] = pa.fracPredictableDid4Plus;
        });

    std::fputs(renderPercentTable(
                   "Figure 3.5 - dependencies by value predictability "
                   "and DID (infinite stride table)",
                   bench.names, columns, cells)
                   .c_str(),
               stdout);
    std::puts("\npaper reference: ~23% (avg) predictable with DID < 4; "
              "m88ksim ~40% and vortex >55% predictable with DID >= 4");
    maybeWriteCsv(options, "fig3.5", bench.names, columns, cells);
    runner.reportStats();
    return 0;
}
