/**
 * @file
 * Ablation — the §2.2 front-end menagerie under value prediction.
 *
 * The paper surveys four high-bandwidth fetch mechanisms (branch address
 * cache, tree-like subgraph prediction, collapsing buffer, trace cache)
 * and evaluates only the trace cache. This bench lines up the ones this
 * library implements — sequential fetch with 1/2/4/unlimited taken
 * branches, the branch address cache with an interleaved icache, and the
 * trace cache — and reports baseline IPC, IPC with value prediction, and
 * the VP speedup, all with a perfect branch predictor so only the fetch
 * mechanism differs.
 */

#include <cstdio>

#include "common/table_printer.hpp"
#include "core/pipeline_machine.hpp"
#include "core/reference_machine.hpp"
#include "core/speedup.hpp"
#include "sim/sim_runner.hpp"

namespace
{

using namespace vpsim;

struct FrontEnd
{
    std::string label;
    PipelineConfig config;
};

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    declareStandardOptions(options, 150000);
    options.parse(argc, argv,
                  "ablation: fetch mechanisms under value prediction");
    SimRunner runner(options);
    const BenchmarkTraces bench = runner.captureBenchmarks();

    std::vector<FrontEnd> front_ends;
    for (const unsigned taken : {1u, 2u, 4u, 0u}) {
        FrontEnd fe;
        fe.label = taken == 0
            ? "sequential, unlimited taken"
            : "sequential, " + std::to_string(taken) + " taken/cycle";
        fe.config.frontEnd = FrontEndKind::Sequential;
        fe.config.maxTakenBranches = taken;
        front_ends.push_back(fe);
    }
    {
        FrontEnd fe;
        fe.label = "collapsing buffer (2 lines)";
        fe.config.frontEnd = FrontEndKind::CollapsingBuffer;
        front_ends.push_back(fe);
    }
    {
        FrontEnd fe;
        fe.label = "branch address cache (3 blocks)";
        fe.config.frontEnd = FrontEndKind::BranchAddressCache;
        front_ends.push_back(fe);
    }
    {
        FrontEnd fe;
        fe.label = "trace cache (64 x 32i/6BB)";
        fe.config.frontEnd = FrontEndKind::TraceCache;
        front_ends.push_back(fe);
    }
    for (FrontEnd &fe : front_ends)
        fe.config.perfectBranchPredictor = true;

    // One cell per (front end, benchmark) carrying the base IPC, the
    // VP IPC and the gain of that pair. The reference pipeline
    // recomputes all three values of a sampled cell.
    const std::size_t n_fes = front_ends.size();
    const auto cell = [&](PipelineMachineFn run, std::size_t row,
                          std::size_t col, std::span<double> out) {
        PipelineConfig config = front_ends[row].config;
        config.useValuePrediction = false;
        const PipelineResult off = run(bench.trace(col), config);
        config.useValuePrediction = true;
        const PipelineResult on = run(bench.trace(col), config);
        out[0] = off.ipc;
        out[1] = on.ipc;
        out[2] = vpSpeedup(off.cycles, on.cycles) - 1.0;
    };
    const auto cells = runner.runGrid(
        n_fes, bench.size(), 3,
        [&](std::size_t row, std::size_t col, std::span<double> out) {
            cell(runPipelineMachine, row, col, out);
        },
        [&](std::size_t row, std::size_t col, std::span<double> out) {
            cell(runReferencePipelineMachine, row, col, out);
        });
    const auto base = gridValues(cells, 3, 0);
    const auto vp = gridValues(cells, 3, 1);
    const auto gain = gridValues(cells, 3, 2);

    TablePrinter table(
        "Front-end ablation (perfect branch prediction, averages over "
        "the 8 benchmarks)",
        {"front end", "IPC base", "IPC +VP", "VP speedup"});
    for (std::size_t f = 0; f < n_fes; ++f) {
        table.addRow({front_ends[f].label,
                      TablePrinter::numberCell(arithmeticMean(base[f])),
                      TablePrinter::numberCell(arithmeticMean(vp[f])),
                      TablePrinter::percentCell(
                          arithmeticMean(gain[f]))});
    }
    std::fputs(table.render().c_str(), stdout);
    std::puts("\ntakeaway: each step of front-end bandwidth (1 taken -> "
              "multi-block BAC -> trace cache / unlimited) unlocks more "
              "of the value predictor's latent speedup, the paper's "
              "central claim");
    runner.reportStats();
    return 0;
}
