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

    // One job per (front end, benchmark); each owns the base-IPC,
    // VP-IPC and gain cells for that pair.
    const std::size_t n_fes = front_ends.size();
    std::vector<std::vector<double>> base = unsetCells(n_fes, bench.size());
    std::vector<std::vector<double>> vp = unsetCells(n_fes, bench.size());
    std::vector<std::vector<double>> gain = unsetCells(n_fes, bench.size());
    std::vector<SimJob> batch;
    for (std::size_t f = 0; f < n_fes; ++f) {
        for (std::size_t i = 0; i < bench.size(); ++i) {
            batch.push_back(
                {front_ends[f].label + ":" + bench.names[i],
                 [&, f, i] {
                     PipelineConfig off = front_ends[f].config;
                     off.useValuePrediction = false;
                     PipelineConfig on = front_ends[f].config;
                     on.useValuePrediction = true;
                     const PipelineResult r_off =
                         runPipelineMachine(bench.trace(i), off);
                     const PipelineResult r_on =
                         runPipelineMachine(bench.trace(i), on);
                     base[f][i] = r_off.ipc;
                     vp[f][i] = r_on.ipc;
                     gain[f][i] = static_cast<double>(r_off.cycles) /
                             static_cast<double>(r_on.cycles) -
                         1.0;
                 }});
        }
    }
    runner.run(std::move(batch));

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
