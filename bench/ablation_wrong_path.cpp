/**
 * @file
 * Ablation — wrong-path fetch (a fidelity knob beyond the paper).
 *
 * The paper's (and this repo's default) trace-driven front end stalls on
 * a branch misprediction; a real machine keeps fetching down the
 * predicted path, filling the window with doomed instructions and
 * polluting the value predictor's speculative state until the branch
 * resolves. This bench re-runs the Figure 5.2 configuration (2-level
 * PAp BTB) with wrong-path modelling on and off, and reports how much
 * of the VP speedup the pollution costs — closing part of the gap
 * between our Figure 5.2 and the paper's (see EXPERIMENTS.md).
 */

#include <cstdio>

#include "common/table_printer.hpp"
#include "core/pipeline_machine.hpp"
#include "core/speedup.hpp"
#include "sim/sim_runner.hpp"
#include "workloads/workload.hpp"

int
main(int argc, char **argv)
{
    using namespace vpsim;

    Options options;
    declareStandardOptions(options, 120000);
    options.parse(argc, argv,
                  "ablation: wrong-path fetch vs stall-on-mispredict");
    SimRunner runner(options);
    const BenchmarkTraces bench = runner.captureBenchmarks();
    const auto insts =
        static_cast<std::uint64_t>(options.getInt("insts"));

    // One job per benchmark; each rebuilds its workload (for the
    // wrong-path program image) and owns the three cells of its row.
    std::vector<double> stall(bench.size(), unsetCell);
    std::vector<double> wrong_path(bench.size(), unsetCell);
    std::vector<double> wp_per_k(bench.size(), unsetCell);
    std::vector<SimJob> batch;
    for (std::size_t i = 0; i < bench.size(); ++i) {
        batch.push_back({"wrong-path:" + bench.names[i], [&, i] {
            Workload workload = buildWorkload(bench.names[i]);
            PipelineConfig config;
            config.perfectBranchPredictor = false;
            config.maxTakenBranches = 4;
            stall[i] = pipelineVpSpeedup(bench.trace(i), config) - 1.0;

            config.modelWrongPath = true;
            config.program = &workload.program;
            wrong_path[i] =
                pipelineVpSpeedup(bench.trace(i), config) - 1.0;

            PipelineConfig probe = config;
            probe.useValuePrediction = true;
            const PipelineResult run =
                runPipelineMachine(bench.trace(i), probe);
            wp_per_k[i] = 1000.0 *
                static_cast<double>(run.wrongPathFetched) /
                static_cast<double>(insts);
        }});
    }
    runner.run(std::move(batch));

    TablePrinter table(
        "Wrong-path ablation - VP speedup with the 2-level BTB, "
        "4 taken branches/cycle",
        {"benchmark", "stall (default)", "wrong-path modelled",
         "wrong-path insts/1k"});
    for (std::size_t i = 0; i < bench.size(); ++i) {
        table.addRow({bench.names[i],
                      TablePrinter::percentCell(stall[i]),
                      TablePrinter::percentCell(wrong_path[i]),
                      TablePrinter::numberCell(wp_per_k[i], 1)});
    }
    table.addSeparator();
    table.addRow({"avg", TablePrinter::percentCell(arithmeticMean(stall)),
                  TablePrinter::percentCell(arithmeticMean(wrong_path)),
                  "-"});

    std::fputs(table.render().c_str(), stdout);
    std::puts("\ntakeaway: wrong-path bubbles shave the realistic-BTB "
              "VP speedup further below the ideal-BTB numbers, in the "
              "direction of the paper's ~30% gap");
    runner.reportStats();
    return 0;
}
