/**
 * @file
 * Section 4.2 ablation — predictor choice and the hybrid's effect on the
 * value distributor.
 *
 * The paper argues for a hybrid predictor (large last-value table +
 * small stride table, after [9]) because merged requests served by the
 * last-value component need no distributor arithmetic. This bench
 * compares last-value / stride / 2-delta / hybrid predictors on the
 * ideal machine (accuracy and speedup at BW=16) and counts the
 * distributor additions each would require behind the banked table.
 */

#include <cstdio>

#include "core/ideal_machine.hpp"
#include "core/pipeline_machine.hpp"
#include "core/speedup.hpp"
#include "common/table_printer.hpp"
#include "sim/sim_runner.hpp"

int
main(int argc, char **argv)
{
    using namespace vpsim;

    Options options;
    declareStandardOptions(options, 200000);
    options.parse(argc, argv,
                  "Section 4.2 ablation: predictor kind comparison");
    SimRunner runner(options);
    const BenchmarkTraces bench = runner.captureBenchmarks();

    const std::vector<std::pair<PredictorKind, std::string>> kinds = {
        {PredictorKind::LastValue, "last-value"},
        {PredictorKind::Stride, "stride"},
        {PredictorKind::TwoDeltaStride, "2-delta"},
        {PredictorKind::Hybrid, "hybrid"},
        {PredictorKind::Fcm, "fcm (order 2)"},
    };

    // One cell per (predictor kind, benchmark) carrying the gain and
    // accuracy of the ideal machine and the distributor adds of the
    // banked table.
    const auto cells = runner.runGrid(
        kinds.size(), bench.size(), 3,
        [&](std::size_t row, std::size_t col, std::span<double> out) {
            const PredictorKind kind = kinds[row].first;
            const auto &trace = bench.trace(col);
            IdealMachineConfig config;
            config.fetchRate = 16;
            config.predictorKind = kind;
            const IdealMachineResult off = runIdealMachine(trace, config);
            config.useValuePrediction = true;
            const IdealMachineResult on = runIdealMachine(trace, config);
            out[0] = vpSpeedup(off.cycles, on.cycles) - 1.0;
            out[1] = 0.0;
            if (on.predictionsMade > 0) {
                out[1] = static_cast<double>(on.predictionsCorrect) /
                         static_cast<double>(on.predictionsMade);
            }

            // Distributor arithmetic behind the banked table.
            PipelineConfig pipe;
            pipe.frontEnd = FrontEndKind::TraceCache;
            pipe.perfectBranchPredictor = true;
            pipe.useValuePrediction = true;
            pipe.useInterleavedVpTable = true;
            pipe.predictorKind = kind;
            const PipelineResult pres = runPipelineMachine(trace, pipe);
            out[2] = 1000.0 *
                     static_cast<double>(pres.vptDistributorAdditions) /
                     static_cast<double>(pres.instructions);
        });
    const auto gain = gridValues(cells, 3, 0);
    const auto acc = gridValues(cells, 3, 1);
    const auto adds = gridValues(cells, 3, 2);

    TablePrinter table(
        "Section 4.2 ablation - predictor kinds "
        "(ideal machine BW=16 + banked-table distributor load)",
        {"predictor", "VP speedup", "accuracy",
         "distributor adds/1k insts"});
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        table.addRow(
            {kinds[k].second,
             TablePrinter::percentCell(arithmeticMean(gain[k])),
             TablePrinter::percentCell(arithmeticMean(acc[k])),
             TablePrinter::numberCell(arithmeticMean(adds[k]), 1)});
    }

    std::fputs(table.render().c_str(), stdout);
    std::puts("\ntakeaway: the hybrid keeps most of the stride "
              "predictor's speedup while cutting the distributor "
              "additions (last-value hits distribute one value with no "
              "arithmetic), as argued in Section 4.2");
    runner.reportStats();
    return 0;
}
