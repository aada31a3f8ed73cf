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

    // One job per (predictor kind, benchmark); each owns the gain,
    // accuracy and distributor-adds cells for that pair.
    std::vector<std::vector<double>> gain =
        unsetCells(kinds.size(), bench.size());
    std::vector<std::vector<double>> acc =
        unsetCells(kinds.size(), bench.size());
    std::vector<std::vector<double>> adds =
        unsetCells(kinds.size(), bench.size());
    std::vector<SimJob> batch;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        for (std::size_t i = 0; i < bench.size(); ++i) {
            batch.push_back(
                {kinds[k].second + ":" + bench.names[i], [&, k, i] {
                     const PredictorKind kind = kinds[k].first;
                     IdealMachineConfig config;
                     config.fetchRate = 16;
                     config.predictorKind = kind;
                     gain[k][i] =
                         idealVpSpeedup(bench.trace(i), config) - 1.0;

                     IdealMachineConfig probe = config;
                     probe.useValuePrediction = true;
                     const IdealMachineResult run =
                         runIdealMachine(bench.trace(i), probe);
                     acc[k][i] = 0.0;
                     if (run.predictionsMade > 0) {
                         acc[k][i] =
                             static_cast<double>(
                                 run.predictionsCorrect) /
                             static_cast<double>(run.predictionsMade);
                     }

                     // Distributor arithmetic behind the banked table.
                     PipelineConfig pipe;
                     pipe.frontEnd = FrontEndKind::TraceCache;
                     pipe.perfectBranchPredictor = true;
                     pipe.useValuePrediction = true;
                     pipe.useInterleavedVpTable = true;
                     pipe.predictorKind = kind;
                     const PipelineResult pres =
                         runPipelineMachine(bench.trace(i), pipe);
                     adds[k][i] =
                         1000.0 *
                         static_cast<double>(
                             pres.vptDistributorAdditions) /
                         static_cast<double>(pres.instructions);
                 }});
        }
    }
    runner.run(std::move(batch));

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
