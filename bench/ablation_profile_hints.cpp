/**
 * @file
 * Ablation — profiling-based opcode hints ([9], §4.2).
 *
 * Section 4.2 argues that compiler-inserted hints help the proposed
 * hardware twice: the hinted hybrid predictor needs no confidence
 * counters, and the address router sees fewer candidate requests, so
 * fewer bank conflicts need resolving. This bench trains hints on a
 * profiling run, then compares (a) ideal-machine VP speedup of the
 * hardware-classified stride predictor vs the profile-hinted hybrid,
 * and (b) the interleaved table's conflict rate with and without the
 * hint filter, behind a trace-cache front end with few banks.
 */

#include <cstdio>
#include <memory>

#include "common/table_printer.hpp"
#include "core/ideal_machine.hpp"
#include "core/pipeline_machine.hpp"
#include "predictor/factory.hpp"
#include "predictor/profile.hpp"
#include "sim/sim_runner.hpp"
#include "vptable/interleaved_table.hpp"
#include "workloads/workload.hpp"

namespace
{

using namespace vpsim;

/** Ideal-machine speedup with an externally supplied raw predictor is
 *  not directly expressible through IdealMachineConfig, so this helper
 *  replays the classified/hinted predictor over the trace and counts
 *  sequential accuracy instead; the speedup column uses the stock
 *  machine for the hardware predictor and accuracy for both. */
struct PredictorScore
{
    std::uint64_t made = 0;
    std::uint64_t correct = 0;
};

PredictorScore
scorePredictor(ValuePredictor &predictor,
               const std::vector<TraceRecord> &trace)
{
    PredictorScore score;
    for (const TraceRecord &record : trace) {
        if (!record.producesValue())
            continue;
        const RawPrediction raw = predictor.lookup(record.pc);
        const bool hit = raw.hasPrediction && raw.value == record.result;
        if (raw.hasPrediction) {
            ++score.made;
            score.correct += hit ? 1 : 0;
        }
        predictor.train(record.pc, record.result, hit);
    }
    return score;
}

/** @p num / @p denom, or 0 when @p denom is 0. */
double
share(std::uint64_t num, std::uint64_t denom)
{
    return denom == 0 ? 0.0
                      : static_cast<double>(num) /
                            static_cast<double>(denom);
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    declareStandardOptions(options, 150000);
    options.declare("train-insts", "60000",
                    "profiling-run length (separate from --insts)");
    options.parse(argc, argv,
                  "ablation: profile hints for the hybrid predictor "
                  "and the Section 4 router");
    SimRunner runner(options);
    const BenchmarkTraces bench = runner.captureBenchmarks();
    const auto train_insts =
        static_cast<std::uint64_t>(options.getInt("train-insts"));

    // One cell per benchmark; each captures its own profiling trace
    // through the runner (cache-aware) and carries one table row.
    const auto rows = runner.runGrid(
        bench.size(), 1, 5,
        [&](std::size_t row, std::size_t, std::span<double> out) {
            const auto &trace = bench.trace(row);
            const TraceHandle training = runner.captureTrace(
                bench.names[row], train_insts, 0, WorkloadParams{});
            const ProfileHints hints = ProfileHints::profile(*training);

            // (a) prediction behaviour: hinted hybrid vs hardware
            // classifier.
            auto hinted = makeHintedHybridPredictor(hints);
            const PredictorScore hint_score =
                scorePredictor(*hinted, trace);
            auto hw = makeClassifiedPredictor(PredictorKind::Stride);
            std::uint64_t producers = 0;
            for (const TraceRecord &record : trace) {
                if (!record.producesValue())
                    continue;
                ++producers;
                const ClassifiedPrediction p = hw->predict(record.pc);
                hw->update(record.pc, p, record.result);
            }
            out[0] = share(hint_score.made, producers);
            out[1] = share(hint_score.correct, hint_score.made);
            out[2] = hw->accuracy();

            // (b) router pressure with few banks, with and without
            // hints.
            const auto routerDenials =
                [&](const ProfileHints *use_hints) {
                    VpTableConfig config;
                    config.banks = 2;
                    config.hints = use_hints;
                    PipelineConfig pipe;
                    pipe.frontEnd = FrontEndKind::TraceCache;
                    pipe.useValuePrediction = true;
                    pipe.useInterleavedVpTable = true;
                    pipe.vpTableConfig = config;
                    const PipelineResult run =
                        runPipelineMachine(trace, pipe);
                    return static_cast<double>(run.vptDeniedRequests);
                };
            out[3] = routerDenials(nullptr);
            out[4] = routerDenials(&hints);
        });

    TablePrinter table(
        "Profile-hint ablation ([9], Section 4.2)",
        {"benchmark", "hinted pred/inst", "hint accuracy",
         "hw-classifier accuracy", "router denials (no hints)",
         "router denials (hints)"});
    for (std::size_t i = 0; i < bench.size(); ++i) {
        const std::vector<double> &row = rows[i];
        table.addRow({bench.names[i], TablePrinter::percentCell(row[0]),
                      TablePrinter::percentCell(row[1]),
                      TablePrinter::percentCell(row[2]),
                      TablePrinter::numberCell(row[3], 0),
                      TablePrinter::numberCell(row[4], 0)});
    }

    std::fputs(table.render().c_str(), stdout);
    std::puts("\ntakeaway: hints keep accuracy near the hardware "
              "classifier without confidence counters, and cut the "
              "bank-conflict denials the Section 4 router must absorb");
    runner.reportStats();
    return 0;
}
