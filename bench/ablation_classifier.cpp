/**
 * @file
 * Ablation — classification strength (paper §3.1/§5 use a 2-bit
 * saturating counter; this sweeps counter width and miss policy).
 *
 * A weak classifier issues wrong predictions that cost the 1-cycle
 * reissue penalty on the critical path; a paranoid one wastes correct
 * predictions. The sweep reports, per configuration and averaged over
 * the benchmarks: VP speedup on the ideal machine at BW=16, prediction
 * accuracy, and the fraction of raw-correct outcomes the classifier
 * declined (missed opportunity).
 */

#include <cstdio>

#include "common/table_printer.hpp"
#include "core/ideal_machine.hpp"
#include "core/speedup.hpp"
#include "predictor/factory.hpp"
#include "sim/sim_runner.hpp"

namespace
{

using namespace vpsim;

struct ClassifierConfig
{
    unsigned bits;
    MissPolicy policy;
};

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    declareStandardOptions(options, 200000);
    options.parse(argc, argv,
                  "ablation: classifier counter width and miss policy");
    SimRunner runner(options);
    const BenchmarkTraces bench = runner.captureBenchmarks();

    std::vector<ClassifierConfig> configs;
    for (const MissPolicy policy :
         {MissPolicy::Decrement, MissPolicy::Reset}) {
        for (const unsigned bits : {1u, 2u, 3u, 4u})
            configs.push_back({bits, policy});
    }

    // One cell per (configuration, benchmark) carrying the three
    // metrics of that pair, averaged per configuration below.
    const std::size_t n_configs = configs.size();
    const auto cells = runner.runGrid(
        n_configs, bench.size(), 3,
        [&](std::size_t row, std::size_t col, std::span<double> out) {
            const ClassifierConfig &cc = configs[row];
            IdealMachineConfig config;
            config.fetchRate = 16;
            config.counterBits = cc.bits;
            config.missPolicy = cc.policy;
            out[0] = idealVpSpeedup(bench.trace(col), config) - 1.0;

            // Accuracy probe via a stand-alone classifier replay.
            auto classifier = makeClassifiedPredictor(
                PredictorKind::Stride, 0, cc.bits, cc.policy);
            std::uint64_t raw_correct_total = 0;
            for (const TraceRecord &record : bench.trace(col)) {
                if (!record.producesValue())
                    continue;
                const ClassifiedPrediction p =
                    classifier->predict(record.pc);
                if (p.rawAvailable && p.rawValue == record.result)
                    ++raw_correct_total;
                classifier->update(record.pc, p, record.result);
            }
            out[1] = classifier->accuracy();
            out[2] = raw_correct_total == 0
                ? 0.0
                : static_cast<double>(classifier->missedOpportunities()) /
                    static_cast<double>(raw_correct_total);
        });
    const auto gain = gridValues(cells, 3, 0);
    const auto acc = gridValues(cells, 3, 1);
    const auto missed = gridValues(cells, 3, 2);

    TablePrinter table(
        "Classifier ablation - stride predictor on the ideal machine "
        "at BW=16 (averages)",
        {"counter", "miss policy", "VP speedup", "accuracy",
         "missed correct"});
    for (std::size_t c = 0; c < n_configs; ++c) {
        table.addRow(
            {std::to_string(configs[c].bits) + "-bit",
             configs[c].policy == MissPolicy::Reset ? "reset"
                                                    : "decrement",
             TablePrinter::percentCell(arithmeticMean(gain[c])),
             TablePrinter::percentCell(arithmeticMean(acc[c])),
             TablePrinter::percentCell(arithmeticMean(missed[c]))});
        if ((c + 1) % 4 == 0)
            table.addSeparator();
    }

    std::fputs(table.render().c_str(), stdout);
    std::puts("\ntakeaway: the paper's 2-bit counter is near the sweet "
              "spot; reset-on-miss trades a few missed opportunities "
              "for far fewer penalty-costing wrong predictions");
    runner.reportStats();
    return 0;
}
