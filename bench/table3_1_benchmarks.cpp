/**
 * @file
 * Table 3.1 — "Spec95 integer benchmarks."
 *
 * The paper's Table 3.1 lists the eight SPECint95 programs its traces
 * come from. This bench prints the equivalent inventory for the bundled
 * mini benchmarks together with their measured trace characteristics
 * (instruction mix, basic-block size, taken-transfer density), which is
 * the evidence that each stand-in behaves like its namesake.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/table_printer.hpp"
#include "sim/sim_runner.hpp"
#include "trace/trace_stats.hpp"
#include "workloads/workload.hpp"

int
main(int argc, char **argv)
{
    using namespace vpsim;

    Options options;
    declareStandardOptions(options, 200000);
    declareCsvOption(options);
    options.parse(argc, argv,
                  "Table 3.1: the benchmark suite and its trace "
                  "characteristics");
    SimRunner runner(options);
    const BenchmarkTraces bench = runner.captureBenchmarks();

    // One cell per benchmark carrying its five table columns.
    const auto rows = runner.runGrid(
        bench.size(), 1, 5,
        [&](std::size_t row, std::size_t, std::span<double> out) {
            const TraceStats stats = computeTraceStats(bench.trace(row));
            const double denom = static_cast<double>(stats.totalInsts);
            out[0] = static_cast<double>(stats.distinctPcs);
            out[1] = stats.avgBasicBlock;
            out[2] = static_cast<double>(stats.condBranches + stats.jumps) /
                     denom;
            out[3] = static_cast<double>(stats.loads + stats.stores) / denom;
            out[4] = stats.takenTransferRate;
        });

    const std::vector<std::string> columns = {
        "static pcs", "avg BB", "branches", "loads+stores", "taken/inst"};
    std::vector<std::string> header = {"benchmark"};
    header.insert(header.end(), columns.begin(), columns.end());
    TablePrinter table(
        "Table 3.1 - benchmark suite (mini stand-ins for SPECint95)",
        header);
    for (std::size_t i = 0; i < bench.size(); ++i) {
        const std::vector<double> &row = rows[i];
        table.addRow({bench.names[i], TablePrinter::numberCell(row[0], 0),
                      TablePrinter::numberCell(row[1], 1),
                      TablePrinter::percentCell(row[2]),
                      TablePrinter::percentCell(row[3]),
                      TablePrinter::numberCell(row[4], 3)});
    }
    std::fputs(table.render().c_str(), stdout);
    std::puts("");
    for (const auto &name : bench.names) {
        std::printf("  %-9s %s\n", name.c_str(),
                    workloadDescription(name).c_str());
    }
    maybeWriteCsv(options, "table3.1", bench.names, columns, rows);
    runner.reportStats();
    return 0;
}
