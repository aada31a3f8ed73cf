/**
 * @file
 * Table 3.2 — "An example of instructions progressing in a pipeline."
 *
 * Reconstructs the paper's worked example: the 8-instruction dataflow
 * graph of Figure 3.2 executed on a 4-wide, 4-stage machine (Fetch,
 * Decode/Issue, Execute, Commit) with a perfect value predictor. The
 * paper's schedule: instructions 1-4 execute in cycle 3 and 5-8 in cycle
 * 4; with value prediction off, the dependents 2, 4, 6 and 8 slip.
 */

#include <cstdio>
#include <vector>

#include "core/ideal_machine.hpp"
#include "common/table_printer.hpp"
#include "sim/sim_runner.hpp"

namespace
{

/** Build the Figure 3.2 DFG as a synthetic trace. */
std::vector<vpsim::TraceRecord>
figure32Trace()
{
    using namespace vpsim;
    struct Spec
    {
        RegIndex rd;
        RegIndex rs1;
    };
    // Arcs: 1->2 (DID 1), 2->4 (DID 2), 1->5 (DID 4), 5->6 (DID 1),
    //       3->7 (DID 4), 7->8 (DID 1). Instructions 1 and 3 are roots.
    const std::vector<Spec> specs = {
        {1, invalidReg}, {2, 1}, {3, invalidReg}, {4, 2},
        {5, 1},          {6, 5}, {7, 3},          {8, 7},
    };
    std::vector<TraceRecord> trace;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        TraceRecord rec;
        rec.pc = 0x1000 + i * instBytes;
        rec.nextPc = rec.pc + instBytes;
        rec.op = specs[i].rs1 == invalidReg ? OpCode::Addi : OpCode::Add;
        rec.rd = specs[i].rd;
        rec.rs1 = specs[i].rs1 == invalidReg ? 0 : specs[i].rs1;
        rec.rs2 = specs[i].rs1 == invalidReg
            ? invalidReg
            : static_cast<RegIndex>(0);
        rec.result = 100 + i;
        trace.push_back(rec);
    }
    return trace;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vpsim;

    Options options;
    declareRunnerOptions(options);
    options.parse(argc, argv,
                  "Table 3.2: the Figure 3.2 worked example on a "
                  "4-wide machine");
    SimRunner runner(options);

    const auto trace = figure32Trace();

    // The worked example's only simulation points: two 8-instruction
    // runs, too small to schedule. The runner still parses and applies
    // the shared options (--check-invariants, --fault-inject, --jobs).
    IdealMachineConfig config;
    config.fetchRate = 4;
    const IdealMachineResult without_vp =
        runIdealMachine(trace, config, true);
    config.useValuePrediction = true;
    config.perfectValuePrediction = true;
    const IdealMachineResult with_vp = runIdealMachine(trace, config, true);

    TablePrinter table(
        "Table 3.2 - Figure 3.2's DFG on a 4-wide machine "
        "(per-instruction cycle of each stage)",
        {"inst", "fetch", "decode/issue", "exec (perfect VP)",
         "exec (no VP)", "commit (VP)"});
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const Cycle fetch = i / 4 + 1;
        table.addRow({std::to_string(i + 1), std::to_string(fetch),
                      std::to_string(fetch + 1),
                      std::to_string(with_vp.execCycle[i]),
                      std::to_string(without_vp.execCycle[i]),
                      std::to_string(with_vp.execCycle[i] + 1)});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\ntotal cycles: %llu with perfect VP, %llu without "
                "(paper: 1-4 execute in cycle 3, 5-8 in cycle 4)\n",
                static_cast<unsigned long long>(with_vp.cycles),
                static_cast<unsigned long long>(without_vp.cycles));
    runner.reportStats();
    return 0;
}
