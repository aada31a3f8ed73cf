/**
 * @file
 * trace_tool: capture, store, inspect and reload binary trace files.
 *
 * Demonstrates the trace I/O layer that decouples workload execution
 * from simulation (the role Shade trace files played for the paper's
 * authors): capture a benchmark to a .vptrace file once, then drive any
 * experiment from the file.
 *
 *   trace_tool --benchmark perl --insts 100000 --out perl.vptrace
 *   trace_tool --in perl.vptrace --dump 16
 */

#include <cstdio>

#include "common/logging.hpp"
#include "common/options.hpp"
#include "trace/trace_stats.hpp"
#include "trace/trace_v3.hpp"
#include "vm/assembler.hpp"
#include "vm/interpreter.hpp"
#include "workloads/workload.hpp"

int
main(int argc, char **argv)
{
    using namespace vpsim;

    Options options;
    options.declare("benchmark", "perl", "benchmark to capture");
    options.declare("insts", "100000", "dynamic instructions to capture");
    options.declare("out", "", "write the captured trace to this file");
    options.declare("in", "", "read a trace file instead of capturing");
    options.declare("asm", "",
                    "assemble and run this .s file instead of a "
                    "bundled benchmark");
    options.declare("dump", "8", "print the first N records");
    options.parse(argc, argv, "trace capture/inspection tool");

    std::vector<TraceRecord> trace;
    std::string source_name;
    if (!options.getString("asm").empty()) {
        source_name = options.getString("asm");
        const Program program = assembleFile(source_name);
        Interpreter interp(program, Memory{});
        interp.run(static_cast<std::uint64_t>(options.getInt("insts")),
                   &trace);
        std::printf("assembled and ran %s: %zu records\n",
                    source_name.c_str(), trace.size());
    } else if (!options.getString("in").empty()) {
        source_name = options.getString("in");
        const Status read = readTraceV3(source_name, &trace);
        fatalIf(!read.isOk(), read.message());
        std::printf("loaded %zu records from %s\n", trace.size(),
                    source_name.c_str());
    } else {
        source_name = options.getString("benchmark");
        trace = captureWorkloadTrace(
            source_name,
            static_cast<std::uint64_t>(options.getInt("insts")));
        std::printf("captured %zu records from %s\n", trace.size(),
                    source_name.c_str());
    }

    std::fputs(computeTraceStats(trace).report(source_name).c_str(),
               stdout);

    const auto dump = static_cast<std::size_t>(options.getInt("dump"));
    for (std::size_t i = 0; i < trace.size() && i < dump; ++i) {
        const TraceRecord &rec = trace[i];
        std::printf("  [%llu] pc=0x%llx %-5s rd=%d result=0x%llx%s\n",
                    static_cast<unsigned long long>(i),
                    static_cast<unsigned long long>(rec.pc),
                    std::string(opcodeName(rec.op)).c_str(),
                    rec.rd == invalidReg ? -1 : static_cast<int>(rec.rd),
                    static_cast<unsigned long long>(rec.result),
                    rec.isControlFlow()
                        ? (rec.taken ? " taken" : " not-taken")
                        : "");
    }

    const std::string out = options.getString("out");
    if (!out.empty()) {
        const Status written = writeTraceV3(out, trace);
        fatalIf(!written.isOk(), written.message());
        std::printf("wrote %zu records to %s\n", trace.size(),
                    out.c_str());
        // Round-trip check.
        std::vector<TraceRecord> reloaded;
        const Status reread = readTraceV3(out, &reloaded);
        fatalIf(!reread.isOk(), reread.message());
        fatalIf(reloaded.size() != trace.size(),
                "round-trip record count mismatch");
        std::puts("round-trip verified");
    }
    return 0;
}
