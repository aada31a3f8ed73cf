/**
 * @file
 * Functional interpreter of the mini ISA that emits dynamic trace records.
 *
 * The interpreter executes a Program against a Memory image and captures a
 * TraceRecord per retired instruction. This is our stand-in for the Shade
 * tracing tool used in the paper (§3.1): the traces carry genuine data
 * values and control flow, so value predictability is organic.
 */

#ifndef VPSIM_VM_INTERPRETER_HPP
#define VPSIM_VM_INTERPRETER_HPP

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.hpp"
#include "trace/record.hpp"
#include "vm/memory.hpp"
#include "vm/program.hpp"

namespace vpsim
{

/** Executes programs and captures their dynamic traces. */
class Interpreter
{
  public:
    /** Outcome of one run. */
    struct RunResult
    {
        /** Number of instructions retired. */
        std::uint64_t executed = 0;
        /** True when a halt instruction was retired (vs fuel exhausted). */
        bool halted = false;
    };

    /**
     * @param target_program The program to execute.
     * @param initial_memory Initial data memory image.
     */
    Interpreter(const Program &target_program, Memory initial_memory);

    /**
     * Execute until halt or until @p max_insts instructions retire.
     *
     * @param max_insts Fuel limit (0 means unlimited).
     * @param out When non-null, a record is appended per instruction.
     */
    RunResult run(std::uint64_t max_insts,
                  std::vector<TraceRecord> *out = nullptr);

    /** Architectural register value (r0 always reads 0). */
    Value reg(RegIndex index) const;

    /** The (mutated) data memory. */
    const Memory &memory() const { return mem; }

  private:
    const Program &program;
    Memory mem;
    std::array<Value, numArchRegs> regs{};
    std::size_t pcIndex = 0;
    bool halted = false;
};

/**
 * Convenience: run @p target_program on @p initial_memory until it halts
 * or retires @p max_insts instructions (0 means unlimited) and return
 * the trace, in a whole-trace buffer (reserveWholeTrace) sized for
 * @p max_insts records. A program that halts early yields a shorter
 * trace; that is not an error.
 */
std::vector<TraceRecord> captureTrace(const Program &target_program,
                                      Memory initial_memory,
                                      std::uint64_t max_insts);

/**
 * Streaming capture: run the program and hand the trace to @p sink in
 * bounded chunks of at most @p chunk_insts records, so the full trace
 * never materializes in this process (the sink typically appends to a
 * TraceV3Writer). The chunk buffer is reused across calls; the sink
 * must copy or write out what it needs before returning. Stops early
 * (and returns the sink's error) on the first non-ok sink result.
 */
[[nodiscard]] Status captureTraceChunked(
    const Program &target_program, Memory initial_memory,
    std::uint64_t max_insts, std::uint64_t chunk_insts,
    const std::function<Status(const std::vector<TraceRecord> &)>
        &sink);

} // namespace vpsim

#endif // VPSIM_VM_INTERPRETER_HPP
