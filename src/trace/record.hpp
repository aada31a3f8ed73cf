/**
 * @file
 * Dynamic trace record: one executed instruction with its outcome.
 *
 * This plays the role of the Shade-produced SPARC traces in the paper
 * (§3.1): a stream of executed instructions annotated with the registers
 * each one read and wrote, the value it produced, and the actual
 * control-flow successor. All simulators and analyses in this repository
 * are driven by streams of these records. No model reads the address a
 * load or store touched, and a record's sequence number is its position
 * in the trace, so a record carries neither: 32 bytes each.
 */

#ifndef VPSIM_TRACE_RECORD_HPP
#define VPSIM_TRACE_RECORD_HPP

#include <cstdint>

#include "common/types.hpp"
#include "isa/instruction.hpp"
#include "isa/opcodes.hpp"

namespace vpsim
{

/** One dynamically executed instruction. */
struct TraceRecord
{
    /** Instruction address. */
    Addr pc = 0;
    /** Address of the next instruction actually executed. */
    Addr nextPc = 0;
    /** Value written to the destination register (0 when none). */
    Value result = 0;
    /** Opcode. */
    OpCode op = OpCode::Nop;
    /** Destination register, invalidReg when none. */
    RegIndex rd = invalidReg;
    /** First source register, invalidReg when unused. */
    RegIndex rs1 = invalidReg;
    /** Second source register, invalidReg when unused. */
    RegIndex rs2 = invalidReg;
    /** For control instructions: was the transfer taken? */
    bool taken = false;

    /** Functional class of the executed opcode. */
    InstClass instClass() const { return instClassOf(op); }

    /** True for any control transfer (branch or jump). */
    bool isControlFlow() const { return isControl(op); }

    /** True for conditional branches. */
    bool isConditional() const { return isConditionalBranch(op); }

    /**
     * True when this record produces a register value eligible for value
     * prediction (writes a non-zero destination register).
     */
    bool
    producesValue() const
    {
        return writesDest(op) && rd != invalidReg && rd != 0;
    }

    /** Fall-through address (pc + instruction size). */
    Addr fallThrough() const { return pc + instBytes; }
};

static_assert(sizeof(TraceRecord) == 32,
              "a record is 32 bytes; every whole trace, block buffer and "
              "capture chunk scales with it (docs/PERF.md)");

} // namespace vpsim

#endif // VPSIM_TRACE_RECORD_HPP
