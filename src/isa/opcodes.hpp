/**
 * @file
 * Opcode set of the mini RISC ISA executed by the trace-generating VM.
 *
 * The ISA is deliberately small: a load/store 64-bit RISC machine with 32
 * general-purpose registers (r0 hardwired to zero), conditional branches,
 * and direct/indirect jumps. It is rich enough for the eight mini
 * benchmarks (compression, interpreters, game search, DB transactions) to
 * be written naturally, which is what gives the traces realistic value
 * locality and control flow.
 */

#ifndef VPSIM_ISA_OPCODES_HPP
#define VPSIM_ISA_OPCODES_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace vpsim
{

/** Static opcode of one instruction. */
enum class OpCode : std::uint8_t
{
    // Register-register ALU.
    Add, Sub, And, Or, Xor, Slt, Sltu, Sll, Srl, Sra, Mul, Div, Rem,
    // Register-immediate ALU.
    Addi, Andi, Ori, Xori, Slti, Slli, Srli, Srai, Lui,
    // Memory (64-bit word and unsigned byte).
    Ld, St, Lbu, Sb,
    // Conditional branches (compare two registers).
    Beq, Bne, Blt, Bge, Bltu, Bgeu,
    // Unconditional control flow.
    Jal,  //!< Jump to label, link into rd.
    Jalr, //!< Jump to register + imm, link into rd.
    // Misc.
    Nop,
    Halt,

    NumOpCodes,
};

/** Coarse functional class of an instruction, used by machine models. */
enum class InstClass : std::uint8_t
{
    IntAlu,
    IntMul,
    IntDiv,
    Load,
    Store,
    Branch, //!< Conditional branch.
    Jump,   //!< Unconditional direct or indirect jump.
    Nop,
    Halt,
};

/**
 * Abort on a classification query for a byte that is not a valid
 * opcode (defined out of line; classification itself is inline).
 */
[[noreturn]] void invalidOpcodePanic(const char *where, unsigned value);

/** Number of valid opcodes: every OpCode below NumOpCodes. */
inline constexpr std::size_t numOpCodes =
    static_cast<std::size_t>(OpCode::NumOpCodes);

namespace detail
{

/** Class of a valid opcode; evaluated only to build opcodeTraits. */
constexpr InstClass
classifyOpcode(OpCode op)
{
    switch (op) {
      case OpCode::Add:
      case OpCode::Sub:
      case OpCode::And:
      case OpCode::Or:
      case OpCode::Xor:
      case OpCode::Slt:
      case OpCode::Sltu:
      case OpCode::Sll:
      case OpCode::Srl:
      case OpCode::Sra:
      case OpCode::Addi:
      case OpCode::Andi:
      case OpCode::Ori:
      case OpCode::Xori:
      case OpCode::Slti:
      case OpCode::Slli:
      case OpCode::Srli:
      case OpCode::Srai:
      case OpCode::Lui:
        return InstClass::IntAlu;
      case OpCode::Mul:
        return InstClass::IntMul;
      case OpCode::Div:
      case OpCode::Rem:
        return InstClass::IntDiv;
      case OpCode::Ld:
      case OpCode::Lbu:
        return InstClass::Load;
      case OpCode::St:
      case OpCode::Sb:
        return InstClass::Store;
      case OpCode::Beq:
      case OpCode::Bne:
      case OpCode::Blt:
      case OpCode::Bge:
      case OpCode::Bltu:
      case OpCode::Bgeu:
        return InstClass::Branch;
      case OpCode::Jal:
      case OpCode::Jalr:
        return InstClass::Jump;
      case OpCode::Nop:
        return InstClass::Nop;
      case OpCode::Halt:
        return InstClass::Halt;
      case OpCode::NumOpCodes:
        break;
    }
    invalidOpcodePanic("classifyOpcode", static_cast<unsigned>(op));
}

/** What the classification queries answer for one opcode. */
struct OpcodeTraits
{
    InstClass cls = InstClass::Nop;
    bool writesDest = false;
};

/** OpcodeTraits of every valid opcode, indexed by opcode. */
inline constexpr std::array<OpcodeTraits, numOpCodes> opcodeTraits = [] {
    std::array<OpcodeTraits, numOpCodes> table{};
    for (std::size_t i = 0; i < numOpCodes; ++i) {
        const InstClass cls = classifyOpcode(static_cast<OpCode>(i));
        // jal/jalr link into rd (rd may be r0 for a plain jump).
        const bool writes = cls == InstClass::IntAlu ||
                            cls == InstClass::IntMul ||
                            cls == InstClass::IntDiv ||
                            cls == InstClass::Load || cls == InstClass::Jump;
        table[i] = {cls, writes};
    }
    return table;
}();

/** The traits of @p op; a byte that is no opcode panics, naming @p where. */
constexpr const OpcodeTraits &
traitsOf(OpCode op, const char *where)
{
    const auto index = static_cast<std::size_t>(op);
    if (index >= numOpCodes) [[unlikely]]
        invalidOpcodePanic(where, static_cast<unsigned>(index));
    return opcodeTraits[index];
}

} // namespace detail

/**
 * Functional class of @p op.
 *
 * The classification queries below run once or twice per simulated
 * instruction in every machine model, so each is one bounds check and
 * one load from a constant per-opcode table, small enough to inline
 * even into the pipeline's cycle loop (a switch with a panicking
 * fall-through was not: GCC left it out of line there; see
 * docs/PERF.md).
 */
constexpr InstClass
instClassOf(OpCode op)
{
    return detail::traitsOf(op, "instClassOf").cls;
}

/** Mnemonic for @p op, e.g. "add". */
std::string_view opcodeName(OpCode op);

/** True for conditional branches. */
constexpr bool
isConditionalBranch(OpCode op)
{
    return instClassOf(op) == InstClass::Branch;
}

/** True for any control-transfer instruction (branch or jump). */
constexpr bool
isControl(OpCode op)
{
    const InstClass cls = instClassOf(op);
    return cls == InstClass::Branch || cls == InstClass::Jump;
}

/** True when the instruction writes a destination register. */
constexpr bool
writesDest(OpCode op)
{
    return detail::traitsOf(op, "writesDest").writesDest;
}

/** True when the opcode reads rs1. */
constexpr bool
readsSrc1(OpCode op)
{
    switch (op) {
      case OpCode::Lui:
      case OpCode::Jal:
      case OpCode::Nop:
      case OpCode::Halt:
        return false;
      default:
        return true;
    }
}

/** True when the opcode reads rs2. */
constexpr bool
readsSrc2(OpCode op)
{
    switch (op) {
      case OpCode::Add:
      case OpCode::Sub:
      case OpCode::And:
      case OpCode::Or:
      case OpCode::Xor:
      case OpCode::Slt:
      case OpCode::Sltu:
      case OpCode::Sll:
      case OpCode::Srl:
      case OpCode::Sra:
      case OpCode::Mul:
      case OpCode::Div:
      case OpCode::Rem:
      case OpCode::Beq:
      case OpCode::Bne:
      case OpCode::Blt:
      case OpCode::Bge:
      case OpCode::Bltu:
      case OpCode::Bgeu:
      case OpCode::St:
      case OpCode::Sb:
        return true;
      default:
        return false;
    }
}

/** True for loads and stores. */
constexpr bool
isMemory(OpCode op)
{
    const InstClass cls = instClassOf(op);
    return cls == InstClass::Load || cls == InstClass::Store;
}

} // namespace vpsim

#endif // VPSIM_ISA_OPCODES_HPP
