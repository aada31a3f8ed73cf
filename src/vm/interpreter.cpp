#include "vm/interpreter.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "trace/trace_buffer.hpp"

namespace vpsim
{

Interpreter::Interpreter(const Program &target_program,
                         Memory initial_memory)
    : program(target_program),
      mem(std::move(initial_memory))
{
    fatalIf(program.size() == 0, "cannot interpret an empty program");
}

Value
Interpreter::reg(RegIndex index) const
{
    panicIf(index >= numArchRegs, "register index out of range");
    return index == 0 ? 0 : regs[index];
}

Interpreter::RunResult
Interpreter::run(std::uint64_t max_insts, std::vector<TraceRecord> *out)
{
    RunResult result;
    if (halted) {
        result.halted = true;
        return result;
    }

    const auto read_reg = [this](RegIndex index) -> Value {
        return index == 0 ? 0 : regs[index];
    };
    const auto write_reg = [this](RegIndex index, Value value) {
        if (index != 0)
            regs[index] = value;
    };

    while (max_insts == 0 || result.executed < max_insts) {
        // Both checks in this loop run once per instruction, so each
        // builds its message only once it has failed.
        if (pcIndex >= program.size()) [[unlikely]] {
            panicIf(true,
                    "pc ran off the end of program '" + program.name() + "'");
        }
        const Instruction &inst = program.at(pcIndex);
        const Addr pc = program.pcOf(pcIndex);

        TraceRecord rec;
        rec.pc = pc;
        rec.op = inst.op;
        rec.rd = writesDest(inst.op) ? inst.rd : invalidReg;
        rec.rs1 = readsSrc1(inst.op) ? inst.rs1 : invalidReg;
        rec.rs2 = readsSrc2(inst.op) ? inst.rs2 : invalidReg;

        const Value a = readsSrc1(inst.op) ? read_reg(inst.rs1) : 0;
        const Value b = readsSrc2(inst.op) ? read_reg(inst.rs2) : 0;
        const auto sa = static_cast<std::int64_t>(a);
        const auto sb_val = static_cast<std::int64_t>(b);

        // Effective address of a load or store; the record omits it.
        const Addr ea = a + static_cast<Value>(inst.imm);
        std::size_t next_index = pcIndex + 1;
        Value dest_value = 0;
        bool wrote_dest = false;

        switch (inst.op) {
          case OpCode::Add:
            dest_value = a + b; wrote_dest = true; break;
          case OpCode::Sub:
            dest_value = a - b; wrote_dest = true; break;
          case OpCode::And:
            dest_value = a & b; wrote_dest = true; break;
          case OpCode::Or:
            dest_value = a | b; wrote_dest = true; break;
          case OpCode::Xor:
            dest_value = a ^ b; wrote_dest = true; break;
          case OpCode::Slt:
            dest_value = sa < sb_val ? 1 : 0; wrote_dest = true; break;
          case OpCode::Sltu:
            dest_value = a < b ? 1 : 0; wrote_dest = true; break;
          case OpCode::Sll:
            dest_value = a << (b & 63); wrote_dest = true; break;
          case OpCode::Srl:
            dest_value = a >> (b & 63); wrote_dest = true; break;
          case OpCode::Sra:
            dest_value = static_cast<Value>(sa >> (b & 63));
            wrote_dest = true; break;
          case OpCode::Mul:
            dest_value = a * b; wrote_dest = true; break;
          case OpCode::Div:
            // Division by zero yields all-ones, RISC-V style.
            dest_value = b == 0 ? ~Value{0}
                                : static_cast<Value>(sa / sb_val);
            wrote_dest = true; break;
          case OpCode::Rem:
            dest_value = b == 0 ? a : static_cast<Value>(sa % sb_val);
            wrote_dest = true; break;
          case OpCode::Addi:
            dest_value = a + static_cast<Value>(inst.imm);
            wrote_dest = true; break;
          case OpCode::Andi:
            dest_value = a & static_cast<Value>(inst.imm);
            wrote_dest = true; break;
          case OpCode::Ori:
            dest_value = a | static_cast<Value>(inst.imm);
            wrote_dest = true; break;
          case OpCode::Xori:
            dest_value = a ^ static_cast<Value>(inst.imm);
            wrote_dest = true; break;
          case OpCode::Slti:
            dest_value = sa < inst.imm ? 1 : 0; wrote_dest = true; break;
          case OpCode::Slli:
            dest_value = a << (inst.imm & 63); wrote_dest = true; break;
          case OpCode::Srli:
            dest_value = a >> (inst.imm & 63); wrote_dest = true; break;
          case OpCode::Srai:
            dest_value = static_cast<Value>(sa >> (inst.imm & 63));
            wrote_dest = true; break;
          case OpCode::Lui:
            dest_value = static_cast<Value>(inst.imm) << 16;
            wrote_dest = true; break;
          case OpCode::Ld:
            dest_value = mem.read64(ea); wrote_dest = true; break;
          case OpCode::Lbu:
            dest_value = mem.read8(ea); wrote_dest = true; break;
          case OpCode::St:
            mem.write64(ea, b); break;
          case OpCode::Sb:
            mem.write8(ea, static_cast<std::uint8_t>(b)); break;
          case OpCode::Beq:
            rec.taken = a == b; break;
          case OpCode::Bne:
            rec.taken = a != b; break;
          case OpCode::Blt:
            rec.taken = sa < sb_val; break;
          case OpCode::Bge:
            rec.taken = sa >= sb_val; break;
          case OpCode::Bltu:
            rec.taken = a < b; break;
          case OpCode::Bgeu:
            rec.taken = a >= b; break;
          case OpCode::Jal:
            dest_value = pc + instBytes;
            wrote_dest = true;
            rec.taken = true;
            next_index = inst.target;
            break;
          case OpCode::Jalr: {
            const Addr target = a + static_cast<Value>(inst.imm);
            dest_value = pc + instBytes;
            wrote_dest = true;
            rec.taken = true;
            if (!program.contains(target)) [[unlikely]] {
                panicIf(true, "jalr target outside program '" +
                                  program.name() + "'");
            }
            next_index = program.indexOf(target);
            break;
          }
          case OpCode::Nop:
            break;
          case OpCode::Halt:
            halted = true;
            break;
          case OpCode::NumOpCodes:
            panic("invalid opcode executed");
        }

        if (inst.isConditional() && rec.taken)
            next_index = inst.target;

        if (wrote_dest) {
            write_reg(inst.rd, dest_value);
            // r0 writes are architecturally discarded; do not report a
            // produced value for them.
            rec.result = inst.rd == 0 ? 0 : dest_value;
        }

        rec.nextPc = halted ? pc : program.pcOf(next_index);
        ++result.executed;
        if (out)
            out->push_back(rec);

        if (halted) {
            result.halted = true;
            break;
        }
        pcIndex = next_index;
    }
    return result;
}

std::vector<TraceRecord>
captureTrace(const Program &target_program, Memory initial_memory,
             std::uint64_t max_insts)
{
    Interpreter interp(target_program, std::move(initial_memory));
    std::vector<TraceRecord> records;
    reserveWholeTrace(records, static_cast<std::size_t>(max_insts));
    interp.run(max_insts, &records);
    return records;
}

Status
captureTraceChunked(
    const Program &target_program, Memory initial_memory,
    std::uint64_t max_insts, std::uint64_t chunk_insts,
    const std::function<Status(const std::vector<TraceRecord> &)> &sink)
{
    panicIf(chunk_insts == 0, "chunk_insts must be positive");
    Interpreter interp(target_program, std::move(initial_memory));
    std::vector<TraceRecord> chunk;
    chunk.reserve(static_cast<std::size_t>(
        std::min(chunk_insts, max_insts)));
    std::uint64_t remaining = max_insts;
    while (remaining > 0) {
        chunk.clear();
        const std::uint64_t fuel = std::min(chunk_insts, remaining);
        const Interpreter::RunResult ran = interp.run(fuel, &chunk);
        remaining -= ran.executed;
        if (!chunk.empty()) {
            const Status sunk = sink(chunk);
            if (!sunk.isOk())
                return sunk;
        }
        if (ran.halted || ran.executed < fuel)
            break;
    }
    return Status::ok();
}

} // namespace vpsim
