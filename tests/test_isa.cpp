/**
 * @file
 * Unit tests for the mini ISA: opcode classification, operand usage
 * metadata, and disassembly.
 */

#include <string>

#include <gtest/gtest.h>

#include "isa/instruction.hpp"
#include "isa/opcodes.hpp"

namespace vpsim
{
namespace
{

TEST(OpcodeClass, AluOpsAreIntAlu)
{
    EXPECT_EQ(instClassOf(OpCode::Add), InstClass::IntAlu);
    EXPECT_EQ(instClassOf(OpCode::Xori), InstClass::IntAlu);
    EXPECT_EQ(instClassOf(OpCode::Lui), InstClass::IntAlu);
}

TEST(OpcodeClass, MulDivSplitOut)
{
    EXPECT_EQ(instClassOf(OpCode::Mul), InstClass::IntMul);
    EXPECT_EQ(instClassOf(OpCode::Div), InstClass::IntDiv);
    EXPECT_EQ(instClassOf(OpCode::Rem), InstClass::IntDiv);
}

TEST(OpcodeClass, MemoryOps)
{
    EXPECT_EQ(instClassOf(OpCode::Ld), InstClass::Load);
    EXPECT_EQ(instClassOf(OpCode::Lbu), InstClass::Load);
    EXPECT_EQ(instClassOf(OpCode::St), InstClass::Store);
    EXPECT_EQ(instClassOf(OpCode::Sb), InstClass::Store);
    EXPECT_TRUE(isMemory(OpCode::Ld));
    EXPECT_FALSE(isMemory(OpCode::Add));
}

TEST(OpcodeClass, ControlOps)
{
    EXPECT_EQ(instClassOf(OpCode::Beq), InstClass::Branch);
    EXPECT_EQ(instClassOf(OpCode::Jal), InstClass::Jump);
    EXPECT_EQ(instClassOf(OpCode::Jalr), InstClass::Jump);
    EXPECT_TRUE(isConditionalBranch(OpCode::Bge));
    EXPECT_FALSE(isConditionalBranch(OpCode::Jal));
    EXPECT_TRUE(isControl(OpCode::Jalr));
    EXPECT_FALSE(isControl(OpCode::Ld));
}

TEST(OpcodeMeta, DestWriters)
{
    EXPECT_TRUE(writesDest(OpCode::Add));
    EXPECT_TRUE(writesDest(OpCode::Ld));
    EXPECT_TRUE(writesDest(OpCode::Jal)) << "jal links";
    EXPECT_FALSE(writesDest(OpCode::St));
    EXPECT_FALSE(writesDest(OpCode::Beq));
    EXPECT_FALSE(writesDest(OpCode::Nop));
}

TEST(OpcodeMeta, SourceUsage)
{
    EXPECT_TRUE(readsSrc1(OpCode::Add));
    EXPECT_TRUE(readsSrc2(OpCode::Add));
    EXPECT_TRUE(readsSrc1(OpCode::Addi));
    EXPECT_FALSE(readsSrc2(OpCode::Addi));
    EXPECT_FALSE(readsSrc1(OpCode::Lui));
    EXPECT_TRUE(readsSrc2(OpCode::St)) << "stores read their data";
    EXPECT_TRUE(readsSrc1(OpCode::Jalr));
    EXPECT_FALSE(readsSrc1(OpCode::Jal));
}

TEST(OpcodeMeta, EveryOpcodeHasNameAndClass)
{
    for (unsigned i = 0; i < static_cast<unsigned>(OpCode::NumOpCodes);
         ++i) {
        const auto op = static_cast<OpCode>(i);
        EXPECT_FALSE(opcodeName(op).empty());
        // instClassOf must not panic for any valid opcode.
        (void)instClassOf(op);
    }
}

TEST(OpcodeMeta, WritersAreExactlyTheValueClasses)
{
    for (std::size_t i = 0; i < numOpCodes; ++i) {
        const auto op = static_cast<OpCode>(i);
        const InstClass cls = instClassOf(op);
        const bool writes = cls == InstClass::IntAlu ||
                            cls == InstClass::IntMul ||
                            cls == InstClass::IntDiv ||
                            cls == InstClass::Load || cls == InstClass::Jump;
        EXPECT_EQ(writesDest(op), writes) << opcodeName(op);
        EXPECT_EQ(isMemory(op),
                  cls == InstClass::Load || cls == InstClass::Store)
            << opcodeName(op);
    }
}

TEST(OpcodeMeta, BytesPastTheLastOpcodePanic)
{
    // The classification tables hold only valid opcodes; a byte past
    // them must panic, never read beyond the table.
    EXPECT_DEATH((void)instClassOf(OpCode::NumOpCodes),
                 "instClassOf: invalid opcode " + std::to_string(numOpCodes));
    EXPECT_DEATH((void)writesDest(static_cast<OpCode>(255)),
                 "writesDest: invalid opcode 255");
    EXPECT_DEATH((void)isControl(static_cast<OpCode>(200)),
                 "instClassOf: invalid opcode 200");
}

TEST(InstructionTest, ProducesValueRules)
{
    Instruction inst;
    inst.op = OpCode::Add;
    inst.rd = 3;
    EXPECT_TRUE(inst.producesValue());
    inst.rd = 0;
    EXPECT_FALSE(inst.producesValue()) << "r0 writes are discarded";
    inst.op = OpCode::St;
    inst.rd = 3;
    EXPECT_FALSE(inst.producesValue());
}

TEST(InstructionTest, DisassemblesAlu)
{
    Instruction inst;
    inst.op = OpCode::Add;
    inst.rd = 3;
    inst.rs1 = 1;
    inst.rs2 = 2;
    EXPECT_EQ(inst.disassemble(), "add r3, r1, r2");
}

TEST(InstructionTest, DisassemblesImmediate)
{
    Instruction inst;
    inst.op = OpCode::Addi;
    inst.rd = 5;
    inst.rs1 = 5;
    inst.imm = -1;
    EXPECT_EQ(inst.disassemble(), "addi r5, r5, -1");
}

TEST(InstructionTest, DisassemblesMemory)
{
    Instruction inst;
    inst.op = OpCode::Ld;
    inst.rd = 4;
    inst.rs1 = 2;
    inst.imm = 16;
    EXPECT_EQ(inst.disassemble(), "ld r4, 16(r2)");

    inst.op = OpCode::St;
    inst.rs2 = 7;
    EXPECT_EQ(inst.disassemble(), "st r7, 16(r2)");
}

TEST(InstructionTest, DisassemblesBranch)
{
    Instruction inst;
    inst.op = OpCode::Bne;
    inst.rs1 = 1;
    inst.rs2 = 0;
    inst.target = 12;
    EXPECT_EQ(inst.disassemble(), "bne r1, r0, @12");
}

} // namespace
} // namespace vpsim
