/**
 * @file
 * Tests for the VM: memory, program builder (label resolution, pseudo-ops)
 * and interpreter semantics for every opcode.
 */

#include <gtest/gtest.h>

#include "vm/interpreter.hpp"
#include "vm/memory.hpp"
#include "vm/program_builder.hpp"

namespace vpsim
{
namespace
{

using R = RegIndex;

/** Run a builder-made program to halt and return the interpreter. */
Interpreter
runToHalt(ProgramBuilder &b, Memory mem = {})
{
    static std::vector<Program> keep_alive;
    keep_alive.push_back(b.build());
    Interpreter interp(keep_alive.back(), std::move(mem));
    const auto result = interp.run(100000);
    EXPECT_TRUE(result.halted) << "program did not halt";
    return interp;
}

TEST(Memory, ReadsZeroWhenUntouched)
{
    Memory mem;
    EXPECT_EQ(mem.read8(0x1234), 0u);
    EXPECT_EQ(mem.read64(0xffff0000), 0u);
    EXPECT_EQ(mem.residentPages(), 0u);
}

TEST(Memory, ByteRoundTrip)
{
    Memory mem;
    mem.write8(0x42, 0xab);
    EXPECT_EQ(mem.read8(0x42), 0xabu);
}

TEST(Memory, WordRoundTripLittleEndian)
{
    Memory mem;
    mem.write64(0x100, 0x0123456789abcdefull);
    EXPECT_EQ(mem.read64(0x100), 0x0123456789abcdefull);
    EXPECT_EQ(mem.read8(0x100), 0xefu) << "little-endian byte order";
    EXPECT_EQ(mem.read8(0x107), 0x01u);
}

TEST(Memory, CrossPageWord)
{
    Memory mem;
    const Addr addr = 0x1ffd; // straddles a 4 KiB page boundary
    mem.write64(addr, 0x1122334455667788ull);
    EXPECT_EQ(mem.read64(addr), 0x1122334455667788ull);
    EXPECT_EQ(mem.residentPages(), 2u);
}

TEST(Memory, WriteWordsBulk)
{
    Memory mem;
    mem.writeWords(0x200, {1, 2, 3});
    EXPECT_EQ(mem.read64(0x200), 1u);
    EXPECT_EQ(mem.read64(0x208), 2u);
    EXPECT_EQ(mem.read64(0x210), 3u);
}

TEST(Memory, AlternatingPagesThroughTheMemo)
{
    // Every access switches page, so each one replaces the memo.
    Memory mem;
    const Addr a = 0x10000;
    const Addr b = 0x20008;
    for (Value i = 0; i < 16; ++i) {
        mem.write64(a + 8 * i, 0xa000 + i);
        mem.write64(b + 8 * i, 0xb000 + i);
        EXPECT_EQ(mem.read64(a + 8 * i), 0xa000 + i);
        EXPECT_EQ(mem.read64(b + 8 * i), 0xb000 + i);
        mem.write8(a + 200 + i, static_cast<std::uint8_t>(i));
        EXPECT_EQ(mem.read8(b + 8 * i), (0xb000 + i) & 0xff);
        EXPECT_EQ(mem.read8(a + 200 + i), i);
    }
    for (Value i = 0; i < 16; ++i) {
        EXPECT_EQ(mem.read64(a + 8 * i), 0xa000 + i);
        EXPECT_EQ(mem.read64(b + 8 * i), 0xb000 + i);
    }
    EXPECT_EQ(mem.residentPages(), 2u);
}

TEST(Memory, UntouchedPageReadsZeroWithoutAllocatingOrMovingTheMemo)
{
    Memory mem;
    mem.write64(0x5000, 0x1122334455667788ull); // the memo: page 5
    EXPECT_EQ(mem.read64(0x9000), 0u);
    EXPECT_EQ(mem.read8(0x9abc), 0u);
    EXPECT_EQ(mem.read64(0x9ff9), 0u) << "cross-page, both untouched";
    EXPECT_EQ(mem.residentPages(), 1u);
    EXPECT_EQ(mem.read64(0x5000), 0x1122334455667788ull);
    EXPECT_EQ(mem.read64(0x9000), 0u);
    EXPECT_EQ(mem.residentPages(), 1u);
}

TEST(Memory, WordsAtEveryOffsetNearThePageEnd)
{
    // Offsets 4088 (the last word inside the page) to 4095 (seven of
    // its bytes on the next page), with the memo on either page.
    for (Addr offset = 4088; offset <= 4095; ++offset) {
        SCOPED_TRACE("offset " + std::to_string(offset));
        const Addr addr = 0x40000 + offset;
        const Value word = 0x0102030405060708ull * (offset - 4087);
        Memory mem;
        mem.write64(addr, word);
        EXPECT_EQ(mem.read64(addr), word);
        for (unsigned i = 0; i < 8; ++i) {
            EXPECT_EQ(mem.read8(addr + i),
                      static_cast<std::uint8_t>(word >> (8 * i)));
        }
        EXPECT_EQ(mem.residentPages(), offset == 4088 ? 1u : 2u);
        mem.read8(0x41000); // memo on the next page (or untouched)
        EXPECT_EQ(mem.read64(addr), word);
        EXPECT_EQ(mem.read64(addr - 8), 0u);
        EXPECT_EQ(mem.read64(addr + 8), 0u);
    }
}

TEST(Memory, MovedMemoryDropsTheMemoOfItsOldPages)
{
    Memory source;
    source.write64(0x3000, 0xfeedfacecafebeefull); // memo: page 3
    EXPECT_EQ(source.read64(0x3000), 0xfeedfacecafebeefull);

    Memory moved(std::move(source));
    EXPECT_EQ(moved.read64(0x3000), 0xfeedfacecafebeefull);
    EXPECT_EQ(moved.residentPages(), 1u);

    // The moved-from Memory is empty and must not reach through its
    // old memo into the pages it gave away.
    EXPECT_EQ(source.residentPages(), 0u); // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(source.read64(0x3000), 0u);
    source.write64(0x3000, 1);
    EXPECT_EQ(source.read64(0x3000), 1u);
    EXPECT_EQ(moved.read64(0x3000), 0xfeedfacecafebeefull);

    Memory assigned;
    assigned.write64(0x7000, 7); // a memo of its own, then replaced
    assigned = std::move(moved);
    EXPECT_EQ(assigned.read64(0x3000), 0xfeedfacecafebeefull);
    EXPECT_EQ(assigned.read64(0x7000), 0u);
    EXPECT_EQ(moved.read64(0x3000), 0u); // NOLINT(bugprone-use-after-move)
    moved.write64(0x3000, 2);
    EXPECT_EQ(assigned.read64(0x3000), 0xfeedfacecafebeefull);
}

TEST(Interpreter, AluArithmetic)
{
    ProgramBuilder b("t");
    b.li(3, 7);
    b.li(4, 5);
    b.add(5, 3, 4);
    b.sub(6, 3, 4);
    b.mul(7, 3, 4);
    b.div(8, 3, 4);
    b.rem(9, 3, 4);
    b.halt();
    auto interp = runToHalt(b);
    EXPECT_EQ(interp.reg(5), 12u);
    EXPECT_EQ(interp.reg(6), 2u);
    EXPECT_EQ(interp.reg(7), 35u);
    EXPECT_EQ(interp.reg(8), 1u);
    EXPECT_EQ(interp.reg(9), 2u);
}

TEST(Interpreter, SignedArithmetic)
{
    ProgramBuilder b("t");
    b.li(3, -12);
    b.li(4, 5);
    b.div(5, 3, 4);
    b.rem(6, 3, 4);
    b.srai(7, 3, 1);
    b.halt();
    auto interp = runToHalt(b);
    EXPECT_EQ(static_cast<std::int64_t>(interp.reg(5)), -2);
    EXPECT_EQ(static_cast<std::int64_t>(interp.reg(6)), -2);
    EXPECT_EQ(static_cast<std::int64_t>(interp.reg(7)), -6);
}

TEST(Interpreter, DivisionByZeroIsDefined)
{
    ProgramBuilder b("t");
    b.li(3, 42);
    b.li(4, 0);
    b.div(5, 3, 4);
    b.rem(6, 3, 4);
    b.halt();
    auto interp = runToHalt(b);
    EXPECT_EQ(interp.reg(5), ~Value{0}) << "div by zero: all ones";
    EXPECT_EQ(interp.reg(6), 42u) << "rem by zero: dividend";
}

TEST(Interpreter, LogicAndShifts)
{
    ProgramBuilder b("t");
    b.li(3, 0b1100);
    b.li(4, 0b1010);
    b.and_(5, 3, 4);
    b.or_(6, 3, 4);
    b.xor_(7, 3, 4);
    b.li(8, 2);
    b.sll(9, 3, 8);
    b.srl(10, 3, 8);
    b.halt();
    auto interp = runToHalt(b);
    EXPECT_EQ(interp.reg(5), 0b1000u);
    EXPECT_EQ(interp.reg(6), 0b1110u);
    EXPECT_EQ(interp.reg(7), 0b0110u);
    EXPECT_EQ(interp.reg(9), 0b110000u);
    EXPECT_EQ(interp.reg(10), 0b11u);
}

TEST(Interpreter, Comparisons)
{
    ProgramBuilder b("t");
    b.li(3, -1);
    b.li(4, 1);
    b.slt(5, 3, 4);   // -1 < 1 signed
    b.sltu(6, 3, 4);  // huge unsigned < 1? no
    b.slti(7, 3, 0);  // -1 < 0
    b.halt();
    auto interp = runToHalt(b);
    EXPECT_EQ(interp.reg(5), 1u);
    EXPECT_EQ(interp.reg(6), 0u);
    EXPECT_EQ(interp.reg(7), 1u);
}

TEST(Interpreter, LuiShifts16)
{
    ProgramBuilder b("t");
    b.lui(3, 0x12);
    b.halt();
    auto interp = runToHalt(b);
    EXPECT_EQ(interp.reg(3), 0x120000u);
}

TEST(Interpreter, RegisterZeroStaysZero)
{
    ProgramBuilder b("t");
    b.li(0, 99);
    b.addi(3, 0, 1);
    b.halt();
    auto interp = runToHalt(b);
    EXPECT_EQ(interp.reg(0), 0u);
    EXPECT_EQ(interp.reg(3), 1u);
}

TEST(Interpreter, LoadsAndStores)
{
    ProgramBuilder b("t");
    b.li(3, 0x10000);
    b.li(4, 0xdead);
    b.st(4, 3, 8);
    b.ld(5, 3, 8);
    b.sb(4, 3, 0);
    b.lbu(6, 3, 0);
    b.halt();
    auto interp = runToHalt(b);
    EXPECT_EQ(interp.reg(5), 0xdeadu);
    EXPECT_EQ(interp.reg(6), 0xadu) << "byte store truncates";
    EXPECT_EQ(interp.memory().read64(0x10008), 0xdeadu);
}

TEST(Interpreter, InitialMemoryImageVisible)
{
    Memory mem;
    mem.write64(0x20000, 1234);
    ProgramBuilder b("t");
    b.li(3, 0x20000);
    b.ld(4, 3, 0);
    b.halt();
    auto interp = runToHalt(b, std::move(mem));
    EXPECT_EQ(interp.reg(4), 1234u);
}

TEST(Interpreter, BranchesTakenAndNot)
{
    ProgramBuilder b("t");
    Label skip = b.newLabel();
    Label out = b.newLabel();
    b.li(3, 1);
    b.li(4, 1);
    b.beq(3, 4, skip);
    b.li(5, 111); // skipped
    b.bind(skip);
    b.li(6, 222);
    b.bne(3, 4, out); // not taken
    b.li(7, 333);
    b.bind(out);
    b.halt();
    auto interp = runToHalt(b);
    EXPECT_EQ(interp.reg(5), 0u);
    EXPECT_EQ(interp.reg(6), 222u);
    EXPECT_EQ(interp.reg(7), 333u);
}

TEST(Interpreter, SignedVsUnsignedBranches)
{
    ProgramBuilder b("t");
    Label a = b.newLabel();
    Label done = b.newLabel();
    b.li(3, -1);
    b.li(4, 1);
    b.blt(3, 4, a);   // signed: taken
    b.halt();
    b.bind(a);
    b.li(5, 1);
    b.bltu(3, 4, done); // unsigned: 0xfff... < 1 is false, not taken
    b.li(6, 1);
    b.bind(done);
    b.halt();
    auto interp = runToHalt(b);
    EXPECT_EQ(interp.reg(5), 1u);
    EXPECT_EQ(interp.reg(6), 1u);
}

TEST(Interpreter, LoopExecutes)
{
    ProgramBuilder b("t");
    Label loop = b.newLabel();
    b.li(3, 0);        // sum
    b.li(4, 10);       // counter
    b.bind(loop);
    b.add(3, 3, 4);
    b.addi(4, 4, -1);
    b.bne(4, 0, loop);
    b.halt();
    auto interp = runToHalt(b);
    EXPECT_EQ(interp.reg(3), 55u);
}

TEST(Interpreter, CallAndReturn)
{
    ProgramBuilder b("t");
    Label fn = b.newLabel();
    Label main_code = b.newLabel();
    b.j(main_code);
    b.bind(fn);
    b.addi(22, 22, 100); // a0 += 100
    b.ret();
    b.bind(main_code);
    b.li(22, 5);
    b.call(fn);
    b.call(fn);
    b.halt();
    auto interp = runToHalt(b);
    EXPECT_EQ(interp.reg(22), 205u);
}

TEST(Interpreter, JumpTableViaJalr)
{
    ProgramBuilder b("t");
    Label case0 = b.newLabel();
    Label case1 = b.newLabel();
    Label done = b.newLabel();
    Label start = b.newLabel();
    b.j(start);
    b.bind(case0);
    b.li(5, 100);
    b.j(done);
    b.bind(case1);
    b.li(5, 200);
    b.j(done);
    b.bind(start);
    // table[2] in memory at 0x30000
    b.li(3, 0x30000);
    b.la(4, case1);
    b.st(4, 3, 8);
    b.la(4, case0);
    b.st(4, 3, 0);
    // select case 1
    b.li(6, 1);
    b.slli(6, 6, 3);
    b.add(6, 6, 3);
    b.ld(6, 6, 0);
    b.jr(6);
    b.bind(done);
    b.halt();
    auto interp = runToHalt(b);
    EXPECT_EQ(interp.reg(5), 200u);
}

TEST(Interpreter, TraceRecordsCarryValues)
{
    ProgramBuilder b("t");
    b.li(3, 41);
    b.addi(3, 3, 1);
    b.halt();
    Program prog = b.build();
    std::vector<TraceRecord> trace;
    Interpreter interp(prog, Memory{});
    interp.run(0, &trace);
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace[0].result, 41u);
    EXPECT_EQ(trace[1].result, 42u);
    EXPECT_EQ(trace[1].rs1, 3);
    EXPECT_EQ(trace[2].op, OpCode::Halt);
}

TEST(Interpreter, TraceBranchOutcomes)
{
    ProgramBuilder b("t");
    Label loop = b.newLabel();
    b.li(3, 2);
    b.bind(loop);
    b.addi(3, 3, -1);
    b.bne(3, 0, loop);
    b.halt();
    Program prog = b.build();
    std::vector<TraceRecord> trace;
    Interpreter interp(prog, Memory{});
    interp.run(0, &trace);
    // li, addi, bne(taken), addi, bne(not), halt
    ASSERT_EQ(trace.size(), 6u);
    EXPECT_TRUE(trace[2].taken);
    EXPECT_EQ(trace[2].nextPc, trace[1].pc);
    EXPECT_FALSE(trace[4].taken);
    EXPECT_EQ(trace[4].nextPc, trace[4].fallThrough());
}

TEST(Interpreter, FuelLimitStopsRun)
{
    ProgramBuilder b("t");
    Label loop = b.newLabel();
    b.bind(loop);
    b.addi(3, 3, 1);
    b.j(loop);
    Program prog = b.build();
    Interpreter interp(prog, Memory{});
    const auto result = interp.run(500);
    EXPECT_EQ(result.executed, 500u);
    EXPECT_FALSE(result.halted);
}

TEST(Interpreter, RunCanResume)
{
    ProgramBuilder b("t");
    Label loop = b.newLabel();
    b.bind(loop);
    b.addi(3, 3, 1);
    b.j(loop);
    Program prog = b.build();
    Interpreter interp(prog, Memory{});
    interp.run(100);
    interp.run(100);
    EXPECT_EQ(interp.reg(3), 100u) << "half the instructions are addi";
}

TEST(Interpreter, ShiftAmountsAreMasked)
{
    ProgramBuilder b("t");
    b.li(3, 1);
    b.li(4, 65);       // 65 & 63 == 1
    b.sll(5, 3, 4);
    b.srli(6, 3, 64);  // 64 & 63 == 0: unchanged
    b.halt();
    auto interp = runToHalt(b);
    EXPECT_EQ(interp.reg(5), 2u);
    EXPECT_EQ(interp.reg(6), 1u);
}

TEST(Interpreter, LuiAndOriBuildWideConstants)
{
    ProgramBuilder b("t");
    b.lui(3, 0x1234);
    b.ori(3, 3, 0x5678);
    b.halt();
    auto interp = runToHalt(b);
    EXPECT_EQ(interp.reg(3), 0x12345678u);
}

TEST(Interpreter, ByteLoadsZeroExtend)
{
    ProgramBuilder b("t");
    b.li(3, 0x10000);
    b.li(4, -1);       // 0xff..ff
    b.sb(4, 3, 0);
    b.lbu(5, 3, 0);
    b.halt();
    auto interp = runToHalt(b);
    EXPECT_EQ(interp.reg(5), 0xffu);
}

TEST(Interpreter, UnalignedWordAccess)
{
    ProgramBuilder b("t");
    b.li(3, 0x10003);  // not 8-aligned
    b.li(4, 0x1122334455667788);
    b.st(4, 3, 0);
    b.ld(5, 3, 0);
    b.halt();
    auto interp = runToHalt(b);
    EXPECT_EQ(interp.reg(5), 0x1122334455667788u);
}

TEST(Interpreter, NegativeImmediateAddressing)
{
    ProgramBuilder b("t");
    b.li(3, 0x10010);
    b.li(4, 77);
    b.st(4, 3, -16);
    b.li(5, 0x10000);
    b.ld(6, 5, 0);
    b.halt();
    auto interp = runToHalt(b);
    EXPECT_EQ(interp.reg(6), 77u);
}

TEST(ProgramBuilderTest, ForwardAndBackwardLabels)
{
    ProgramBuilder b("t");
    Label fwd = b.newLabel();
    b.j(fwd);
    b.nop();
    b.bind(fwd);
    b.halt();
    Program prog = b.build();
    EXPECT_EQ(prog.at(0).target, 2u);
}

TEST(ProgramBuilderTest, BoundAddrMatchesPc)
{
    ProgramBuilder b("t", 0x2000);
    b.nop();
    Label here = b.newLabel();
    b.bind(here);
    b.halt();
    EXPECT_EQ(b.boundAddr(here), 0x2004u);
}

TEST(ProgramBuilderTest, PcMapping)
{
    ProgramBuilder b("t", 0x1000);
    b.nop();
    b.nop();
    b.halt();
    Program prog = b.build();
    EXPECT_EQ(prog.pcOf(2), 0x1008u);
    EXPECT_EQ(prog.indexOf(0x1004), 1u);
    EXPECT_TRUE(prog.contains(0x1008));
    EXPECT_FALSE(prog.contains(0x100c));
    EXPECT_FALSE(prog.contains(0x1002));
}

TEST(ProgramBuilderTest, ListingShowsDisassembly)
{
    ProgramBuilder b("t");
    b.li(3, 7);
    b.halt();
    Program prog = b.build();
    const std::string listing = prog.listing();
    EXPECT_NE(listing.find("addi r3, r0, 7"), std::string::npos);
    EXPECT_NE(listing.find("halt"), std::string::npos);
}

} // namespace
} // namespace vpsim
