/**
 * @file
 * Functional-semantics tests: exhaustive ALU behaviour, branch
 * conditions, memory access sizes/sign extension, control flow, and
 * the golden checker's mismatch detection.
 */

#include <gtest/gtest.h>

#include "casm/builder.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "sim/checker.hh"
#include "sim/functional.hh"
#include "workloads/workloads.hh"

namespace dmt
{
namespace
{

using namespace reg;

u32
alu(Opcode op, u32 a, u32 b, i32 imm = 0)
{
    Instruction inst;
    inst.op = op;
    inst.imm = imm;
    return aluCompute(inst, a, b);
}

TEST(Alu, Arithmetic)
{
    EXPECT_EQ(alu(Opcode::ADD, 2, 3), 5u);
    EXPECT_EQ(alu(Opcode::ADD, 0xFFFFFFFF, 1), 0u) << "wraps";
    EXPECT_EQ(alu(Opcode::SUB, 2, 3), 0xFFFFFFFFu);
    EXPECT_EQ(alu(Opcode::MUL, 0x10000, 0x10000), 0u) << "low 32 bits";
    EXPECT_EQ(alu(Opcode::MULH, 0x80000000, 2),
              0xFFFFFFFFu) << "signed high";
}

TEST(Alu, Logic)
{
    EXPECT_EQ(alu(Opcode::AND, 0xF0F0, 0xFF00), 0xF000u);
    EXPECT_EQ(alu(Opcode::OR, 0xF0F0, 0x0F0F), 0xFFFFu);
    EXPECT_EQ(alu(Opcode::XOR, 0xFFFF, 0x00FF), 0xFF00u);
    EXPECT_EQ(alu(Opcode::NOR, 0, 0), 0xFFFFFFFFu);
}

TEST(Alu, Shifts)
{
    EXPECT_EQ(alu(Opcode::SLL, 1, 0, 31), 0x80000000u);
    EXPECT_EQ(alu(Opcode::SRL, 0x80000000, 0, 31), 1u);
    EXPECT_EQ(alu(Opcode::SRA, 0x80000000, 0, 31), 0xFFFFFFFFu);
    EXPECT_EQ(alu(Opcode::SLLV, 1, 35), 8u) << "shift amount mod 32";
    EXPECT_EQ(alu(Opcode::SRAV, 0xFFFF0000, 8), 0xFFFFFF00u);
}

TEST(Alu, Comparisons)
{
    EXPECT_EQ(alu(Opcode::SLT, 0xFFFFFFFF, 0), 1u) << "-1 < 0 signed";
    EXPECT_EQ(alu(Opcode::SLTU, 0xFFFFFFFF, 0), 0u);
    EXPECT_EQ(alu(Opcode::SLTI, 5, 0, 6), 1u);
    EXPECT_EQ(alu(Opcode::SLTIU, 5, 0, 4), 0u);
}

TEST(Alu, DivisionEdgeCases)
{
    EXPECT_EQ(alu(Opcode::DIV, 7, 2), 3u);
    EXPECT_EQ(alu(Opcode::DIV, static_cast<u32>(-7), 2),
              static_cast<u32>(-3));
    EXPECT_EQ(alu(Opcode::DIV, 5, 0), 0xFFFFFFFFu) << "div by zero";
    EXPECT_EQ(alu(Opcode::DIV, 0x80000000, 0xFFFFFFFF), 0x80000000u)
        << "INT_MIN / -1 overflow";
    EXPECT_EQ(alu(Opcode::REM, 7, 2), 1u);
    EXPECT_EQ(alu(Opcode::REM, 5, 0), 5u);
    EXPECT_EQ(alu(Opcode::REM, 0x80000000, 0xFFFFFFFF), 0u);
    EXPECT_EQ(alu(Opcode::DIVU, 0xFFFFFFFE, 2), 0x7FFFFFFFu);
    EXPECT_EQ(alu(Opcode::REMU, 10, 3), 1u);
}

TEST(Alu, Immediates)
{
    EXPECT_EQ(alu(Opcode::ADDI, 10, 0, -3), 7u);
    EXPECT_EQ(alu(Opcode::ANDI, 0xFFFF, 0, 0x00F0), 0xF0u);
    EXPECT_EQ(alu(Opcode::LUI, 0, 0, 0x1234), 0x12340000u);
}

TEST(Branches, Conditions)
{
    auto taken = [](Opcode op, u32 a, u32 b) {
        Instruction i;
        i.op = op;
        return branchTaken(i, a, b);
    };
    EXPECT_TRUE(taken(Opcode::BEQ, 4, 4));
    EXPECT_FALSE(taken(Opcode::BEQ, 4, 5));
    EXPECT_TRUE(taken(Opcode::BNE, 4, 5));
    EXPECT_TRUE(taken(Opcode::BLT, static_cast<u32>(-1), 0));
    EXPECT_FALSE(taken(Opcode::BLTU, static_cast<u32>(-1), 0));
    EXPECT_TRUE(taken(Opcode::BGE, 3, 3));
    EXPECT_TRUE(taken(Opcode::BGEU, static_cast<u32>(-1), 5));
}

TEST(Memory, EffectiveAddressAlignment)
{
    Instruction lw{Opcode::LW, 1, 2, 0, 3};
    EXPECT_EQ(memEffectiveAddr(lw, 0x1000), 0x1000u)
        << "word access aligns down";
    Instruction lb{Opcode::LB, 1, 2, 0, 3};
    EXPECT_EQ(memEffectiveAddr(lb, 0x1000), 0x1003u);
    Instruction lh{Opcode::LH, 1, 2, 0, 3};
    EXPECT_EQ(memEffectiveAddr(lh, 0x1000), 0x1002u);
}

TEST(Functional, LoadStoreSignExtension)
{
    AsmBuilder b;
    const auto buf = b.newLabel();
    b.bindData(buf);
    b.dataWords({0});
    b.la(t0, buf);
    b.li(t1, 0xFFFFFF85); // -123 as a byte: 0x85
    b.sb(t1, 0, t0);
    b.lb(t2, 0, t0);
    b.out(t2);
    b.lbu(t3, 0, t0);
    b.out(t3);
    b.li(t4, 0xFFFF8001);
    b.sh(t4, 2, t0);
    b.lh(t5, 2, t0);
    b.out(t5);
    b.lhu(t6, 2, t0);
    b.out(t6);
    b.lw(t7, 0, t0);
    b.out(t7);
    b.halt();

    const Program p = b.finish();
    ArchState st;
    MainMemory mem;
    st.reset(p);
    mem.loadProgram(p);
    runFunctional(st, mem, p);
    ASSERT_EQ(st.output.size(), 5u);
    EXPECT_EQ(st.output[0], 0xFFFFFF85u);
    EXPECT_EQ(st.output[1], 0x85u);
    EXPECT_EQ(st.output[2], 0xFFFF8001u);
    EXPECT_EQ(st.output[3], 0x8001u);
    EXPECT_EQ(st.output[4], 0x80010085u) << "little-endian layout";
}

TEST(Functional, LinkRegisterSemantics)
{
    AsmBuilder b;
    const auto fn = b.newLabel();
    b.jal(fn);      // at kTextBase: links kTextBase + 4
    b.out(v0);
    b.halt();
    b.bind(fn);
    b.move(v0, ra);
    b.ret();
    const Program p = b.finish();
    ArchState st;
    MainMemory mem;
    st.reset(p);
    mem.loadProgram(p);
    runFunctional(st, mem, p);
    ASSERT_EQ(st.output.size(), 1u);
    EXPECT_EQ(st.output[0], Program::kTextBase + 4);
}

TEST(Functional, R0IsHardwiredZero)
{
    AsmBuilder b;
    b.addi(zero, zero, 55);
    b.out(zero);
    b.halt();
    const Program p = b.finish();
    ArchState st;
    MainMemory mem;
    st.reset(p);
    runFunctional(st, mem, p);
    EXPECT_EQ(st.output[0], 0u);
}

TEST(Functional, FibMatchesClosedForm)
{
    const Program p = mkFibRecursive(15);
    ArchState st;
    MainMemory mem;
    st.reset(p);
    mem.loadProgram(p);
    runFunctional(st, mem, p);
    ASSERT_EQ(st.output.size(), 1u);
    EXPECT_EQ(st.output[0], 610u);
}

TEST(Functional, SumLoopClosedForm)
{
    const Program p = mkSumLoop(100);
    ArchState st;
    MainMemory mem;
    st.reset(p);
    mem.loadProgram(p);
    runFunctional(st, mem, p);
    EXPECT_EQ(st.output[0], 4950u);
}

TEST(Functional, StepCountBound)
{
    // Overrunning the step budget throws (PR 2 containment policy): a
    // sweep cell with a runaway prefix fails as a cell, not a process.
    const Program p = mkSumLoop(10);
    ArchState st;
    MainMemory mem;
    st.reset(p);
    mem.loadProgram(p);
    EXPECT_THROW(runFunctional(st, mem, p, 5), SimError);
}

/** A checker at @p p's entry conditions, as a fresh engine builds it. */
GoldenChecker
checkerAtEntry(const Program &p)
{
    ArchState st;
    MainMemory mem;
    st.reset(p);
    mem.loadProgram(p);
    return GoldenChecker(p, st, mem);
}

TEST(Checker, AcceptsCorrectStream)
{
    const Program p = mkSumLoop(5);
    ArchState st;
    MainMemory mem;
    st.reset(p);
    mem.loadProgram(p);
    GoldenChecker chk(p, st, mem);
    while (!st.halted) {
        const StepResult s = functionalStep(st, mem, p);
        RetireRecord rec;
        rec.pc = s.pc;
        rec.dest = s.dest;
        rec.dest_val = s.dest_val;
        rec.is_store = s.is_store;
        rec.mem_addr = s.mem_addr;
        rec.store_val = s.store_val;
        rec.emitted_out = s.emitted_out;
        rec.out_val = s.out_val;
        ASSERT_TRUE(chk.onRetire(rec)) << chk.error();
    }
    EXPECT_TRUE(chk.ok());
    EXPECT_TRUE(chk.goldenHalted());
}

TEST(Checker, DetectsWrongValue)
{
    const Program p = mkSumLoop(5);
    GoldenChecker chk = checkerAtEntry(p);
    RetireRecord rec;
    rec.pc = p.entry;
    rec.dest = 8; // $t0 = li 0
    rec.dest_val = 42; // wrong
    EXPECT_FALSE(chk.onRetire(rec));
    EXPECT_FALSE(chk.ok());
    EXPECT_NE(chk.error().find("result value"), std::string::npos);
}

TEST(Checker, DetectsWrongPc)
{
    const Program p = mkSumLoop(5);
    GoldenChecker chk = checkerAtEntry(p);
    RetireRecord rec;
    rec.pc = p.entry + 8;
    EXPECT_FALSE(chk.onRetire(rec));
    EXPECT_NE(chk.error().find("control flow"), std::string::npos);
}

TEST(MainMemoryTest, SparsePagesAndCopy)
{
    MainMemory m;
    EXPECT_EQ(m.read32(0x12345678), 0u) << "unallocated reads as zero";
    EXPECT_EQ(m.numPages(), 0u);
    m.write32(0x12345678, 0xCAFEBABE);
    EXPECT_EQ(m.read32(0x12345678), 0xCAFEBABEu);
    EXPECT_EQ(m.numPages(), 1u);

    // A copy allocates no page: it shares the original's until one
    // side writes, and a write to either side leaves the other as it
    // was.
    MainMemory copy = m;
    EXPECT_EQ(copy.pageData(0x12345678), m.pageData(0x12345678));
    copy.write32(0x12345678, 1);
    EXPECT_NE(copy.pageData(0x12345678), m.pageData(0x12345678));
    EXPECT_EQ(copy.read32(0x12345678), 1u);
    EXPECT_EQ(m.read32(0x12345678), 0xCAFEBABEu)
        << "copies are independent";

    MainMemory other = m;
    EXPECT_EQ(other.pageData(0x12345678), m.pageData(0x12345678));
    m.write32(0x12345678, 2);
    EXPECT_EQ(m.read32(0x12345678), 2u);
    EXPECT_EQ(other.read32(0x12345678), 0xCAFEBABEu)
        << "the original's write left its copy alone";
}

TEST(MainMemoryTest, AbsentPageReadsZeroWithoutAllocating)
{
    MainMemory m;
    for (const int bytes : {1, 2, 4}) {
        for (const bool sign : {false, true}) {
            EXPECT_EQ(m.read(0x20000003, bytes, sign), 0u)
                << bytes << "-byte read, sign " << sign;
        }
    }
    EXPECT_EQ(m.read8(0x5), 0u);
    EXPECT_EQ(m.read16(0x5), 0u);
    EXPECT_EQ(m.read32(0x5), 0u);
    EXPECT_EQ(m.numPages(), 0u) << "a read allocated a page";

    EXPECT_THROW(m.read(0x1000, 3, false), SimError);
    EXPECT_THROW(m.write(0x1000, 8, 0), SimError);
    EXPECT_EQ(m.numPages(), 0u) << "a rejected write allocated a page";
}

TEST(MainMemoryTest, SignedAndUnsignedSubwordReads)
{
    MainMemory m;
    m.write32(0x1000, 0x80ff7f80); // bytes 80 7f ff 80, little-endian
    EXPECT_EQ(m.read(0x1000, 1, false), 0x80u);
    EXPECT_EQ(m.read(0x1000, 1, true), 0xffffff80u);
    EXPECT_EQ(m.read(0x1001, 1, false), 0x7fu);
    EXPECT_EQ(m.read(0x1001, 1, true), 0x7fu);
    EXPECT_EQ(m.read(0x1000, 2, false), 0x7f80u);
    EXPECT_EQ(m.read(0x1000, 2, true), 0x7f80u);
    EXPECT_EQ(m.read(0x1002, 2, false), 0x80ffu);
    EXPECT_EQ(m.read(0x1002, 2, true), 0xffff80ffu);
    EXPECT_EQ(m.read(0x1000, 4, true), 0x80ff7f80u)
        << "a word read has nothing to extend";
    EXPECT_EQ(m.read8(0x1003), 0x80u);
    EXPECT_EQ(m.read16(0x1002), 0x80ffu);
}

TEST(MainMemoryTest, MisalignedAddressesMaskToTheirSize)
{
    MainMemory m;
    m.write32(0x2003, 0x44332211); // lands at 0x2000
    EXPECT_EQ(m.read32(0x2000), 0x44332211u);
    EXPECT_EQ(m.read32(0x2002), 0x44332211u);
    EXPECT_EQ(m.read16(0x2001), 0x2211u);
    EXPECT_EQ(m.read(0x2003, 2, true), 0x4433u);
    EXPECT_EQ(m.read8(0x2003), 0x44u) << "a byte access never masks";
    m.write16(0x2005, 0xbbaa); // lands at 0x2004
    m.write(0x2007, 1, 0x1cc); // the low byte only
    EXPECT_EQ(m.read32(0x2004), 0xcc00bbaau);
    EXPECT_EQ(m.numPages(), 1u);
}

TEST(MainMemoryTest, LoadProgramAcrossPagesMatchesByteWrites)
{
    Program prog;
    prog.data.resize(2 * MainMemory::kPageSize + 1234);
    Rng rng(7);
    for (u8 &b : prog.data)
        b = static_cast<u8>(rng.next32());

    MainMemory loaded;
    loaded.loadProgram(prog);
    MainMemory bytewise;
    for (size_t i = 0; i < prog.data.size(); ++i) {
        bytewise.write8(Program::kDataBase + static_cast<Addr>(i),
                        prog.data[i]);
    }
    EXPECT_EQ(loaded.numPages(), 3u);
    EXPECT_TRUE(loaded == bytewise);
}

} // namespace
} // namespace dmt
