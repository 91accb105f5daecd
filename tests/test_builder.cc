/**
 * @file
 * AsmBuilder tests: label fixups (forward and backward), data layout,
 * pseudo-op expansions, and equivalence with the textual assembler.
 */

#include <gtest/gtest.h>

#include "casm/assembler.hh"
#include "casm/builder.hh"
#include "reference_run.hh"

namespace dmt
{
namespace
{

using namespace reg;

TEST(Builder, ForwardAndBackwardBranches)
{
    AsmBuilder b;
    const auto fwd = b.newLabel();
    const auto back = b.newLabel();
    b.li(t0, 0);
    b.bind(back);
    b.addi(t0, t0, 1);
    b.slti(t1, t0, 3);
    b.bnez(t1, back);
    b.beqz(zero, fwd); // always taken forward
    b.li(t0, 999);     // skipped
    b.bind(fwd);
    b.out(t0);
    b.halt();
    const auto out = referenceOutput(b.finish());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 3u);
}

TEST(Builder, JumpAndCallFixups)
{
    AsmBuilder b;
    const auto fn = b.newLabel("fn");
    const auto done = b.newLabel();
    b.li(a0, 4);
    b.jal(fn);
    b.out(v0);
    b.j(done);
    b.nop();
    b.bind(fn);
    b.mul(v0, a0, a0);
    b.ret();
    b.bind(done);
    b.halt();
    const auto out = referenceOutput(b.finish());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 16u);
}

TEST(Builder, DataSection)
{
    AsmBuilder b;
    const auto tab = b.newLabel("tab");
    b.bindData(tab);
    b.dataWords({11, 22, 33});
    const Addr spc = b.dataSpace(8);
    EXPECT_EQ(spc, Program::kDataBase + 12);
    b.dataAlign(16);
    const auto bytes = b.newLabel();
    b.bindData(bytes);
    b.dataBytes({0xAA, 0xBB});

    b.la(t0, tab);
    b.lw(t1, 8, t0);
    b.out(t1);
    b.la(t2, bytes);
    b.lbu(t3, 1, t2);
    b.out(t3);
    b.halt();
    const auto out = referenceOutput(b.finish());
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 33u);
    EXPECT_EQ(out[1], 0xBBu);
}

TEST(Builder, LiSelectsEncodings)
{
    AsmBuilder b;
    b.li(t0, 5);          // addi
    b.li(t1, 0xFFFF);     // ori
    b.li(t2, 0xDEADBEEF); // lui+ori
    b.out(t0);
    b.out(t1);
    b.out(t2);
    b.halt();
    const Program p = b.finish();
    EXPECT_EQ(p.text[0].op, Opcode::ADDI);
    EXPECT_EQ(p.text[1].op, Opcode::ORI);
    EXPECT_EQ(p.text[2].op, Opcode::LUI);
    EXPECT_EQ(p.text[3].op, Opcode::ORI);
    const auto out = referenceOutput(p);
    EXPECT_EQ(out[0], 5u);
    EXPECT_EQ(out[1], 0xFFFFu);
    EXPECT_EQ(out[2], 0xDEADBEEFu);
}

TEST(Builder, EnterLeaveFrame)
{
    AsmBuilder b;
    const auto fn = b.newLabel();
    b.li(a0, 10);
    b.jal(fn);
    b.out(v0);
    b.halt();
    b.bind(fn);
    b.enter(16);
    b.sw(a0, 0, sp);
    b.lw(t0, 0, sp);
    b.addi(v0, t0, 1);
    b.leave(16);
    const auto out = referenceOutput(b.finish());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 11u);
}

TEST(Builder, SymbolsExported)
{
    AsmBuilder b;
    const auto main_l = b.here("main");
    (void)main_l;
    b.halt();
    const auto data_l = b.newLabel("blob");
    b.bindData(data_l);
    b.dataWords({1});
    const Program p = b.finish();
    EXPECT_TRUE(p.hasSymbol("main"));
    EXPECT_TRUE(p.hasSymbol("blob"));
    EXPECT_EQ(p.symbol("main"), Program::kTextBase);
    EXPECT_EQ(p.symbol("blob"), Program::kDataBase);
}

TEST(Builder, AgreesWithTextAssembler)
{
    // The same tiny program written both ways must behave identically.
    AsmBuilder b;
    const auto loop = b.newLabel();
    b.li(s0, 0);
    b.li(s1, 10);
    b.li(s2, 0);
    b.bind(loop);
    b.mul(t0, s0, s0);
    b.add(s2, s2, t0);
    b.addi(s0, s0, 1);
    b.blt(s0, s1, loop);
    b.out(s2);
    b.halt();

    const Program text_prog = assembleOrDie(R"(
            li  $s0, 0
            li  $s1, 10
            li  $s2, 0
    loop:   mul $t0, $s0, $s0
            add $s2, $s2, $t0
            addi $s0, $s0, 1
            blt $s0, $s1, loop
            out $s2
            halt
    )");

    EXPECT_EQ(referenceOutput(b.finish()), referenceOutput(text_prog));
}

TEST(Program, FetchOutOfRangeIsHalt)
{
    AsmBuilder b;
    b.halt();
    const Program p = b.finish();
    EXPECT_TRUE(p.fetch(0).isHalt());
    EXPECT_TRUE(p.fetch(p.textEnd()).isHalt());
    EXPECT_TRUE(p.fetch(Program::kTextBase + 2).isHalt()) << "misaligned";
    EXPECT_FALSE(p.validTextAddr(Program::kTextBase + 4));
    EXPECT_TRUE(p.validTextAddr(Program::kTextBase));
}

} // namespace
} // namespace dmt
