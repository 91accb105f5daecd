/**
 * @file
 * Textual assembler tests: syntax, directives, labels, pseudo-ops,
 * error reporting, and functional agreement with hand-built programs.
 */

#include <gtest/gtest.h>

#include "casm/assembler.hh"
#include "isa/encoding.hh"
#include "isa/regs.hh"
#include "reference_run.hh"

namespace dmt
{
namespace
{

TEST(Assembler, MinimalProgram)
{
    AsmResult r = assembleSource("halt\n");
    ASSERT_TRUE(r.ok) << r.errorText();
    ASSERT_EQ(r.program.text.size(), 1u);
    EXPECT_EQ(r.program.text[0].op, Opcode::HALT);
}

TEST(Assembler, CommentsAndBlankLines)
{
    AsmResult r = assembleSource(R"(
        # full line comment
        addi $t0, $zero, 1   # trailing comment
        ; alternative comment
        halt
    )");
    ASSERT_TRUE(r.ok) << r.errorText();
    EXPECT_EQ(r.program.text.size(), 2u);
}

TEST(Assembler, LabelsAndBranches)
{
    const auto out = referenceOutput(assembleOrDie(R"(
            li   $t0, 0
            li   $t1, 5
    loop:   addi $t0, $t0, 1
            blt  $t0, $t1, loop
            out  $t0
            halt
    )"));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 5u);
}

TEST(Assembler, DataDirectivesAndLoads)
{
    const auto out = referenceOutput(assembleOrDie(R"(
            .data
    words:  .word 10, 20, 30
    halves: .half 7, 9
    bytes:  .byte 1, 2, 3
            .align 4
    msg:    .asciiz "AB"
            .text
            la   $t0, words
            lw   $t1, 4($t0)
            out  $t1
            la   $t2, halves
            lhu  $t3, 2($t2)
            out  $t3
            la   $t4, bytes
            lbu  $t5, 2($t4)
            out  $t5
            la   $t6, msg
            lbu  $t7, 1($t6)
            out  $t7
            halt
    )"));
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], 20u);
    EXPECT_EQ(out[1], 9u);
    EXPECT_EQ(out[2], 3u);
    EXPECT_EQ(out[3], static_cast<u32>('B'));
}

TEST(Assembler, PseudoOps)
{
    const auto out = referenceOutput(assembleOrDie(R"(
            li   $t0, 0x12345678
            out  $t0
            li   $t1, -7
            out  $t1
            move $t2, $t0
            out  $t2
            not  $t3, $zero
            out  $t3
            neg  $t4, $t1
            out  $t4
            subi $t5, $t4, 3
            out  $t5
            halt
    )"));
    ASSERT_EQ(out.size(), 6u);
    EXPECT_EQ(out[0], 0x12345678u);
    EXPECT_EQ(out[1], static_cast<u32>(-7));
    EXPECT_EQ(out[2], 0x12345678u);
    EXPECT_EQ(out[3], 0xFFFFFFFFu);
    EXPECT_EQ(out[4], 7u);
    EXPECT_EQ(out[5], 4u);
}

TEST(Assembler, ConditionalPseudoBranches)
{
    const auto out = referenceOutput(assembleOrDie(R"(
            li   $t0, -3
            li   $t1, 0
            bltz $t0, neg_path
            li   $t1, 99
    neg_path:
            bgtz $t0, wrong
            addi $t1, $t1, 1
    wrong:  blez $t0, done
            addi $t1, $t1, 100
    done:   out  $t1
            halt
    )"));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 1u);
}

TEST(Assembler, CallAndStack)
{
    const auto out = referenceOutput(assembleOrDie(R"(
            li   $a0, 6
            jal  twice
            out  $v0
            halt
    twice:  push $a0
            pop  $t0
            sll  $v0, $t0, 1
            ret
    )"));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 12u);
}

TEST(Assembler, EntryDirective)
{
    AsmResult r = assembleSource(R"(
            .entry start
    other:  halt
    start:  out $zero
            halt
    )");
    ASSERT_TRUE(r.ok) << r.errorText();
    EXPECT_EQ(r.program.entry, r.program.symbol("start"));
}

TEST(Assembler, SymbolArithmetic)
{
    const auto out = referenceOutput(assembleOrDie(R"(
            .data
    tab:    .word 5, 6, 7
            .text
            la  $t0, tab+8
            lw  $t1, 0($t0)
            out $t1
            halt
    )"));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 7u);
}

TEST(Assembler, ForwardReferencesInOnePass)
{
    // Every reference names a label that is defined after it.
    AsmResult r = assembleSource(R"(
            la   $t0, tab+8
            li   $t1, later+4
            beq  $t0, $t1, done
            .data
    tab:    .word case0, case1, later
            .text
    case0:  nop
    case1:  nop
    done:   halt
            .data
    later:  .word 7
    )");
    ASSERT_TRUE(r.ok) << r.errorText();
    const Program &p = r.program;
    ASSERT_EQ(p.symbol("tab"), 0x10000000u);
    ASSERT_EQ(p.symbol("later"), 0x1000000cu);
    ASSERT_EQ(p.symbol("case0"), 0x00400014u);

    ASSERT_EQ(p.text.size(), 8u);
    EXPECT_EQ(p.text[0], (Instruction{Opcode::LUI, reg::t0, 0, 0, 0x1000}));
    EXPECT_EQ(p.text[1],
              (Instruction{Opcode::ORI, reg::t0, reg::t0, 0, 0x0008}));
    EXPECT_EQ(p.text[2], (Instruction{Opcode::LUI, reg::t1, 0, 0, 0x1000}));
    EXPECT_EQ(p.text[3],
              (Instruction{Opcode::ORI, reg::t1, reg::t1, 0, 0x0010}));
    // beq at 0x400010 reaches done at 0x40001c.
    EXPECT_EQ(p.text[4], (Instruction{Opcode::BEQ, 0, reg::t0, reg::t1, 8}));

    const std::vector<u8> want = {
        0x14, 0x00, 0x40, 0x00,  // case0
        0x18, 0x00, 0x40, 0x00,  // case1
        0x0c, 0x00, 0x00, 0x10,  // later
        0x07, 0x00, 0x00, 0x00,
    };
    EXPECT_EQ(p.data, want);
}

TEST(AssemblerErrors, UndefinedLabel)
{
    AsmResult r = assembleSource("j nowhere\nhalt\n");
    EXPECT_FALSE(r.ok);
    ASSERT_FALSE(r.errors.empty());
    EXPECT_NE(r.errorText().find("nowhere"), std::string::npos);
}

TEST(AssemblerErrors, DuplicateLabel)
{
    AsmResult r = assembleSource("a: nop\na: halt\n");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.errorText().find("duplicate"), std::string::npos);
}

TEST(AssemblerErrors, UnknownMnemonic)
{
    AsmResult r = assembleSource("frobnicate $t0, $t1\nhalt\n");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.errorText().find("frobnicate"), std::string::npos);
}

TEST(AssemblerErrors, BadRegister)
{
    AsmResult r = assembleSource("add $t0, $t1, $t99\nhalt\n");
    EXPECT_FALSE(r.ok);
}

TEST(AssemblerErrors, WrongOperandCount)
{
    AsmResult r = assembleSource("add $t0, $t1\nhalt\n");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.errorText().find("expects"), std::string::npos);
}

TEST(AssemblerErrors, DataDirectiveInText)
{
    AsmResult r = assembleSource(".word 1\nhalt\n");
    EXPECT_FALSE(r.ok);
}

TEST(AssemblerErrors, LiteralImmediatesMustFitTheirField)
{
    // Each field's edges assemble into encodable instructions; one past
    // an edge is an error.
    for (const char *ok :
         {"addi $t0, $t0, -32768", "slti $t0, $t0, 32767",
          "ori $t0, $t0, 0xFFFF", "subi $t0, $t0, 32768",
          "subi $t0, $t0, -32767", "halt\n.data\n.byte -128, 255",
          "halt\n.data\n.half -32768, 0xFFFF",
          "halt\n.data\n.word -2147483648, 0xFFFFFFFF"}) {
        const AsmResult r = assembleSource(ok);
        ASSERT_TRUE(r.ok) << ok << ": " << r.errorText();
        u32 word = 0;
        EXPECT_TRUE(encodeInst(r.program.text[0], &word, nullptr)) << ok;
    }
    for (const char *bad :
         {"addi $t0, $zero, 100000", "addi $t0, $t0, -32769",
          "ori $t0, $t0, 0x10000", "xori $t0, $t0, -1",
          "subi $t0, $t0, 32769", "halt\n.data\n.byte 256",
          "halt\n.data\n.byte 0x1ff", "halt\n.data\n.byte -129",
          "halt\n.data\n.half 0x12345",
          "halt\n.data\n.word 0x100000000"}) {
        const AsmResult r = assembleSource(bad);
        ASSERT_EQ(r.errors.size(), 1u) << bad;
        EXPECT_NE(r.errors[0].message.find("out of range"),
                  std::string::npos)
            << r.errors[0].message;
    }
}

TEST(AssemblerErrors, ReportsEveryErrorInLineOrder)
{
    AsmResult r = assembleSource("nop\n"
                                 "add $t0, $t1, $t99\n"
                                 ".data\n"
                                 ".bogus 3\n");
    ASSERT_FALSE(r.ok);
    ASSERT_EQ(r.errors.size(), 2u) << r.errorText();
    EXPECT_EQ(r.errors[0].line, 2);
    EXPECT_NE(r.errors[0].message.find("$t99"), std::string::npos);
    EXPECT_EQ(r.errors[1].line, 4);
    EXPECT_NE(r.errors[1].message.find("unknown directive"),
              std::string::npos);
}

TEST(AssemblerErrors, LineNumbersReported)
{
    AsmResult r = assembleSource("nop\nnop\nbogus\n");
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.errors.front().line, 3);
}

TEST(Assembler, LiSymbolAlwaysWide)
{
    // A forward-referenced symbol in li must assemble; a symbol always
    // takes the wide LUI+ORI form, whatever its final value.
    AsmResult r = assembleSource(R"(
            li $t0, later
            out $t0
            halt
            .data
    later:  .word 1
    )");
    ASSERT_TRUE(r.ok) << r.errorText();
}

} // namespace
} // namespace dmt
