/**
 * @file
 * ISA-level tests: opcode traits, instruction classification, an
 * exhaustive encode/decode round-trip sweep over every opcode, and a
 * disassemble/assemble round trip that holds the two to one syntax.
 */

#include <gtest/gtest.h>

#include "casm/assembler.hh"
#include "common/rng.hh"
#include "isa/disasm.hh"
#include "isa/encoding.hh"
#include "isa/regs.hh"

namespace dmt
{
namespace
{

TEST(OpInfo, Classification)
{
    EXPECT_TRUE(opInfo(Opcode::LW).isLoad);
    EXPECT_TRUE(opInfo(Opcode::SB).isStore);
    EXPECT_TRUE(opInfo(Opcode::BEQ).isCondBranch);
    EXPECT_TRUE(opInfo(Opcode::JAL).isCall);
    EXPECT_TRUE(opInfo(Opcode::JALR).isIndirect);
    EXPECT_FALSE(opInfo(Opcode::J).isIndirect);
    EXPECT_EQ(opInfo(Opcode::ADD).numSrcs, 2);
    EXPECT_EQ(opInfo(Opcode::ADDI).numSrcs, 1);
    EXPECT_EQ(opInfo(Opcode::LUI).numSrcs, 0);
    EXPECT_FALSE(opInfo(Opcode::SW).hasDest);
    EXPECT_TRUE(opInfo(Opcode::JAL).hasDest);
}

TEST(Instruction, SourcesAndDest)
{
    Instruction add{Opcode::ADD, 3, 1, 2, 0};
    EXPECT_EQ(add.numSrcs(), 2);
    EXPECT_EQ(add.src(0), 1);
    EXPECT_EQ(add.src(1), 2);
    EXPECT_EQ(add.dest(), 3);
    EXPECT_EQ(add.effectiveDest(), 3);

    Instruction to_zero{Opcode::ADD, 0, 1, 2, 0};
    EXPECT_EQ(to_zero.dest(), 0);
    EXPECT_EQ(to_zero.effectiveDest(), -1)
        << "writes to r0 are architecturally discarded";

    Instruction sw{Opcode::SW, 0, 29, 8, 16};
    EXPECT_EQ(sw.dest(), -1);
    EXPECT_EQ(sw.numSrcs(), 2);
}

TEST(Instruction, BranchTargets)
{
    Instruction beq{Opcode::BEQ, 0, 1, 2, -16};
    EXPECT_TRUE(beq.isBackwardBranch(0x1000));
    EXPECT_EQ(beq.branchTarget(0x1000), 0x1000u + 4 - 16);

    Instruction fwd{Opcode::BNE, 0, 1, 2, 32};
    EXPECT_FALSE(fwd.isBackwardBranch(0x1000));
    EXPECT_EQ(fwd.branchTarget(0x1000), 0x1024u);

    Instruction j{Opcode::J, 0, 0, 0,
                  static_cast<i32>(0x00400100)};
    EXPECT_EQ(j.jumpTarget(), 0x00400100u);
}

TEST(Instruction, ReturnDetection)
{
    Instruction ret{Opcode::JR, 0, reg::ra, 0, 0};
    EXPECT_TRUE(ret.isReturn());
    Instruction jr_other{Opcode::JR, 0, reg::t0, 0, 0};
    EXPECT_FALSE(jr_other.isReturn());
}

TEST(Instruction, MemBytes)
{
    EXPECT_EQ(Instruction{Opcode::LW}.memBytes(), 4);
    EXPECT_EQ(Instruction{Opcode::LH}.memBytes(), 2);
    EXPECT_EQ(Instruction{Opcode::SB}.memBytes(), 1);
    EXPECT_EQ(Instruction{Opcode::ADD}.memBytes(), 0);
    EXPECT_TRUE(Instruction{Opcode::LB}.memSigned());
    EXPECT_FALSE(Instruction{Opcode::LBU}.memSigned());
}

TEST(Regs, NamesRoundTrip)
{
    for (int i = 0; i < kNumLogRegs; ++i) {
        LogReg r = 99;
        ASSERT_TRUE(parseReg(regName(static_cast<LogReg>(i)), &r));
        EXPECT_EQ(r, i);
    }
}

TEST(Regs, NumericForms)
{
    LogReg r;
    EXPECT_TRUE(parseReg("$29", &r));
    EXPECT_EQ(r, reg::sp);
    EXPECT_TRUE(parseReg("r31", &r));
    EXPECT_EQ(r, reg::ra);
    EXPECT_TRUE(parseReg("5", &r));
    EXPECT_EQ(r, 5);
    EXPECT_FALSE(parseReg("$32", &r));
    EXPECT_FALSE(parseReg("bogus", &r));
    EXPECT_FALSE(parseReg("", &r));
}

/**
 * A random valid instruction of @p op, built from its operand form; the
 * fields the form does not carry stay zero.
 */
Instruction
sampleInst(Opcode op, Rng &rng)
{
    const auto reg = [&] { return static_cast<LogReg>(rng.below(32)); };
    const auto simm16 = [&] {
        return static_cast<i32>(rng.range(-32768, 32767));
    };
    const OpInfo &info = opInfo(op);
    Instruction inst{op};
    switch (info.form) {
      case Form::RRR:
        inst.rd = reg();
        inst.rs = reg();
        inst.rt = reg();
        break;
      case Form::RRI:
      case Form::Load:
        inst.rd = reg();
        inst.rs = reg();
        inst.imm = simm16();
        break;
      case Form::RRIU:
        inst.rd = reg();
        inst.rs = reg();
        inst.imm = static_cast<i32>(rng.below(0x10000));
        break;
      case Form::Shift:
        inst.rd = reg();
        inst.rs = reg();
        inst.imm = static_cast<i32>(rng.below(32));
        break;
      case Form::Lui:
        inst.rd = reg();
        inst.imm = static_cast<i32>(rng.below(0x10000));
        break;
      case Form::Store:
        inst.rt = reg();
        inst.rs = reg();
        inst.imm = simm16();
        break;
      case Form::Branch:
        inst.rs = reg();
        inst.rt = reg();
        inst.imm = static_cast<i32>(rng.range(-8192, 8191)) * 4;
        break;
      case Form::Jump:
        inst.imm = static_cast<i32>(rng.below(1 << 24)) * 4;
        if (info.isCall)
            inst.rd = reg::ra;
        break;
      case Form::JumpReg:
        inst.rs = reg();
        if (info.isCall)
            inst.rd = reg();
        break;
      case Form::Out:
        inst.rs = reg();
        break;
      case Form::None:
        break;
    }
    return inst;
}

class EncodingRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(EncodingRoundTrip, EncodeDecodeIdentity)
{
    const Opcode op = static_cast<Opcode>(GetParam());
    Rng rng(static_cast<u64>(GetParam()) * 977 + 3);
    for (int i = 0; i < 200; ++i) {
        const Instruction inst = sampleInst(op, rng);
        u32 word = 0;
        std::string err;
        ASSERT_TRUE(encodeInst(inst, &word, &err))
            << mnemonic(op) << ": " << err;
        const Instruction back = decodeInst(word);
        EXPECT_EQ(back.op, inst.op);
        if (inst.info().hasDest) {
            EXPECT_EQ(back.rd, inst.rd) << mnemonic(op);
        }
        if (inst.numSrcs() >= 1) {
            EXPECT_EQ(back.src(0), inst.src(0)) << mnemonic(op);
        }
        if (inst.numSrcs() >= 2) {
            EXPECT_EQ(back.src(1), inst.src(1)) << mnemonic(op);
        }
        EXPECT_EQ(back.imm, inst.imm) << mnemonic(op);
    }
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, EncodingRoundTrip,
                         ::testing::Range(0, kNumOpcodes));

TEST(Encoding, RejectsOutOfRange)
{
    u32 word;
    std::string err;
    Instruction bad{Opcode::ADDI, 1, 2, 0, 40000};
    EXPECT_FALSE(encodeInst(bad, &word, &err));
    Instruction badsh{Opcode::SLL, 1, 2, 0, 33};
    EXPECT_FALSE(encodeInst(badsh, &word, &err));
    Instruction badbr{Opcode::BEQ, 0, 1, 2, 6}; // not word aligned
    EXPECT_FALSE(encodeInst(badbr, &word, &err));
}

TEST(Encoding, GarbageDecodesToHalt)
{
    const Instruction inst = decodeInst(0xFFFFFFFFu);
    EXPECT_EQ(inst.op, Opcode::HALT);
}

TEST(Disasm, RendersCommonForms)
{
    EXPECT_EQ(disassemble({Opcode::ADD, 3, 1, 2, 0}), "add $v1, $at, $v0");
    EXPECT_EQ(disassemble({Opcode::ADDI, 8, 9, 0, -4}),
              "addi $t0, $t1, -4");
    EXPECT_EQ(disassemble({Opcode::LW, 8, 29, 0, 16}), "lw $t0, 16($sp)");
    EXPECT_EQ(disassemble({Opcode::SW, 0, 29, 8, 16}), "sw $t0, 16($sp)");
    EXPECT_EQ(disassemble({Opcode::JR, 0, 31, 0, 0}), "jr $ra");
    EXPECT_EQ(disassemble(makeHalt()), "halt");
    const std::string br =
        disassemble({Opcode::BEQ, 0, 1, 2, 8}, 0x400000);
    EXPECT_NE(br.find("beq"), std::string::npos);
    EXPECT_NE(br.find("0x40000c"), std::string::npos);
}

TEST(Disasm, ReassemblesToTheSameInstruction)
{
    Rng rng(41);
    for (int o = 0; o < kNumOpcodes; ++o) {
        for (int i = 0; i < 20; ++i) {
            const Instruction inst = sampleInst(static_cast<Opcode>(o), rng);
            const std::string text = disassemble(inst, Program::kTextBase);
            const AsmResult r = assembleSource(text);
            ASSERT_TRUE(r.ok) << text << ": " << r.errorText();
            ASSERT_EQ(r.program.text.size(), 1u) << text;
            EXPECT_EQ(r.program.text[0], inst) << text;
        }
    }
}

} // namespace
} // namespace dmt
