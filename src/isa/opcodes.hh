/**
 * @file
 * Opcode enumeration and static opcode traits for the simulator's
 * MIPS-like 32-bit RISC instruction set.
 *
 * The ISA deliberately mirrors the SimpleScalar/MIPS subset the paper
 * simulates: three-operand integer ALU ops, immediate forms, loads and
 * stores of bytes/halves/words, two-register conditional branches,
 * absolute and register jumps with a link form for procedure calls, and
 * a HALT/OUT pair replacing syscalls so that runs are self-contained.
 */

#ifndef DMT_ISA_OPCODES_HH
#define DMT_ISA_OPCODES_HH

#include <cstdint>

#include "common/log.hh"

namespace dmt
{

enum class Opcode : std::uint8_t
{
    // ALU register-register
    ADD, SUB, AND, OR, XOR, NOR,
    SLL, SRL, SRA, SLLV, SRLV, SRAV,
    SLT, SLTU,
    MUL, MULH, DIV, DIVU, REM, REMU,
    // ALU register-immediate
    ADDI, ANDI, ORI, XORI, SLTI, SLTIU, LUI,
    // Memory
    LW, LH, LHU, LB, LBU, SW, SH, SB,
    // Conditional branches (PC-relative)
    BEQ, BNE, BLT, BGE, BLTU, BGEU,
    // Jumps
    J, JAL, JR, JALR,
    // Misc
    NOP, HALT, OUT,

    NumOpcodes
};

/** Broad execution classes used by the issue stage to pick an FU. */
enum class OpClass : std::uint8_t
{
    IntAlu,     ///< single-cycle integer op
    IntMul,     ///< pipelined multiplier
    IntDiv,     ///< unpipelined divider
    MemRead,    ///< load
    MemWrite,   ///< store
    Control,    ///< branch or jump
    Other,      ///< NOP / HALT / OUT
};

/** Static per-opcode properties. */
struct OpInfo
{
    const char *mnemonic;
    OpClass opClass;
    bool isLoad;
    bool isStore;
    bool isCondBranch;
    bool isJump;         ///< unconditional control transfer
    bool isCall;         ///< writes a return address (JAL / JALR)
    bool isIndirect;     ///< target comes from a register (JR / JALR)
    bool hasImm;
    /** Number of register sources actually read (0..2). */
    int numSrcs;
    /** true when the instruction writes a destination register. */
    bool hasDest;
};

/** Number of opcodes (for table sizing / iteration in tests). */
constexpr int kNumOpcodes = static_cast<int>(Opcode::NumOpcodes);

namespace detail
{

// Shorthand for table construction.
constexpr OpInfo
alu2(const char *m)
{
    return {m, OpClass::IntAlu, false, false, false, false, false, false,
            false, 2, true};
}

constexpr OpInfo
alu1Imm(const char *m)
{
    return {m, OpClass::IntAlu, false, false, false, false, false, false,
            true, 1, true};
}

constexpr OpInfo
branch(const char *m)
{
    return {m, OpClass::Control, false, false, true, false, false, false,
            true, 2, false};
}

constexpr OpInfo
load(const char *m)
{
    return {m, OpClass::MemRead, true, false, false, false, false, false,
            true, 1, true};
}

constexpr OpInfo
store(const char *m)
{
    return {m, OpClass::MemWrite, false, true, false, false, false, false,
            true, 2, false};
}

inline constexpr OpInfo kOpTable[kNumOpcodes] = {
    /* ADD   */ alu2("add"),
    /* SUB   */ alu2("sub"),
    /* AND   */ alu2("and"),
    /* OR    */ alu2("or"),
    /* XOR   */ alu2("xor"),
    /* NOR   */ alu2("nor"),
    /* SLL   */ alu1Imm("sll"),
    /* SRL   */ alu1Imm("srl"),
    /* SRA   */ alu1Imm("sra"),
    /* SLLV  */ alu2("sllv"),
    /* SRLV  */ alu2("srlv"),
    /* SRAV  */ alu2("srav"),
    /* SLT   */ alu2("slt"),
    /* SLTU  */ alu2("sltu"),
    /* MUL   */ {"mul", OpClass::IntMul, false, false, false, false, false,
                 false, false, 2, true},
    /* MULH  */ {"mulh", OpClass::IntMul, false, false, false, false, false,
                 false, false, 2, true},
    /* DIV   */ {"div", OpClass::IntDiv, false, false, false, false, false,
                 false, false, 2, true},
    /* DIVU  */ {"divu", OpClass::IntDiv, false, false, false, false, false,
                 false, false, 2, true},
    /* REM   */ {"rem", OpClass::IntDiv, false, false, false, false, false,
                 false, false, 2, true},
    /* REMU  */ {"remu", OpClass::IntDiv, false, false, false, false, false,
                 false, false, 2, true},
    /* ADDI  */ alu1Imm("addi"),
    /* ANDI  */ alu1Imm("andi"),
    /* ORI   */ alu1Imm("ori"),
    /* XORI  */ alu1Imm("xori"),
    /* SLTI  */ alu1Imm("slti"),
    /* SLTIU */ alu1Imm("sltiu"),
    /* LUI   */ {"lui", OpClass::IntAlu, false, false, false, false, false,
                 false, true, 0, true},
    /* LW    */ load("lw"),
    /* LH    */ load("lh"),
    /* LHU   */ load("lhu"),
    /* LB    */ load("lb"),
    /* LBU   */ load("lbu"),
    /* SW    */ store("sw"),
    /* SH    */ store("sh"),
    /* SB    */ store("sb"),
    /* BEQ   */ branch("beq"),
    /* BNE   */ branch("bne"),
    /* BLT   */ branch("blt"),
    /* BGE   */ branch("bge"),
    /* BLTU  */ branch("bltu"),
    /* BGEU  */ branch("bgeu"),
    /* J     */ {"j", OpClass::Control, false, false, false, true, false,
                 false, true, 0, false},
    /* JAL   */ {"jal", OpClass::Control, false, false, false, true, true,
                 false, true, 0, true},
    /* JR    */ {"jr", OpClass::Control, false, false, false, true, false,
                 true, false, 1, false},
    /* JALR  */ {"jalr", OpClass::Control, false, false, false, true, true,
                 true, false, 1, true},
    /* NOP   */ {"nop", OpClass::Other, false, false, false, false, false,
                 false, false, 0, false},
    /* HALT  */ {"halt", OpClass::Other, false, false, false, false, false,
                 false, false, 0, false},
    /* OUT   */ {"out", OpClass::Other, false, false, false, false, false,
                 false, false, 1, false},
};

} // namespace detail

/**
 * Lookup table access; panics on out-of-range opcode.  Inline: the
 * engine asks for opcode traits dozens of times per retired
 * instruction.
 */
inline const OpInfo &
opInfo(Opcode op)
{
    const int idx = static_cast<int>(op);
    DMT_ASSERT(idx >= 0 && idx < kNumOpcodes, "opcode out of range: %d",
               idx);
    return detail::kOpTable[idx];
}

/** Convenience: mnemonic text for an opcode. */
const char *mnemonic(Opcode op);

} // namespace dmt

#endif // DMT_ISA_OPCODES_HH
