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

/**
 * Operand form: the assembly operands an opcode takes, which also fixes
 * its encoding format, how its immediate extends, and how it prints.
 */
enum class Form : std::uint8_t
{
    RRR,        ///< rd, rs, rt
    RRI,        ///< rd, rs, imm (sign-extended)
    RRIU,       ///< rd, rs, imm (zero-extended: andi / ori / xori)
    Shift,      ///< rd, rs, shift amount
    Lui,        ///< rd, imm
    Load,       ///< rd, imm(rs)
    Store,      ///< rt, imm(rs)
    Branch,     ///< rs, rt, PC-relative target
    Jump,       ///< absolute target
    JumpReg,    ///< rs, or rd, rs when the jump links
    Out,        ///< rs
    None,       ///< no operands
};

/** Static per-opcode properties. */
struct OpInfo
{
    /**
     * Derive every trait from the operand form; @p links marks the
     * jumps that write a return address.  The flags stay stored fields
     * because the engine reads them several times per instruction.
     */
    constexpr OpInfo(const char *m, OpClass c, Form f, bool links = false)
        : mnemonic(m), opClass(c), isLoad(f == Form::Load),
          isStore(f == Form::Store), isCondBranch(f == Form::Branch),
          isJump(f == Form::Jump || f == Form::JumpReg), isCall(links),
          isIndirect(f == Form::JumpReg),
          hasImm(f != Form::RRR && f != Form::JumpReg && f != Form::Out
                 && f != Form::None),
          numSrcs(f == Form::RRR || f == Form::Store || f == Form::Branch
                      ? 2
                      : f == Form::Lui || f == Form::Jump || f == Form::None
                      ? 0
                      : 1),
          hasDest(f == Form::Jump || f == Form::JumpReg
                      ? links
                      : f != Form::Store && f != Form::Branch
                          && f != Form::Out && f != Form::None),
          form(f)
    {
    }

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
    Form form;
};

// The engine indexes the table several times per instruction.
static_assert(sizeof(OpInfo) == 24, "OpInfo grew");

/** Number of opcodes (for table sizing / iteration in tests). */
constexpr int kNumOpcodes = static_cast<int>(Opcode::NumOpcodes);

namespace detail
{

using enum OpClass;
using enum Form;

inline constexpr OpInfo kOpTable[kNumOpcodes] = {
    {"add", IntAlu, RRR},     {"sub", IntAlu, RRR},
    {"and", IntAlu, RRR},     {"or", IntAlu, RRR},
    {"xor", IntAlu, RRR},     {"nor", IntAlu, RRR},
    {"sll", IntAlu, Shift},   {"srl", IntAlu, Shift},
    {"sra", IntAlu, Shift},   {"sllv", IntAlu, RRR},
    {"srlv", IntAlu, RRR},    {"srav", IntAlu, RRR},
    {"slt", IntAlu, RRR},     {"sltu", IntAlu, RRR},
    {"mul", IntMul, RRR},     {"mulh", IntMul, RRR},
    {"div", IntDiv, RRR},     {"divu", IntDiv, RRR},
    {"rem", IntDiv, RRR},     {"remu", IntDiv, RRR},
    {"addi", IntAlu, RRI},    {"andi", IntAlu, RRIU},
    {"ori", IntAlu, RRIU},    {"xori", IntAlu, RRIU},
    {"slti", IntAlu, RRI},    {"sltiu", IntAlu, RRI},
    {"lui", IntAlu, Lui},
    {"lw", MemRead, Load},    {"lh", MemRead, Load},
    {"lhu", MemRead, Load},   {"lb", MemRead, Load},
    {"lbu", MemRead, Load},
    {"sw", MemWrite, Store},  {"sh", MemWrite, Store},
    {"sb", MemWrite, Store},
    {"beq", Control, Branch}, {"bne", Control, Branch},
    {"blt", Control, Branch}, {"bge", Control, Branch},
    {"bltu", Control, Branch}, {"bgeu", Control, Branch},
    {"j", Control, Jump},     {"jal", Control, Jump, true},
    {"jr", Control, JumpReg}, {"jalr", Control, JumpReg, true},
    {"nop", Other, None},     {"halt", Other, None},
    {"out", Other, Out},
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
