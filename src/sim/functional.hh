/**
 * @file
 * Functional (untimed) execution semantics.  The single source of truth
 * for instruction behaviour: the DMT engine's execute stage calls the
 * same aluCompute()/branchTaken() helpers so that timing simulation and
 * the golden reference can never disagree on semantics.
 */

#ifndef DMT_SIM_FUNCTIONAL_HH
#define DMT_SIM_FUNCTIONAL_HH

#include "common/log.hh"
#include "isa/inst.hh"
#include "sim/arch_state.hh"
#include "sim/mainmem.hh"

namespace dmt
{

class Program;

/**
 * Compute an ALU result from source values.  For immediate forms the
 * second operand is ignored and inst.imm is used.  Valid only for
 * IntAlu/IntMul/IntDiv class instructions; callers handle loads
 * (memory), JAL/JALR (return address = pc + 4) and branches separately.
 * Inline, like the two helpers below: the detailed engine executes
 * every instruction through them from another translation unit.
 */
inline u32
aluCompute(const Instruction &inst, u32 rs_val, u32 rt_val)
{
    const u32 a = rs_val;
    const u32 b = rt_val;
    const i32 sa = static_cast<i32>(a);
    const i32 sb = static_cast<i32>(b);
    const u32 imm = static_cast<u32>(inst.imm);
    const i32 simm = inst.imm;

    switch (inst.op) {
      case Opcode::ADD: return a + b;
      case Opcode::SUB: return a - b;
      case Opcode::AND: return a & b;
      case Opcode::OR: return a | b;
      case Opcode::XOR: return a ^ b;
      case Opcode::NOR: return ~(a | b);
      case Opcode::SLL: return a << (imm & 31);
      case Opcode::SRL: return a >> (imm & 31);
      case Opcode::SRA: return static_cast<u32>(sa >> (imm & 31));
      case Opcode::SLLV: return a << (b & 31);
      case Opcode::SRLV: return a >> (b & 31);
      case Opcode::SRAV: return static_cast<u32>(sa >> (b & 31));
      case Opcode::SLT: return sa < sb ? 1 : 0;
      case Opcode::SLTU: return a < b ? 1 : 0;
      case Opcode::MUL:
        return static_cast<u32>(static_cast<i64>(sa)
                                * static_cast<i64>(sb));
      case Opcode::MULH:
        return static_cast<u32>((static_cast<i64>(sa)
                                 * static_cast<i64>(sb)) >> 32);
      case Opcode::DIV:
        if (b == 0)
            return 0xFFFFFFFFu;
        if (a == 0x80000000u && b == 0xFFFFFFFFu)
            return 0x80000000u;
        return static_cast<u32>(sa / sb);
      case Opcode::DIVU:
        return b == 0 ? 0xFFFFFFFFu : a / b;
      case Opcode::REM:
        if (b == 0)
            return a;
        if (a == 0x80000000u && b == 0xFFFFFFFFu)
            return 0;
        return static_cast<u32>(sa % sb);
      case Opcode::REMU:
        return b == 0 ? a : a % b;
      case Opcode::ADDI: return a + imm;
      case Opcode::ANDI: return a & imm;
      case Opcode::ORI: return a | imm;
      case Opcode::XORI: return a ^ imm;
      case Opcode::SLTI: return sa < simm ? 1 : 0;
      case Opcode::SLTIU: return a < imm ? 1 : 0;
      case Opcode::LUI: return imm << 16;
      default:
        panic("aluCompute on non-ALU opcode %s", mnemonic(inst.op));
    }
}

/** Evaluate a conditional branch. */
inline bool
branchTaken(const Instruction &inst, u32 rs_val, u32 rt_val)
{
    const i32 sa = static_cast<i32>(rs_val);
    const i32 sb = static_cast<i32>(rt_val);
    switch (inst.op) {
      case Opcode::BEQ: return rs_val == rt_val;
      case Opcode::BNE: return rs_val != rt_val;
      case Opcode::BLT: return sa < sb;
      case Opcode::BGE: return sa >= sb;
      case Opcode::BLTU: return rs_val < rt_val;
      case Opcode::BGEU: return rs_val >= rt_val;
      default:
        panic("branchTaken on non-branch opcode %s", mnemonic(inst.op));
    }
}

/** Effective memory address (size-aligned) for a load/store. */
inline Addr
memEffectiveAddr(const Instruction &inst, u32 rs_val)
{
    const Addr raw = rs_val + static_cast<u32>(inst.imm);
    return raw & ~static_cast<Addr>(inst.memBytes() - 1);
}

/** Everything a single functional step did (for checking/tracing). */
struct StepResult
{
    Addr pc = 0;
    Instruction inst;
    Addr next_pc = 0;
    bool halted = false;

    int dest = -1;       ///< logical destination (post r0-filter)
    u32 dest_val = 0;

    bool is_load = false;
    bool is_store = false;
    Addr mem_addr = 0;
    int mem_bytes = 0;
    u32 store_val = 0;

    bool emitted_out = false;
    u32 out_val = 0;
};

/**
 * Execute one instruction at state.pc, updating @p state and @p mem.
 * HALT (or a fetch outside the text segment) sets state.halted.
 */
StepResult functionalStep(ArchState &state, MainMemory &mem,
                          const Program &prog);

/**
 * Run the whole program functionally.
 *
 * @param max_steps safety bound; throws SimError when exceeded so
 *        sweep cells with runaway prefixes fail as cells, not as
 *        process exits.
 * @return executed instruction count.
 */
u64 runFunctional(ArchState &state, MainMemory &mem, const Program &prog,
                  u64 max_steps = 500'000'000);

} // namespace dmt

#endif // DMT_SIM_FUNCTIONAL_HH
