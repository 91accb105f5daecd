/**
 * @file
 * Canonical decoded instruction representation and its static queries
 * (sources, destination, branch/call classification, targets).
 *
 * Register-field conventions:
 *  - ALU reg-reg:  rd <- rs OP rt
 *  - Shifts-imm:   rd <- rs SHIFT imm (imm is the shift amount)
 *  - ALU imm:      rd <- rs OP imm (logical imms are zero-extended by the
 *                  assembler; arithmetic imms are signed)
 *  - LUI:          rd <- imm << 16
 *  - Loads:        rd <- mem[rs + imm]
 *  - Stores:       mem[rs + imm] <- rt
 *  - Branches:     compare rs, rt; target = pc + 4 + imm (imm in bytes)
 *  - J/JAL:        target = imm (absolute byte address); JAL writes rd
 *  - JR:           target = rs
 *  - JALR:         target = rs; writes rd
 *  - OUT:          emits rs to the program output stream at retirement
 */

#ifndef DMT_ISA_INST_HH
#define DMT_ISA_INST_HH

#include "common/types.hh"
#include "isa/opcodes.hh"

namespace dmt
{

/** A decoded instruction, independent of its memory encoding. */
struct Instruction
{
    Opcode op = Opcode::NOP;
    LogReg rd = 0;
    LogReg rs = 0;
    LogReg rt = 0;
    i32 imm = 0;

    bool operator==(const Instruction &) const = default;

    const OpInfo &info() const { return opInfo(op); }

    bool isLoad() const { return info().isLoad; }
    bool isStore() const { return info().isStore; }
    bool isCondBranch() const { return info().isCondBranch; }
    bool isJump() const { return info().isJump; }
    bool isControl() const { return isCondBranch() || isJump(); }
    bool isCall() const { return info().isCall; }
    bool isIndirect() const { return info().isIndirect; }
    bool isReturn() const { return op == Opcode::JR && rs == 31; }
    bool isHalt() const { return op == Opcode::HALT; }

    /** Number of register sources read (0..2). */
    int numSrcs() const { return info().numSrcs; }

    /**
     * The i-th register source.  src(0) is always rs for one-source
     * instructions; two-source instructions read rs then rt.
     */
    LogReg src(int i) const { return i == 0 ? rs : rt; }

    /**
     * Destination logical register, or -1 when none (stores, branches,
     * HALT...).  Writes to r0 are architecturally discarded but still
     * reported here; callers interested in dataflow should use
     * effectiveDest().
     */
    int dest() const { return info().hasDest ? rd : -1; }

    /** dest() with r0-writes treated as no destination. */
    int
    effectiveDest() const
    {
        const int d = dest();
        return d == 0 ? -1 : d;
    }

    /** Conditional-branch target for an instance at @p pc. */
    Addr
    branchTarget(Addr pc) const
    {
        return pc + 4 + static_cast<u32>(imm);
    }

    /** Absolute target of J/JAL. */
    Addr jumpTarget() const { return static_cast<u32>(imm); }

    /**
     * True when this is a conditional branch whose target precedes it —
     * the paper's heuristic signal for a loop-closing branch.
     */
    bool
    isBackwardBranch(Addr pc) const
    {
        (void)pc; // backwardness is encoded in the (PC-relative) imm sign
        return isCondBranch() && imm < 0;
    }

    /** Bytes accessed by a load/store (1, 2 or 4); 0 otherwise. */
    int memBytes() const;

    /** True for loads that sign-extend (LB/LH). */
    bool memSigned() const;
};

/** A NOP instruction value. */
Instruction makeNop();

/** A HALT instruction value. */
Instruction makeHalt();

} // namespace dmt

#endif // DMT_ISA_INST_HH
