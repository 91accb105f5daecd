/**
 * @file
 * Programmatic assembler: a type-safe builder for constructing Program
 * images from C++.  Used by the synthetic SPEC95int-like workloads where
 * hand-maintaining thousands of lines of textual assembly would be
 * error-prone.
 *
 * Labels are integer handles; forward references are recorded as fixups
 * and patched in finish().  A reference may carry an addend (the
 * address of `table + 8`).  The textual assembler drives this builder
 * too, so every Program is built here.
 */

#ifndef DMT_CASM_BUILDER_HH
#define DMT_CASM_BUILDER_HH

#include <string>
#include <vector>

#include "casm/program.hh"
#include "isa/regs.hh"

namespace dmt
{

/** Builder for Program images. */
class AsmBuilder
{
  public:
    using Label = int;

    /** How a reference patches the instruction or data it sits in. */
    enum class FixKind
    {
        Branch,     ///< imm = target - (pc + 4)
        Abs,        ///< imm = target (jumps and ALU immediates)
        LuiHi,      ///< imm = target >> 16
        OriLo,      ///< imm = target & 0xFFFF
        Data,       ///< little-endian target in 1, 2 or 4 data bytes
    };

    AsmBuilder() = default;

    /** Create a new unbound label; @p name (if any) lands in symbols. */
    Label newLabel(std::string name = "");

    /** Bind @p l to the current text position. */
    void bind(Label l);

    /** Bind @p l to the current data position. */
    void bindData(Label l);

    /** Create a label bound to the current text position. */
    Label
    here(std::string name = "")
    {
        Label l = newLabel(std::move(name));
        bind(l);
        return l;
    }

    // ---- data section -------------------------------------------------

    /** Current data address. */
    Addr dataAddr() const;

    /** Append words; returns the address of the first. */
    Addr dataWords(const std::vector<u32> &values);

    /** Append @p n zero bytes; returns the start address. */
    Addr dataSpace(u32 n);

    /** Append raw bytes; returns the start address. */
    Addr dataBytes(const std::vector<u8> &bytes);

    /** Pad the data section to an @p n-byte boundary. */
    void dataAlign(u32 n);

    /** Append @p bytes bytes holding the address of @p target plus
     *  @p addend, patched in finish(). */
    void dataRef(int bytes, Label target, i64 addend = 0);

    // ---- ALU -----------------------------------------------------------

    void add(LogReg rd, LogReg rs, LogReg rt);
    void sub(LogReg rd, LogReg rs, LogReg rt);
    void and_(LogReg rd, LogReg rs, LogReg rt);
    void or_(LogReg rd, LogReg rs, LogReg rt);
    void xor_(LogReg rd, LogReg rs, LogReg rt);
    void nor_(LogReg rd, LogReg rs, LogReg rt);
    void slt(LogReg rd, LogReg rs, LogReg rt);
    void sltu(LogReg rd, LogReg rs, LogReg rt);
    void mul(LogReg rd, LogReg rs, LogReg rt);
    void mulh(LogReg rd, LogReg rs, LogReg rt);
    void div_(LogReg rd, LogReg rs, LogReg rt);
    void divu(LogReg rd, LogReg rs, LogReg rt);
    void rem(LogReg rd, LogReg rs, LogReg rt);
    void remu(LogReg rd, LogReg rs, LogReg rt);
    void sll(LogReg rd, LogReg rs, int shamt);
    void srl(LogReg rd, LogReg rs, int shamt);
    void sra(LogReg rd, LogReg rs, int shamt);
    void sllv(LogReg rd, LogReg rs, LogReg rt);
    void srlv(LogReg rd, LogReg rs, LogReg rt);
    void srav(LogReg rd, LogReg rs, LogReg rt);
    void addi(LogReg rd, LogReg rs, i32 imm);
    void andi(LogReg rd, LogReg rs, u32 imm);
    void ori(LogReg rd, LogReg rs, u32 imm);
    void xori(LogReg rd, LogReg rs, u32 imm);
    void slti(LogReg rd, LogReg rs, i32 imm);
    void sltiu(LogReg rd, LogReg rs, i32 imm);
    void lui(LogReg rd, u32 imm16);

    // ---- memory ---------------------------------------------------------

    void lw(LogReg rd, i32 off, LogReg base);
    void lh(LogReg rd, i32 off, LogReg base);
    void lhu(LogReg rd, i32 off, LogReg base);
    void lb(LogReg rd, i32 off, LogReg base);
    void lbu(LogReg rd, i32 off, LogReg base);
    void sw(LogReg rt, i32 off, LogReg base);
    void sh(LogReg rt, i32 off, LogReg base);
    void sb(LogReg rt, i32 off, LogReg base);

    // ---- control --------------------------------------------------------

    void beq(LogReg rs, LogReg rt, Label target);
    void bne(LogReg rs, LogReg rt, Label target);
    void blt(LogReg rs, LogReg rt, Label target);
    void bge(LogReg rs, LogReg rt, Label target);
    void bltu(LogReg rs, LogReg rt, Label target);
    void bgeu(LogReg rs, LogReg rt, Label target);
    void beqz(LogReg rs, Label target);
    void bnez(LogReg rs, Label target);
    void bltz(LogReg rs, Label target);
    void bgez(LogReg rs, Label target);
    void bgtz(LogReg rs, Label target);
    void blez(LogReg rs, Label target);
    void b(Label target);
    void j(Label target);
    void jal(Label target);
    void jr(LogReg rs);
    void jalr(LogReg rs);
    void ret();

    // ---- pseudo / misc ----------------------------------------------------

    void li(LogReg rd, u32 value);
    /** LUI+ORI of the address of @p label plus @p addend. */
    void la(LogReg rd, Label label, i64 addend = 0);
    void move(LogReg rd, LogReg rs);
    void nop();
    void halt();
    void out(LogReg rs);
    void push_(LogReg rs);
    void pop_(LogReg rd);

    /**
     * Function prologue: reserve @p frame_bytes of stack and save $ra in
     * the top slot.  frame_bytes must be >= 4 and word aligned.
     */
    void enter(int frame_bytes);

    /** Matching epilogue: restore $ra, pop the frame, return. */
    void leave(int frame_bytes);

    /** Append one instruction as given. */
    void emit(Instruction inst);

    /** Append @p inst with its immediate patched in finish() from the
     *  address of @p target plus @p addend. */
    void emitRef(Instruction inst, FixKind kind, Label target,
                 i64 addend = 0);

    /** Number of instructions emitted so far. */
    size_t textSize() const { return text.size(); }

    /**
     * Finalize: resolve all fixups and hand out the image.  fatal()s on
     * unbound labels.  The builder must not be reused afterwards.
     */
    Program finish();

  private:
    struct LabelInfo
    {
        std::string name;
        bool bound = false;
        Addr addr = 0;
    };

    struct Fixup
    {
        size_t at;          ///< text index, or data offset for Data
        Label label;
        FixKind kind;
        int bytes;          ///< Data only: bytes patched
        i64 addend;
    };

    Addr pcAt(size_t idx) const;

    std::vector<Instruction> text;
    std::vector<u8> data;
    std::vector<LabelInfo> labels;
    std::vector<Fixup> fixups;
    bool finished = false;
};

} // namespace dmt

#endif // DMT_CASM_BUILDER_HH
