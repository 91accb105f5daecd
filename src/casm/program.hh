/**
 * @file
 * Executable program image: a text segment of decoded instructions, an
 * initialized data segment, and a symbol table.  Produced by the textual
 * assembler or the programmatic AsmBuilder; consumed by the functional
 * simulator and the DMT engine.
 */

#ifndef DMT_CASM_PROGRAM_HH
#define DMT_CASM_PROGRAM_HH

#include <map>
#include <string>
#include <vector>

#include "isa/inst.hh"

namespace dmt
{

/** A loaded program image. */
class Program
{
  public:
    /** Base address of the text segment. */
    static constexpr Addr kTextBase = 0x00400000;
    /** Base address of the initialized data segment. */
    static constexpr Addr kDataBase = 0x10000000;
    /** Initial stack pointer (stack grows down). */
    static constexpr Addr kStackTop = 0x7ffff000;

    /** Instructions, text[i] lives at kTextBase + 4*i. */
    std::vector<Instruction> text;
    /** Initialized bytes at kDataBase. */
    std::vector<u8> data;
    /** Execution entry point. */
    Addr entry = kTextBase;
    /** Label name -> address (text or data). */
    std::map<std::string, Addr> symbols;

    /** Number of instructions in the text segment. */
    size_t size() const { return text.size(); }

    /** First address past the text segment. */
    Addr
    textEnd() const
    {
        return kTextBase + static_cast<Addr>(text.size()) * 4;
    }

    /** True when @p pc addresses an instruction of this program. */
    bool
    validTextAddr(Addr pc) const
    {
        return pc >= kTextBase && pc < textEnd() && (pc & 3) == 0;
    }

    /**
     * Instruction at @p pc.  Out-of-range fetches (a speculative thread
     * running off the end) return HALT so the thread stops cleanly.
     */
    const Instruction &
    fetch(Addr pc) const
    {
        static const Instruction halt = makeHalt();
        if (!validTextAddr(pc))
            return halt;
        return text[(pc - kTextBase) / 4];
    }

    /** Address of symbol @p name; fatal() when missing. */
    Addr symbol(const std::string &name) const;

    /** True when the symbol table has @p name. */
    bool hasSymbol(const std::string &name) const;
};

} // namespace dmt

#endif // DMT_CASM_PROGRAM_HH
