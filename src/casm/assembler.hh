/**
 * @file
 * Textual assembler for the simulator ISA.  It reads the source once
 * and emits through an AsmBuilder: a real mnemonic is found in the
 * opcode table and its operands parsed by the opcode's form, a pseudo-op
 * calls the builder, and a name becomes a builder label at its first
 * use or definition, so forward references are resolved in finish().
 *
 * Syntax summary:
 *
 *     # comment, ; comment
 *             .text
 *     main:   addi  $sp, $sp, -16
 *             sw    $ra, 0($sp)
 *             jal   fib
 *             li    $t0, 0x12345678      # pseudo: lui+ori
 *             la    $t1, table           # pseudo: lui+ori
 *             move  $a0, $v0             # pseudo
 *             beqz  $a0, done            # pseudo
 *             b     loop                 # pseudo
 *             ret                        # pseudo: jr $ra
 *     done:   halt
 *             .data
 *     table:  .word 1, 2, 3
 *             .half 7, 9
 *             .byte 1
 *             .space 64
 *             .align 4
 *             .asciiz "hello"
 *
 * The optional ".entry label" directive sets the start PC (default: the
 * first text instruction).  A name may carry an addend (`tab+8`)
 * wherever an address fits: ALU immediates, branch and jump targets,
 * li / la and .word / .half / .byte.  Shift amounts, lui, memory offsets
 * and subi take literals only.  A literal must fit where it goes: a
 * signed ALU immediate, memory offset or subi in 16 bits, andi / ori /
 * xori and lui in 0..0xFFFF, a shift amount in 0..31, and a data value
 * in its width, signed or unsigned.  `li` of a literal in
 * [-32768, 0xFFFF] is one instruction; any other literal, or a name,
 * is LUI+ORI.
 *
 * Every error is reported, in line order; a name used but never
 * defined is reported once, at its first use.
 */

#ifndef DMT_CASM_ASSEMBLER_HH
#define DMT_CASM_ASSEMBLER_HH

#include <string>
#include <string_view>
#include <vector>

#include "casm/program.hh"

namespace dmt
{

/** One assembly diagnostic. */
struct AsmError
{
    int line;            ///< 1-based source line
    std::string message;
};

/** Result of an assembly run. */
struct AsmResult
{
    bool ok = false;
    Program program;
    std::vector<AsmError> errors;

    /** All diagnostics joined, one per line. */
    std::string errorText() const;
};

/** Assemble @p source into a program image. */
AsmResult assembleSource(std::string_view source);

/** Assemble, fatal()ing on any error — for known-good internal sources. */
Program assembleOrDie(std::string_view source);

} // namespace dmt

#endif // DMT_CASM_ASSEMBLER_HH
