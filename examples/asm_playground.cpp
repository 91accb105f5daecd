/**
 * @file
 * Assembler playground: assemble a source file (or a built-in demo),
 * disassemble it back, run it functionally and on the DMT machine.
 *
 *     asm_playground            # built-in demo
 *     asm_playground prog.s     # your own program
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include "casm/assembler.hh"
#include "cli/env.hh"
#include "common/log.hh"
#include "dmt/engine.hh"
#include "isa/disasm.hh"
#include "sim/functional.hh"

namespace
{

const char *kDemo = R"(
# Demo: hash a small table and report the result.
        .data
table:  .word 12, 99, 7, 1024, 3, 42, 68, 5
        .text
        la   $s0, table
        li   $s1, 8          # elements
        li   $s2, 0          # index
        li   $v0, 0          # hash
loop:   sll  $t0, $s2, 2
        add  $t0, $t0, $s0
        lw   $t1, 0($t0)
        jal  mix
        addi $s2, $s2, 1
        blt  $s2, $s1, loop
        out  $v0
        halt

mix:    sll  $t2, $v0, 5     # hash = hash*33 + value
        add  $v0, $v0, $t2
        add  $v0, $v0, $t1
        ret
)";

} // namespace

int
main(int argc, char **argv)
{
    using namespace dmt;

    std::string source = kDemo;
    if (argc > 1) {
        std::ifstream in(argv[1]);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n", argv[1]);
            return 1;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        source = ss.str();
    }

    const AsmResult result = assembleSource(source);
    if (!result.ok) {
        std::fprintf(stderr, "assembly failed:\n%s",
                     result.errorText().c_str());
        return 1;
    }
    const Program &prog = result.program;

    std::printf("assembled %zu instructions, %zu data bytes, "
                "%zu symbols\n\n",
                prog.text.size(), prog.data.size(),
                prog.symbols.size());
    for (size_t i = 0; i < prog.text.size(); ++i) {
        const Addr pc = Program::kTextBase + static_cast<Addr>(i) * 4;
        for (const auto &[name, addr] : prog.symbols) {
            if (addr == pc)
                std::printf("%s:\n", name.c_str());
        }
        std::printf("  0x%06x  %s\n", pc,
                    disassemble(prog.text[i], pc).c_str());
    }

    ArchState st;
    MainMemory mem;
    st.reset(prog);
    mem.loadProgram(prog);
    const u64 steps = runFunctional(st, mem, prog, 50'000'000);
    std::printf("\nfunctional run: %llu instructions, output:",
                static_cast<unsigned long long>(steps));
    for (u32 v : st.output)
        std::printf(" %u (0x%x)", v, v);
    std::printf("\n");

    try {
        DmtEngine engine(simConfigFromEnv(SimConfig::dmt(4, 2)), prog);
        engine.run();
        std::printf("DMT run: %llu cycles, IPC %.2f, golden %s\n",
                    static_cast<unsigned long long>(
                        engine.stats().cycles.value()),
                    engine.stats().ipc(),
                    engine.goldenOk() ? "PASS" : "FAIL");
    } catch (const SimError &err) {
        std::fprintf(stderr, "DMT run aborted: %s\n", err.what());
        return 1;
    }
    return 0;
}
