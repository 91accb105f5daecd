/**
 * @file
 * Quickstart: assemble a small program, run it on the functional
 * simulator, the baseline superscalar and the DMT processor, and
 * compare.  This is the 60-second tour of the public API.  The engine
 * knobs (DMT_TRACE*, DMT_FAULT*, DMT_WATCHDOG, ...) apply to every
 * machine built here.
 */

#include <cstdio>

#include "casm/assembler.hh"
#include "cli/env.hh"
#include "common/log.hh"
#include "workloads/workloads.hh"
#include "dmt/engine.hh"
#include "sim/functional.hh"

namespace
{

int
tour()
{
    using namespace dmt;

    // 1. Assemble a program (recursive Fibonacci) from source text.
    const Program prog = assembleOrDie(R"(
            li   $a0, 16
            jal  fib
            out  $v0
            halt

    fib:    slti $t0, $a0, 2       # fib(n) = n < 2 ? n
            beqz $t0, rec
            move $v0, $a0
            ret
    rec:    addi $sp, $sp, -12     # : fib(n-1) + fib(n-2)
            sw   $ra, 8($sp)
            sw   $s0, 4($sp)
            sw   $a0, 0($sp)
            addi $a0, $a0, -1
            jal  fib
            move $s0, $v0
            lw   $a0, 0($sp)
            addi $a0, $a0, -2
            jal  fib
            add  $v0, $v0, $s0
            lw   $s0, 4($sp)
            lw   $ra, 8($sp)
            addi $sp, $sp, 12
            ret
    )");

    // 2. Functional reference run.
    ArchState state;
    MainMemory memory;
    state.reset(prog);
    memory.loadProgram(prog);
    const u64 steps = runFunctional(state, memory, prog);
    std::printf("functional : fib(16) = %u in %llu instructions\n",
                state.output.at(0),
                static_cast<unsigned long long>(steps));

    // 3. Cycle-level run of the same program on the baseline.
    DmtEngine fib_base(simConfigFromEnv(SimConfig::baseline()), prog);
    fib_base.run();
    std::printf("baseline   : %llu cycles, IPC %.2f, output %u, "
                "golden %s\n",
                static_cast<unsigned long long>(
                    fib_base.stats().cycles.value()),
                fib_base.stats().ipc(), fib_base.outputStream().at(0),
                fib_base.goldenOk() ? "PASS" : "FAIL");

    // 4. The DMT processor on a benchmark it likes: the go-like kernel
    //    (branchy evaluation with procedure calls).  Threads are
    //    spawned by hardware at calls and loop branches; every retired
    //    instruction is verified against the golden model as it runs.
    const Program go = buildWorkload("go");
    SimConfig base_cfg = simConfigFromEnv(SimConfig::baseline());
    base_cfg.max_retired = 60000;
    SimConfig dmt_cfg = simConfigFromEnv(SimConfig::dmt(6, 2));
    dmt_cfg.max_retired = 60000;

    DmtEngine base(base_cfg, go);
    base.run();
    DmtEngine processor(dmt_cfg, go);
    processor.run();

    std::printf("\n'go' kernel, 60k instructions:\n");
    std::printf("baseline   : %llu cycles, IPC %.2f\n",
                static_cast<unsigned long long>(
                    base.stats().cycles.value()),
                base.stats().ipc());
    std::printf("DMT (6T)   : %llu cycles, IPC %.2f\n",
                static_cast<unsigned long long>(
                    processor.stats().cycles.value()),
                processor.stats().ipc());
    std::printf("             %llu threads spawned, %llu joined, "
                "avg size %.1f insts\n",
                static_cast<unsigned long long>(
                    processor.stats().threads_spawned.value()),
                static_cast<unsigned long long>(
                    processor.stats().threads_joined.value()),
                processor.stats().thread_size.mean());
    std::printf("             golden check: %s\n",
                processor.goldenOk() ? "PASS" : "FAIL");

    const double speedup =
        static_cast<double>(base.stats().cycles.value())
        / static_cast<double>(processor.stats().cycles.value());
    std::printf("speedup    : %.2fx\n", speedup);
    return 0;
}

} // namespace

int
main()
{
    try {
        return tour();
    } catch (const dmt::SimError &err) {
        std::fprintf(stderr, "quickstart: %s\n", err.what());
        return 1;
    }
}
