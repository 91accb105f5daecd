/**
 * @file
 * Thread anatomy: run a small recursive program on the DMT machine
 * with a retirement trace that shows which hardware thread contributed
 * every retired instruction — the clearest way to *see* dynamic
 * multithreading at work (threads spawned at calls, unwinding the
 * recursion one continuation per context).
 */

#include <cstdio>

#include "cli/env.hh"
#include "common/log.hh"
#include "dmt/engine.hh"
#include "isa/disasm.hh"
#include "workloads/workloads.hh"

namespace
{

int
anatomy()
{
    using namespace dmt;

    const Program prog = mkFibRecursive(8);

    DmtEngine engine(simConfigFromEnv(SimConfig::dmt(4, 2)), prog);

    std::printf("retired stream of fib(8) on a 4-context DMT machine\n");
    std::printf("(column = hardware thread context that ran it)\n\n");
    std::printf("   %-10s t0          t1          t2          t3\n",
                "pc");

    int shown = 0;
    engine.retire_hook = [&](const TBEntry &entry, ThreadId tid) {
        if (shown >= 120) {
            if (shown == 120)
                std::printf("   ... (%s)\n", "truncated");
            ++shown;
            return;
        }
        ++shown;
        std::printf("   0x%06x %*s%s\n", entry.pc, 2 + 12 * tid, "",
                    disassemble(entry.inst, entry.pc).c_str());
    };
    engine.run();

    std::printf("\n%llu instructions retired in %llu cycles "
                "(IPC %.2f)\n",
                static_cast<unsigned long long>(
                    engine.stats().retired.value()),
                static_cast<unsigned long long>(
                    engine.stats().cycles.value()),
                engine.stats().ipc());
    std::printf("threads: %llu spawned, %llu joined, %llu squashed\n",
                static_cast<unsigned long long>(
                    engine.stats().threads_spawned.value()),
                static_cast<unsigned long long>(
                    engine.stats().threads_joined.value()),
                static_cast<unsigned long long>(
                    engine.stats().threads_squashed.value()));
    std::printf("recoveries: %llu walks re-dispatched %llu "
                "instructions\n",
                static_cast<unsigned long long>(
                    engine.stats().recoveries.value()),
                static_cast<unsigned long long>(
                    engine.stats().recovery_dispatches.value()));
    std::printf("golden check: %s\n",
                engine.goldenOk() ? "PASS" : "FAIL");
    return 0;
}

} // namespace

int
main()
{
    try {
        return anatomy();
    } catch (const dmt::SimError &err) {
        std::fprintf(stderr, "thread_anatomy: %s\n", err.what());
        return 1;
    }
}
