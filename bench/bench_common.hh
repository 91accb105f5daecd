/**
 * @file
 * The shared entry point of the simulating benches (bench_figures,
 * bench_phase, bench_simspeed).  Each defines benchMain(); a SimError
 * that escapes it (e.g. a panic while building configs) becomes a
 * diagnostic plus exit status 1 instead of std::terminate().
 */

#ifndef DMT_BENCH_BENCH_COMMON_HH
#define DMT_BENCH_BENCH_COMMON_HH

#include <cstdio>

#include "common/log.hh"

/** Implemented by each bench translation unit. */
int benchMain(int argc, char **argv);

int
main(int argc, char **argv)
{
    try {
        return benchMain(argc, argv);
    } catch (const dmt::SimError &err) {
        std::fprintf(stderr, "bench: fatal: %s\n", err.what());
        return 1;
    }
}

#endif // DMT_BENCH_BENCH_COMMON_HH
