/**
 * @file
 * The benchmark's workloads.  Each runs closed-loop in this process,
 * checks every output, and fills a Report: end-to-end metrics from
 * untraced passes, and with Options::trace the per-layer metrics from
 * a run that alternates traced and untraced passes.
 *
 *  - detail_suite: full-detail, golden-checked runs of the eight
 *    SPEC95-like kernels on the baseline and on 6-thread DMT.
 *  - phase_whole: phase-sampled whole-program runs on 6-thread DMT of
 *    three long generated programs and three kernels.
 *  - serve_grid: a seeded replay of a Figure-4 grid plus sampled
 *    generated programs against an in-process daemon.
 */

#ifndef DMTBENCH_WORKLOADS_HH
#define DMTBENCH_WORKLOADS_HH

#include "harness.hh"

namespace dmtbench
{

Report runDetailSuite(const Options &o, Spans &sp);
Report runPhaseWhole(const Options &o, Spans &sp);
Report runServeGrid(const Options &o, Spans &sp);

/**
 * Host seconds of one call of @p f.  The set-up metric times one
 * set-up per pass, after the untimed reference runs: a process's first
 * set-ups run up to 4x slower, and unevenly, while malloc settles its
 * thresholds, and one per pass samples the host's drift like every
 * other metric.
 */
template <typename F>
double
timed(F &&f)
{
    const double t0 = nowS();
    f();
    return nowS() - t0;
}

} // namespace dmtbench

#endif // DMTBENCH_WORKLOADS_HH
