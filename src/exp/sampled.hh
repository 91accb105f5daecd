/**
 * @file
 * Interval-sampled simulation (SMARTS-style): alternate checkpointed
 * functional fast-forward with short detailed measurement windows so a
 * paper-scale instruction stream costs close to functional-sim speed.
 *
 * Each period is skip + warm + measure instructions.  The skip portion
 * is covered by FunctionalCore fast-forward on the run's own,
 * forward-only cursor; the warm portion runs detailed with statistics
 * detached (cfg.warmup_retired) so caches, predictors and spawn tables
 * recover from the cold start; the measure portion accumulates into
 * the RunResult.  Per-interval CPI feeds a mean +- 95% confidence
 * interval so the aggregate comes with an error bar.
 *
 * Checkpoints live in memory only and share their pages copy-on-write
 * (sim/mainmem.hh), so taking, restoring and resuming one copies a
 * pointer per page.  Both placements run every window through one code
 * path; only where windows start and how their CPIs aggregate differ.
 *
 * Configuration is a SampleParams spec "skip:warm:measure[:intervals]"
 * (instruction counts; intervals bounds the number of measured windows,
 * 0 or omitted = run to program end / budget).
 *
 * "phase:interval:warm:measure[:maxk[:dims[:seed]]]" selects
 * phase-aware placement instead (exp/phase.hh): a BBV profile over
 * fixed `interval`-length slices is clustered into phases, one
 * warm+measure window runs at each phase representative, and CPI
 * aggregates by phase weight.  Omitted trailing fields take their
 * documented defaults (maxk 8, dims 16, seed 42).  The analysis and
 * the checkpoint at each representative make a phase plan, the one
 * thing the sampled path keeps across runs.  The first run to need a
 * plan builds it on its own cursor: it profiles, laying a trail of
 * checkpoints (at most about 1 MiB of pages), then walks to each
 * representative from the nearest one.  Later runs over the same
 * workload, phase fields and budget resume every window from the plan.
 * A uniform run walks its own cursor forward and keeps nothing.
 *
 * A run that measures no window (the program ends before the first
 * window's warm-up is over) throws SimError: it has no estimate.
 */

#ifndef DMT_EXP_SAMPLED_HH
#define DMT_EXP_SAMPLED_HH

#include <string>

#include "exp/phase.hh"
#include "exp/runner.hh"

namespace dmt
{

/** A parsed sample spec (the job-level sampling decision). */
struct SampleParams
{
    /** Window-placement policy. */
    enum class Mode : u8
    {
        Uniform, ///< fixed-stride intervals (SMARTS-style)
        Phase,   ///< one window per BBV-clustered phase representative
    };

    Mode mode = Mode::Uniform;
    u64 skip = 0;    ///< uniform: functional fast-forward per interval
    u64 warm = 0;    ///< detailed instructions with stats detached
    u64 measure = 0; ///< detailed instructions measured
    u64 max_intervals = 0; ///< uniform: 0 = unbounded
    /** Phase-mode knobs (interval length, cluster bound, projection
     *  dims, seed); interval > 0 iff mode == Phase. */
    PhaseParams phase;

    /** Sampling is active when a measurement window is configured. */
    bool enabled() const { return measure > 0; }

    bool phaseMode() const { return mode == Mode::Phase; }

    /**
     * Canonical spec string: "skip:warm:measure:intervals" (uniform),
     * "phase:interval:warm:measure:maxk:dims:seed" (phase, every field
     * explicit), or "off" when disabled.  This is the sample-spec
     * component of the serve layer's content-addressed cache key, so
     * it must render identically for parameter sets that behave
     * identically.
     */
    std::string canonicalSpec() const;

    /**
     * Parse "skip:warm:measure[:intervals]" or
     * "phase:interval:warm:measure[:maxk[:dims[:seed]]]" without
     * touching the process: on garbage, returns false and describes
     * the problem in @p err (job-spec parsing needs an error reply,
     * not an exit).  An empty string parses as disabled.  Each mode's
     * fields and ranges are one list (src/exp/sampled.cc) that this
     * and canonicalSpec() both walk; @p out is unspecified after a
     * failed parse.
     */
    static bool parse(std::string_view spec, SampleParams *out,
                      std::string *err);
};

/**
 * Run @p workload on @p cfg under interval sampling.  @p budget bounds
 * the stream positions traversed (0 = the whole program); sampling
 * stops at HALT, the budget, or @p params.max_intervals, whichever
 * comes first.
 *
 * The returned RunResult's cycles/retired/stats cover the measured
 * windows only (summed across intervals); result.sampling carries the
 * coverage bookkeeping and the CPI confidence interval.  Golden
 * checking stays enabled inside every detailed window.
 */
RunResult runWorkloadSampled(const SimConfig &cfg,
                             const std::string &workload,
                             const SampleParams &params, u64 budget = 0);

/**
 * Drop every phase plan (test hook; afterwards a run sees what a fresh
 * process sees) and zero the checkpoint counters below; the phase
 * counters belong to clearPhaseCache(), which drops the plans too.
 */
void clearCheckpointCache();

/**
 * Process-lifetime accounting for window checkpoints: builds counts
 * those a run captured (each uniform window's, and each
 * representative's while building a plan), mem_hits the phase windows
 * resumed from a plan an earlier run built.  The daemon reports these
 * in its `stats` reply and the local harness mains print them in their
 * stderr summaries, so warm-plan behaviour is visible in both
 * deployments.
 */
struct CheckpointCacheCounters
{
    u64 mem_hits = 0;
    /** Always 0: kept only because dmtbench/layers.cc still reads it. */
    u64 disk_hits = 0;
    u64 builds = 0;
};

/** Snapshot of the window-checkpoint counters. */
CheckpointCacheCounters checkpointCacheCounters();

} // namespace dmt

#endif // DMT_EXP_SAMPLED_HH
