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
 * The cache holds one entry per workload: its Program, its phase
 * analyses (exp/phase.hh) and the checkpoints at their representatives;
 * uniform windows keep none, so a uniform run holds O(1) checkpoints.
 * Both placements run every window through one code path; only where
 * windows start and how their CPIs aggregate differ.
 *
 * Configuration is a SampleParams spec "skip:warm:measure[:intervals]"
 * (instruction counts; intervals bounds the number of measured windows,
 * 0 or omitted = run to program end / budget).  setCheckpointDir()
 * names a directory where checkpoints persist across invocations.
 *
 * "phase:interval:warm:measure[:maxk[:dims[:seed]]]" selects
 * phase-aware placement instead (exp/phase.hh): a BBV profile over
 * fixed `interval`-length slices is clustered into phases, one
 * warm+measure window runs at each phase representative, and CPI
 * aggregates by phase weight.  Omitted trailing fields take their
 * documented defaults (maxk 8, dims 16, seed 42).
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
 * Drop every per-workload entry — checkpoints and phase analyses alike
 * (test hook; on-disk checkpoint files are left alone so persistence
 * can be exercised separately).  Zeroes the checkpoint counters below;
 * the phase counters belong to clearPhaseCache().
 */
void clearCheckpointCache();

/**
 * Persist sampled-run checkpoints under @p dir (created, one level, on
 * first use) and look there before fast-forwarding; "" (the default)
 * keeps the cache memory-only.  Process-wide, like the cache itself.
 * A file that fails its integrity check is rebuilt and rewritten.
 */
void setCheckpointDir(std::string dir);

/**
 * Process-lifetime accounting for the shared checkpoint cache.  A
 * sampled window first looks for its start checkpoint in memory
 * (mem_hits; only phase windows keep theirs), then on disk under the
 * checkpoint directory (disk_hits), and only then pays for functional
 * fast-forward to build one (builds).  The daemon reports these in its
 * `stats` reply and the local harness mains print them in their stderr
 * summaries, so warm-cache behaviour is visible in both deployments.
 */
struct CheckpointCacheCounters
{
    u64 mem_hits = 0;
    u64 disk_hits = 0;
    u64 builds = 0;
};

/** Snapshot of the shared checkpoint-cache counters. */
CheckpointCacheCounters checkpointCacheCounters();

} // namespace dmt

#endif // DMT_EXP_SAMPLED_HH
