/**
 * @file
 * Experiment runner: executes a workload on a configured machine and
 * returns the statistics needed by the figure benches.  All benches
 * funnel through here so run length and verification policy are
 * uniform.
 */

#ifndef DMT_EXP_RUNNER_HH
#define DMT_EXP_RUNNER_HH

#include <string>
#include <vector>

#include "dmt/stats.hh"
#include "uarch/config.hh"

namespace dmt
{

class JsonWriter;

/** One measured window of an interval-sampled run. */
struct SampleInterval
{
    /** Retired-instruction position where the detailed window began
     *  (start of warmup, i.e. the checkpoint's resume position). */
    u64 pos = 0;
    u64 cycles = 0;  ///< measured (post-warmup) cycles
    u64 retired = 0; ///< measured (post-warmup) retired instructions
    u64 spawned = 0;
    u64 squashed = 0;
    u64 recoveries = 0;
};

/** One phase of a phase-sampled run: the cluster's identity/weight
 *  from the BBV analysis plus the measured window at its
 *  representative. */
struct PhaseCpi
{
    u32 id = 0;          ///< dense phase id (rep-ascending order)
    u64 rep = 0;         ///< representative interval index
    u64 pos = 0;         ///< rep * interval_len (window start)
    u64 members = 0;     ///< intervals assigned to the phase
    double weight = 0.0; ///< instruction-count share of the stream
    bool measured = false; ///< window detached stats and retired > 0
    u64 cycles = 0;
    u64 retired = 0;
    double cpi = 0.0;
};

/** Sampling metadata attached to a RunResult in sampled mode. */
struct SampleSummary
{
    bool enabled = false;
    /** Placement policy: "uniform" or "phase" (canonical JSON). */
    std::string mode = "uniform";
    u64 skip = 0;    ///< fast-forwarded instructions per interval
    u64 warm = 0;    ///< detailed warmup instructions (stats detached)
    u64 measure = 0; ///< detailed measured instructions
    u64 intervals = 0; ///< measured intervals completed
    /** Phase-mode analysis identity + outcome (zero in uniform mode;
     *  emitted to JSON only when mode == "phase"). */
    u64 phase_interval = 0;  ///< BBV interval length
    u64 phase_max_k = 0;     ///< cluster bound requested
    u64 phase_dims = 0;      ///< projection dimensions
    u64 phase_seed = 0;
    u64 phase_k = 0;         ///< phases found
    u64 phase_intervals = 0; ///< intervals profiled
    std::vector<PhaseCpi> phases;
    /** Stream positions traversed in total (functional + detailed);
     *  equals program length when the run reached HALT. */
    u64 covered = 0;
    /** Instructions covered by functional fast-forward alone. */
    u64 functional_instr = 0;
    /** Host seconds this run spent advancing the functional cursor
     *  (excluded from the canonical JSON, like all host timing). */
    double func_wall_s = 0.0;
    /** Fast-forward telemetry: translation-cache counters
     *  accumulated over this run's fast-forwards.  Host-side
     *  diagnostics: excluded from the canonical JSON because they
     *  depend on checkpoint-cache state, not on the inputs. */
    u64 ff_blocks_translated = 0;
    u64 ff_chain_hits = 0;
    /** Instructions this run's fast-forward cursor executed, profile
     *  and walks alike.  Deterministic, but it depends on cache state
     *  (a run that resumes every window from the cache walks none), so
     *  it stays out of the canonical JSON too. */
    u64 ff_instr = 0;
    /** Per-interval CPI statistics; ci95 = 1.96 * sd / sqrt(n).  In
     *  phase mode the mean is phase-weight weighted and sd/ci95 use
     *  the weighted spread over measured phases. */
    double cpi_mean = 0.0;
    double cpi_sd = 0.0;
    double cpi_ci95 = 0.0;
    std::vector<SampleInterval> records;

    void jsonOn(JsonWriter &w, bool include_timing) const;
};

/** Outcome of one simulation run. */
struct RunResult
{
    std::string workload;
    u64 cycles = 0;
    u64 retired = 0;
    bool completed = false; ///< program HALTed before the cap
    double ipc = 0.0;
    /** Host wall clock for the run (same accounting as SweepStats). */
    double wall_s = 0.0;
    /** Host throughput: retired Minstr per wall second. */
    double minstr_per_s = 0.0;
    DmtStats stats;
    /** Interval-sampling summary; enabled only in sampled mode, where
     *  cycles/retired/stats cover the measured windows only. */
    SampleSummary sampling;

    /** Serialize (headline numbers plus the full stat block).  Host
     *  timing fields are emitted only with @p include_timing: they are
     *  nondeterministic, so the canonical form leaves them out. */
    void jsonOn(JsonWriter &w, bool include_timing = true) const;

    /** The jsonOn() document as a string — the canonical form for
     *  bit-identity comparisons between serial and pooled runs.
     *  Excludes host-timing fields (wall_s, minstr_per_s). */
    std::string jsonString() const;
};

/**
 * Instructions a detailed run retires when its budget is 0 (the paper
 * runs 300M; this keeps a full figure under a minute).
 */
constexpr u64 kBenchRunLength = 60000;

struct SampleParams;

/**
 * Simulate @p workload (a suite name from workloadSuite() or a gen:
 * spec) on @p cfg, retiring at most @p max_retired instructions.  A
 * budget of 0 means kBenchRunLength for detailed runs and the whole
 * program for sampled runs.  Golden checking stays enabled: a bench
 * producing wrong execution aborts rather than reporting garbage.
 *
 * When @p sample is enabled the run is routed through
 * runWorkloadSampled(): detailed simulation covers the measurement
 * windows and checkpointed functional fast-forward covers the gaps.
 * This is the one run entry point — benches, sweeps and the daemon
 * all call it with everything spelled out, so daemon answers are
 * byte-identical to direct calls by construction.
 */
RunResult runWorkloadJob(const SimConfig &cfg,
                         const std::string &workload, u64 max_retired,
                         const SampleParams &sample);

/**
 * The retirement budget a (max_retired, sample) request resolves to:
 * an explicit @p max_retired wins, then @p default_budget; with both
 * 0, detailed runs use kBenchRunLength and sampled runs 0 (the whole
 * program), mirroring runWorkloadJob().  The serve layer resolves
 * budgets *before* computing cache keys so identical effective
 * requests share a cache cell.
 */
u64 effectiveBudget(bool sampled, u64 max_retired, u64 default_budget);

/** Percentage speedup of @p test over @p base for identical work. */
double speedupPct(const RunResult &base, const RunResult &test);

} // namespace dmt

#endif // DMT_EXP_RUNNER_HH
