/**
 * @file
 * SimPoint-style phase analysis over fast-forward BBVs.
 *
 * The uniform sampler (exp/sampled.hh) spends its detailed-simulation
 * budget re-measuring the same program phase over and over.  This
 * module finds the phases instead: a functional fast-forward pass
 * collects one basic-block vector per fixed-length instruction
 * interval (sim/bbv.hh), the vectors are random-projected to a small
 * fixed dimension, clustered with a deterministic seeded k-means++,
 * and a BIC-style score picks k.  Each cluster contributes one
 * representative interval and an instruction-count weight; the phase
 * sampling mode (DMT_SAMPLE=phase:...) then runs one warm+measure
 * window per representative and aggregates CPI by weight.
 *
 * Determinism contract: every stage is bit-identical across reruns,
 * platforms, DMT_JOBS settings and run() chunking.  The BBVs are a
 * pure function of the architectural instruction stream
 * (sim/bbv.hh); projection directions and every k-means tie-break come
 * from splitmix64 streams keyed only by (seed, block, dim) or broken
 * by lowest index; no floating-point reduction depends on traversal
 * order beyond the fixed interval order.
 */

#ifndef DMT_EXP_PHASE_HH
#define DMT_EXP_PHASE_HH

#include <functional>
#include <vector>

#include "casm/program.hh"
#include "sim/bbv.hh"
#include "sim/functional_core.hh"

namespace dmt
{

/** Phase-analysis knobs (the phase:... part of a sample spec). */
struct PhaseParams
{
    u64 interval = 0; ///< BBV interval length (instructions, > 0)
    u64 max_k = 8;    ///< k-means cluster bound (1..64)
    u64 dims = 16;    ///< random-projection dimensions (1..256)
    u64 seed = 42;    ///< projection + k-means seed
};

/** One phase of a clustered run. */
struct PhaseInfo
{
    u32 id = 0;           ///< dense id, ordered by rep ascending
    u64 rep = 0;          ///< representative interval index
    u64 members = 0;      ///< intervals assigned to this phase
    double weight = 0.0;  ///< instruction-count share (sums to 1)
};

/** Result of clustering one workload's interval BBVs. */
struct PhaseAnalysis
{
    u32 k = 0;         ///< phases found (<= max_k, 0 only if no BBVs)
    std::vector<u32> assignment; ///< interval index -> phase id
    std::vector<PhaseInfo> phases; ///< phases[i].id == i
};

/** One BBV profile: its interval vectors and how far it reached. */
struct BbvProfile
{
    std::vector<IntervalBbv> bbvs;
    u64 covered = 0;        ///< instructions profiled (stream positions)
    bool completed = false; ///< the profile reached HALT within budget
};

/**
 * The one BBV profile loop: run @p core from the program entry until
 * HALT or @p budget instructions (0 = run to HALT), collecting one
 * vector per @p interval_len instructions, and leave the core where
 * it stopped.  Before each chunk of at most 2^22 instructions the loop
 * calls @p pause (when set) with the core; pause returns the next
 * position it wants to see, where that chunk then ends.  A pause may
 * capture the core's state, or throw to abandon the profile.  The
 * vectors are a pure function of the architectural instruction
 * stream, however the walk is chunked (the sim/bbv.hh contract).
 */
BbvProfile profileBbvs(
    FunctionalCore &core, u64 interval_len, u64 budget,
    const std::function<u64(const FunctionalCore &)> &pause = {});

/**
 * profileBbvs() on a fresh core of @p prog; @p covered_out /
 * @p completed_out report how far the profile reached.
 */
std::vector<IntervalBbv> collectBbvs(const Program &prog,
                                     u64 interval_len, u64 budget,
                                     u64 *covered_out = nullptr,
                                     bool *completed_out = nullptr);

/** Kept only because dmtbench/layers.cc still passes an engine. */
inline std::vector<IntervalBbv>
collectBbvs(const Program &prog, u64 interval_len, u64 budget, FfMode)
{
    return collectBbvs(prog, interval_len, budget);
}

/**
 * Project + cluster @p bbvs under @p params.  Degenerate inputs stay
 * well-defined: k never exceeds the interval count, all-identical
 * vectors collapse to one phase, and an empty input yields k = 0.
 */
PhaseAnalysis clusterPhases(const std::vector<IntervalBbv> &bbvs,
                            const PhaseParams &params);

/** Drop every phase plan, checkpoints included (exp/sampled.hh), and
 *  zero the counters below (test hook, companion to
 *  clearCheckpointCache()). */
void clearPhaseCache();

/** Process-lifetime accounting for phase plans: one build per
 *  (workload, phase fields, budget), then hits. */
struct PhaseCacheCounters
{
    u64 hits = 0;
    u64 builds = 0;
};

PhaseCacheCounters phaseCacheCounters();

} // namespace dmt

#endif // DMT_EXP_PHASE_HH
