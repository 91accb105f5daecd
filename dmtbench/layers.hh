/**
 * @file
 * Runs split into their layers' public calls.  Where one entry point
 * hides several layers (runWorkloadJob, runWorkloadSampled), the
 * traced run calls the layers' public functions itself, on the same
 * inputs and in the same order, each inside a span; the simulated
 * results must match the entry point's, so the split is checked, not
 * assumed.
 */

#ifndef DMTBENCH_LAYERS_HH
#define DMTBENCH_LAYERS_HH

#include <string>
#include <vector>

#include "exp/sampled.hh"
#include "harness.hh"
#include "sim/translated_core.hh"
#include "uarch/config.hh"

namespace dmt
{
class DmtEngine;
class Program;
} // namespace dmt

namespace dmtbench
{

/** Span names of the layers' public functions. */
namespace span
{
constexpr const char *kBuild = "workloads.buildWorkload";
constexpr const char *kEngineCtor = "dmt.DmtEngine";
constexpr const char *kEngineRun = "dmt.DmtEngine.run";
constexpr const char *kOracle = "sim.functionalStep";
constexpr const char *kFfRun = "sim.FunctionalCore.run";
constexpr const char *kCapture = "sim.Checkpoint.capture";
constexpr const char *kBbv = "sim.collectBbvs";
constexpr const char *kCluster = "phase.clusterPhases";
} // namespace span

/** Counts read from the layers while calling them directly. */
struct LayerCounts
{
    u64 cycles = 0;
    u64 retired = 0;
    u64 dispatch = 0; ///< dispatched + recovery re-dispatches
    u64 spawned = 0;
    u64 joined = 0;
    u64 ff_instr = 0; ///< instructions fast-forwarded by FunctionalCore
    dmt::TranslationStats xs;
    u64 ckpt_pages = 0;
    u64 phases = 0;
    u64 intervals = 0;
    u64 oracle_instr = 0;

    void addEngine(const dmt::DmtEngine &e);
    LayerCounts &operator+=(const LayerCounts &o);
};

/** Simulated cycles and retired instructions of one measured window. */
struct Window
{
    u64 cycles = 0;
    u64 retired = 0;
    bool operator==(const Window &) const = default;
};

/**
 * runWorkloadJob's detailed path as its public calls: buildWorkload,
 * the DmtEngine constructor and DmtEngine::run, each in a span.
 * Throws SimError on a golden mismatch, like runWorkloadJob.
 */
Window detailedByLayer(Spans &sp, const dmt::SimConfig &cfg,
                       const std::string &workload, u64 budget,
                       LayerCounts *c);

/**
 * runWorkloadSampled's phase mode as its public calls: buildWorkload,
 * collectBbvs, clusterPhases, then per phase representative (in
 * position order) FunctionalCore::run up to it, Checkpoint::capture
 * and one warm+measure DmtEngine window resumed from the checkpoint.
 * @return the measured windows in phase order, to be compared with
 * the sampled RunResult's phases.
 */
std::vector<Window> sampledByLayer(Spans &sp, const dmt::SimConfig &cfg,
                                   const std::string &workload,
                                   const dmt::SampleParams &params,
                                   u64 budget, LayerCounts *c);

/** The measured windows a sampled RunResult reports, in phase order. */
std::vector<Window> sampledWindows(const dmt::RunResult &r);

/**
 * The golden checker's per-instruction work: functionalStep over the
 * first @p steps instructions of @p prog (fewer if it halts), in one
 * span.  Adds the instructions stepped to c->oracle_instr.
 */
void oracleByLayer(Spans &sp, const dmt::Program &prog, u64 steps,
                   LayerCounts *c);

/**
 * Fill the per-layer metrics that come from spans and counts:
 * layer self times (per traced pass where passes recorded them,
 * otherwise from probe spans), and the simulated counts.
 */
void reportLayers(const Spans &sp, const LayerCounts &c, Report *rep);

/** The tracing overhead: a pass's wall time with spans on and off. */
void reportTraceOverhead(double untraced_wall, double traced_wall,
                         Report *rep);

/** sampled.ckpt_hit_ratio and sampled.phase_hit_ratio: reuse of the
 *  process-wide checkpoint and phase-analysis caches. */
void reportCacheReuse(const dmt::CheckpointCacheCounters &ck,
                      const dmt::PhaseCacheCounters &ph, Report *rep);

} // namespace dmtbench

#endif // DMTBENCH_LAYERS_HH
