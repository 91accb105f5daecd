/**
 * @file
 * phase_whole: phase-sampled whole-program runs on 6-thread DMT, the
 * only workload where fast-forward, BBV profiling, k-means and
 * checkpoints dominate.  Three long generated programs (seeded from
 * the workload seed) carry the speed; three kernels carry the
 * accuracy, because generated programs sample with ~0% error.  Both
 * process-wide caches are cleared before every operation, because a
 * command-line run pays for them every time.
 */

#include <cmath>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/strutil.hh"
#include "dmt/engine.hh"
#include "exp/phase.hh"
#include "exp/runner.hh"
#include "exp/sampled.hh"
#include "layers.hh"
#include "sim/functional_core.hh"
#include "workloads.hh"
#include "workloads/workloads.hh"

namespace dmtbench
{

using namespace dmt;

namespace
{

/** BENCH_phase.json's phase spec. */
constexpr const char *kSampleSpec = "phase:20000:4000:4000:8:16:42";
/** A budget past every program's HALT: whole-program runs. */
constexpr u64 kWholeProgram = 1'000'000'000;
/** Kernels whose full-detail CPI is the accuracy reference. */
const char *const kKernels[] = {"compress", "perl", "ijpeg"};

struct Target
{
    std::string workload;
    bool kernel = false;
    std::string ref_json;
    RunResult ref;
    double full_cpi = 0.0;
};

void
clearCaches()
{
    clearCheckpointCache();
    clearPhaseCache();
}

} // namespace

Report
runPhaseWhole(const Options &o, Spans &sp)
{
    Report rep;
    SampleParams params;
    std::string err;
    if (!SampleParams::parse(kSampleSpec, &params, &err))
        panic("bad sample spec %s: %s", kSampleSpec, err.c_str());
    const SimConfig cfg = SimConfig::dmt(6, 2);

    // The seed picks the generated programs; the simulator sees only
    // the resulting specs.
    std::vector<Target> progs;
    const char *const gen[] = {"gen:loopnest:%llu:trips=100000",
                               "gen:calltree:%llu:units=65536",
                               "gen:branchy:%llu:trips=100000"};
    for (size_t i = 0; i < 3; ++i) {
        const unsigned long long s = mix64(o.seed * 3 + i) % 1000000;
        Target t;
        t.workload = strprintf(gen[i], s);
        progs.push_back(t);
    }
    for (const char *k : kKernels) {
        Target t;
        t.workload = k;
        t.kernel = true;
        progs.push_back(t);
    }

    // Set-up is what a sampled run constructs before its first
    // instruction: the program image, the fast-forward core and a
    // detailed engine.
    const auto setUp = [&] {
        for (const Target &p : progs) {
            const Program prog = buildWorkload(p.workload);
            FunctionalCore core(prog);
            SimConfig wcfg = cfg;
            wcfg.max_retired = params.warm + params.measure;
            DmtEngine engine(wcfg, prog);
        }
    };

    // Untimed references: full-detail CPI of each kernel, and the
    // canonical sampled result every repetition must reproduce.
    for (Target &p : progs) {
        rep.tally.attempt();
        try {
            if (p.kernel) {
                const RunResult full = runWorkloadJob(
                    cfg, p.workload, kWholeProgram, SampleParams{});
                if (!full.completed)
                    rep.tally.fail(p.workload + ": reference did not halt");
                p.full_cpi = static_cast<double>(full.cycles)
                    / static_cast<double>(full.retired);
            }
            clearCaches();
            p.ref = runWorkloadJob(cfg, p.workload, kWholeProgram, params);
            p.ref_json = p.ref.jsonString();
        } catch (const SimError &e) {
            rep.tally.fail(p.workload + ": " + e.what());
        }
    }

    OpTimes untraced, traced, func;
    HostSpeed host;
    std::vector<double> setup, rss;
    LayerCounts counts;
    bool counted = false;
    CheckpointCacheCounters ckc;
    PhaseCacheCounters phc;
    const double t_end = nowS() + o.seconds;
    for (int pass = 0; pass < 3 || nowS() < t_end; ++pass) {
        const bool tracing = o.trace && pass % 2 == 1;
        sp.setRecording(tracing);
        sp.setPass(pass);
        setup.push_back(timed(setUp));
        clearCaches();
        resetPeakRss();
        for (const Target &p : progs) {
            host.sample();
            rep.tally.attempt();
            clearCaches();
            try {
                if (!tracing) {
                    const double t0 = nowS();
                    const RunResult r =
                        runWorkloadJob(cfg, p.workload, kWholeProgram, params);
                    const double t = nowS() - t0;
                    untraced.add(p.workload, t);
                    func.add(p.workload, r.sampling.func_wall_s);
                    ckc = checkpointCacheCounters();
                    phc = phaseCacheCounters();
                    rep.tally.expectSame(p.workload, p.ref_json,
                                         r.jsonString());
                    continue;
                }
                LayerCounts op_counts;
                sp.beginOp();
                const double t0 = nowS();
                std::vector<Window> w;
                {
                    Spans::Scope root(sp, "op.phase_program");
                    w = sampledByLayer(sp, cfg, p.workload, params,
                                       kWholeProgram, &op_counts);
                }
                traced.add(p.workload, nowS() - t0);
                if (w != sampledWindows(p.ref))
                    rep.tally.fail(p.workload
                                   + ": split run differs from "
                                     "runWorkloadSampled");
                if (!counted)
                    counts += op_counts;
            } catch (const SimError &e) {
                rep.tally.fail(p.workload + ": " + e.what());
            }
        }
        if (!tracing)
            rss.push_back(peakRssMb());
        counted = counted || tracing;
    }
    sp.setRecording(false);
    clearCaches();
    reportPeakRss(rss, &rep);

    double covered = 0, detail_instr = 0, window_s = 0;
    std::vector<double> sampled_cpi, full_cpi;
    int ci95_covered = 0;
    for (const Target &p : progs) {
        covered += static_cast<double>(p.ref.sampling.covered);
        detail_instr += static_cast<double>(p.ref.sampling.covered
                                            - p.ref.sampling.functional_instr);
        window_s += untraced.median(p.workload) - func.median(p.workload);
        if (!p.kernel)
            continue;
        sampled_cpi.push_back(p.ref.sampling.cpi_mean);
        full_cpi.push_back(p.full_cpi);
        if (std::fabs(p.ref.sampling.cpi_mean - p.full_cpi)
            <= p.ref.sampling.cpi_ci95)
            ++ci95_covered;
    }
    const double wall = untraced.sumOfMedians();
    const double err_pct = cpiErrPct(sampled_cpi, full_cpi);
    rep.note("programs %zu x %zu reps (fewest), spec %s", progs.size(),
             untraced.minReps(), kSampleSpec);
    reportHostTimes(host, median(setup), wall, covered, &rep);
    for (const Target &p : progs)
        rep.note("  %-44s %9.3f Minstr  median %.4f s", p.workload.c_str(),
                 static_cast<double>(p.ref.sampling.covered) / 1e6,
                 untraced.median(p.workload));
    rep.note("cpi_err_pct %.4f %%", err_pct);

    if (o.trace) {
        reportLayers(sp, counts, &rep);
        rep.set("sampled.func_ms", func.sumOfMedians() * 1e3);
        rep.set("sampled.window_ms", window_s * 1e3);
        rep.set("sampled.detail_instr", detail_instr);
        rep.set("sampled.cpi_err_pct", err_pct);
        rep.set("sampled.ci95_covered", ci95_covered);
        // Both caches are cleared before every operation, so these
        // read 0 here by design; serve_grid is where they are reused.
        reportCacheReuse(ckc, phc, &rep);
        reportTraceOverhead(wall, traced.sumOfMedians(), &rep);
    }
    return rep;
}

} // namespace dmtbench
