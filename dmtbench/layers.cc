#include "layers.hh"

#include <memory>

#include "common/log.hh"
#include "dmt/engine.hh"
#include "exp/phase.hh"
#include "sim/checkpoint.hh"
#include "sim/functional.hh"
#include "sim/functional_core.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

namespace dmtbench
{

using namespace dmt;

void
LayerCounts::addEngine(const DmtEngine &e)
{
    const DmtStats &s = e.stats();
    cycles += s.cycles.value();
    retired += s.retired.value();
    dispatch += s.dispatched.value() + s.recovery_dispatches.value();
    spawned += s.threads_spawned.value();
    joined += s.threads_joined.value();
}

LayerCounts &
LayerCounts::operator+=(const LayerCounts &o)
{
    cycles += o.cycles;
    retired += o.retired;
    dispatch += o.dispatch;
    spawned += o.spawned;
    joined += o.joined;
    ff_instr += o.ff_instr;
    xs += o.xs;
    ckpt_pages += o.ckpt_pages;
    phases += o.phases;
    intervals += o.intervals;
    oracle_instr += o.oracle_instr;
    return *this;
}

Window
detailedByLayer(Spans &sp, const SimConfig &cfg, const std::string &workload,
                u64 budget, LayerCounts *c)
{
    Program prog;
    {
        Spans::Scope s(sp, span::kBuild);
        prog = buildWorkload(canonicalWorkloadName(workload));
    }
    SimConfig run_cfg = cfg;
    run_cfg.max_retired = budget;
    std::unique_ptr<DmtEngine> engine;
    {
        Spans::Scope s(sp, span::kEngineCtor);
        engine = std::make_unique<DmtEngine>(run_cfg, prog);
    }
    {
        Spans::Scope s(sp, span::kEngineRun);
        engine->run();
    }
    if (!engine->goldenOk())
        panic("golden mismatch on %s: %s", workload.c_str(),
              engine->goldenError().c_str());
    c->addEngine(*engine);
    return Window{engine->stats().cycles.value(),
                  engine->stats().retired.value()};
}

std::vector<Window>
sampledByLayer(Spans &sp, const SimConfig &cfg, const std::string &workload,
               const SampleParams &params, u64 budget, LayerCounts *c)
{
    Program prog;
    {
        Spans::Scope s(sp, span::kBuild);
        prog = buildWorkload(canonicalWorkloadName(workload));
    }
    std::vector<IntervalBbv> bbvs;
    {
        Spans::Scope s(sp, span::kBbv);
        bbvs = collectBbvs(prog, params.phase.interval, budget,
                           FfMode::Translated);
    }
    PhaseAnalysis pa;
    {
        Spans::Scope s(sp, span::kCluster);
        pa = clusterPhases(bbvs, params.phase);
    }
    c->phases += pa.k;
    c->intervals += pa.assignment.size();

    FunctionalCore core(prog);
    core.setMode(FfMode::Translated);
    std::vector<Window> windows;
    // Representatives come in position order, so the cursor only ever
    // moves forward, as in the sampled runner's checkpoint chain.
    for (const PhaseInfo &ph : pa.phases) {
        const u64 start = ph.rep * params.phase.interval;
        const u64 from = core.instrCount();
        const TranslationStats xs_before = core.translationStats();
        {
            Spans::Scope s(sp, span::kFfRun);
            while (core.instrCount() < start && !core.halted())
                core.run(start - core.instrCount());
        }
        c->ff_instr += core.instrCount() - from;
        c->xs += core.translationStats() - xs_before;
        if (core.halted()) {
            windows.push_back(Window{});
            continue;
        }
        Checkpoint ck;
        {
            Spans::Scope s(sp, span::kCapture);
            ck = Checkpoint::capture(core);
        }
        c->ckpt_pages += ck.mem.numPages();

        SimConfig wcfg = cfg;
        wcfg.warmup_retired = params.warm;
        wcfg.max_retired = params.warm + params.measure;
        std::unique_ptr<DmtEngine> engine;
        {
            Spans::Scope s(sp, span::kEngineCtor);
            engine = std::make_unique<DmtEngine>(wcfg, prog, &ck);
        }
        {
            Spans::Scope s(sp, span::kEngineRun);
            engine->run();
        }
        if (!engine->goldenOk())
            panic("golden mismatch on %s (phase window at %llu): %s",
                  workload.c_str(), static_cast<unsigned long long>(start),
                  engine->goldenError().c_str());
        Window w;
        if (engine->measurementActive()
            && engine->stats().retired.value() > 0) {
            c->addEngine(*engine);
            w = Window{engine->stats().cycles.value(),
                       engine->stats().retired.value()};
        }
        windows.push_back(w);
    }
    return windows;
}

std::vector<Window>
sampledWindows(const RunResult &r)
{
    std::vector<Window> w;
    for (const PhaseCpi &ph : r.sampling.phases)
        w.push_back(ph.measured ? Window{ph.cycles, ph.retired} : Window{});
    return w;
}

void
oracleByLayer(Spans &sp, const Program &prog, u64 steps, LayerCounts *c)
{
    ArchState state;
    state.reset(prog);
    MainMemory mem;
    mem.loadProgram(prog);
    u64 n = 0;
    {
        Spans::Scope s(sp, span::kOracle);
        for (; n < steps && !state.halted; ++n)
            functionalStep(state, mem, prog);
    }
    c->oracle_instr += n;
}

void
reportLayers(const Spans &sp, const LayerCounts &c, Report *rep)
{
    const auto layer = [&](const char *name) {
        const double per_pass = sp.medianPassSelf(name);
        return per_pass > 0.0 ? per_pass : sp.probeSelf(name);
    };
    rep->set("workloads.build_ms", layer(span::kBuild) * 1e3);
    rep->set("dmt.ctor_ms", layer(span::kEngineCtor) * 1e3);
    const double run_s = layer(span::kEngineRun);
    rep->set("dmt.run_s", run_s);
    rep->set("dmt.cycles", static_cast<double>(c.cycles));
    rep->set("dmt.retired", static_cast<double>(c.retired));
    rep->set("dmt.dispatch_per_retired",
             ratio(static_cast<double>(c.dispatch),
                   static_cast<double>(c.retired)));
    rep->set("dmt.join_ratio", ratio(static_cast<double>(c.joined),
                                     static_cast<double>(c.spawned)));
    rep->set("sim.oracle_ns_per_instr",
             ratio(layer(span::kOracle) * 1e9,
                   static_cast<double>(c.oracle_instr)));
    rep->set("sim.ff_minstr_per_s",
             ratio(static_cast<double>(c.ff_instr) / 1e6,
                   layer(span::kFfRun)));
    rep->set("sim.ff_chain_hit_ratio",
             ratio(static_cast<double>(c.xs.chain_hits),
                   static_cast<double>(c.xs.chain_hits
                                       + c.xs.chain_misses)));
    rep->set("sim.ff_blocks_translated",
             static_cast<double>(c.xs.blocks_translated));
    rep->set("sim.bbv_ms", layer(span::kBbv) * 1e3);
    rep->set("sim.ckpt_capture_ms", layer(span::kCapture) * 1e3);
    rep->set("sim.ckpt_pages", static_cast<double>(c.ckpt_pages));
    rep->set("phase.cluster_ms", layer(span::kCluster) * 1e3);
    rep->set("phase.k", static_cast<double>(c.phases));
    rep->set("phase.intervals", static_cast<double>(c.intervals));
    rep->set("bench.self_gap_us", sp.worstSelfGap() * 1e6);
}

void
reportTraceOverhead(double untraced_wall, double traced_wall, Report *rep)
{
    rep->set("bench.untraced_wall_s", untraced_wall);
    rep->set("bench.traced_wall_s", traced_wall);
    rep->set("bench.trace_overhead_s", traced_wall - untraced_wall);
}

void
reportCacheReuse(const CheckpointCacheCounters &ck,
                 const PhaseCacheCounters &ph, Report *rep)
{
    rep->set("sampled.ckpt_hit_ratio",
             ratio(static_cast<double>(ck.mem_hits),
                   static_cast<double>(ck.mem_hits + ck.disk_hits
                                       + ck.builds)));
    rep->set("sampled.phase_hit_ratio",
             ratio(static_cast<double>(ph.hits),
                   static_cast<double>(ph.hits + ph.builds)));
}

} // namespace dmtbench
