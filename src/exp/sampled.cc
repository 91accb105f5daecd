#include "exp/sampled.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <tuple>
#include <vector>

#include "common/env.hh"
#include "common/log.hh"
#include "common/strutil.hh"
#include "dmt/engine.hh"
#include "sim/checkpoint.hh"
#include "sim/functional_core.hh"
#include "workloads/workloads.hh"

namespace dmt
{

namespace
{

constexpr u64 kUnbounded = ~u64{0};

/**
 * One sample-spec field: the name its range message uses, where it
 * lives, and its range.  A spec lists a mode's fields in order; the
 * first three are required and omitted trailing fields keep their
 * SampleParams defaults.
 */
struct SpecField
{
    const char *name;
    u64 &(*at)(SampleParams &);
    u64 lo = 0;
    u64 hi = kUnbounded;
};

constexpr SpecField kUniformFields[] = {
    {"skip", [](SampleParams &p) -> u64 & { return p.skip; }},
    {"warm", [](SampleParams &p) -> u64 & { return p.warm; }},
    {"sample measure window",
     [](SampleParams &p) -> u64 & { return p.measure; }, 1},
    {"intervals", [](SampleParams &p) -> u64 & { return p.max_intervals; }},
};

constexpr SpecField kPhaseFields[] = {
    {"phase interval length",
     [](SampleParams &p) -> u64 & { return p.phase.interval; }, 1},
    {"warm", [](SampleParams &p) -> u64 & { return p.warm; }},
    {"sample measure window",
     [](SampleParams &p) -> u64 & { return p.measure; }, 1},
    {"phase maxk", [](SampleParams &p) -> u64 & { return p.phase.max_k; },
     1, 64},
    {"phase dims", [](SampleParams &p) -> u64 & { return p.phase.dims; },
     1, 256},
    {"seed", [](SampleParams &p) -> u64 & { return p.phase.seed; }},
};

std::span<const SpecField>
specFields(const SampleParams &p)
{
    if (p.phaseMode())
        return kPhaseFields;
    return kUniformFields;
}

} // namespace

std::string
SampleParams::canonicalSpec() const
{
    if (!enabled())
        return "off";
    // Every field explicit: two specs that behave identically must
    // render identically (cache keys), regardless of which trailing
    // fields the user spelled out.
    SampleParams p = *this; // the field accessors take a mutable spec
    std::string s = phaseMode() ? "phase" : "";
    for (const SpecField &f : specFields(p)) {
        if (!s.empty())
            s += ':';
        s += std::to_string(f.at(p));
    }
    return s;
}

bool
SampleParams::parse(std::string_view spec, SampleParams *out,
                    std::string *err)
{
    std::string scratch;
    std::string &e = err ? *err : scratch;
    *out = SampleParams{};
    std::string_view t = trim(spec);
    if (t.empty())
        return true; // disabled

    if (t.rfind("phase:", 0) == 0) {
        out->mode = Mode::Phase;
        t.remove_prefix(6);
    }
    const std::span<const SpecField> fields = specFields(*out);
    const std::vector<std::string> parts = splitFields(t, ":");
    if (parts.size() < 3 || parts.size() > fields.size()) {
        e = out->phaseMode()
            ? "phase sample spec must be phase:interval:warm:"
              "measure[:maxk[:dims[:seed]]]"
            : "sample spec must be skip:warm:measure[:intervals]";
        return false;
    }
    for (size_t i = 0; i < parts.size(); ++i) {
        if (!parseU64(parts[i], &fields[i].at(*out))) {
            e = "bad sample spec field \"" + parts[i] + "\"";
            return false;
        }
    }
    for (const SpecField &f : fields) {
        const u64 v = f.at(*out);
        if (v < f.lo || v > f.hi) {
            e = f.hi == kUnbounded
                ? std::string(f.name) + " must be > 0"
                : strprintf("%s must be %llu..%llu", f.name,
                            static_cast<unsigned long long>(f.lo),
                            static_cast<unsigned long long>(f.hi));
            return false;
        }
    }
    return true;
}

namespace
{

/** Longest fast-forward stretch between deadline checks: a few tens
 *  of host milliseconds. */
constexpr u64 kDeadlineChunk = u64{1} << 22;

/** Bytes a trail may hold, each checkpoint's pages counted at full
 *  size even where they share blocks. */
constexpr u64 kTrailBytes = u64{1} << 20;

/** What @p ck counts against kTrailBytes; the snapshot itself counts
 *  too, so a program that touches no page still lays a bounded
 *  trail. */
u64
trailBytes(const Checkpoint &ck)
{
    return sizeof(Checkpoint) + ck.mem.numPages() * MainMemory::kPageSize;
}

/**
 * The checkpoints a phase profile lays down, kept only to shorten the
 * walks to the representatives: one at every multiple of a stride
 * that starts at one interval.  Past kTrailBytes, every other
 * checkpoint goes and the stride doubles, so the trail of a program of
 * any length stays bounded, and a program whose footprint alone passes
 * the budget lays none.
 */
struct Trail
{
    /** Capture @p core if it stands on a stride multiple.
     *  @return the next multiple. */
    u64
    offer(const FunctionalCore &core)
    {
        const u64 pos = core.instrCount();
        if (pos > 0 && pos % stride == 0) {
            const Checkpoint &ck =
                at.emplace(pos, Checkpoint::capture(core, prog_hash))
                    .first->second;
            bytes += trailBytes(ck);
            while (bytes > kTrailBytes) {
                stride *= 2;
                for (auto it = at.begin(); it != at.end();) {
                    if (it->first % stride == 0) {
                        ++it;
                        continue;
                    }
                    bytes -= trailBytes(it->second);
                    it = at.erase(it);
                }
            }
        }
        return (pos / stride + 1) * stride;
    }

    u64 stride;
    const u64 prog_hash;
    u64 bytes = 0;
    std::map<u64, Checkpoint> at{};
};

/**
 * A phase plan: the one thing the sampled path keeps across runs.  It
 * holds a workload's phase analysis and the checkpoint at each
 * representative; immutable once built, so concurrent sweep cells and
 * later runs on other machines share it.
 */
struct PhasePlan
{
    PhaseAnalysis analysis;
    u64 covered = 0;        ///< instructions profiled
    bool completed = false; ///< the profile reached HALT
    /** starts[i] is where analysis.phases[i]'s window resumes. */
    std::vector<Checkpoint> starts;
};

/** One key's plan, built under the slot's lock by the first run that
 *  asks; a build that throws leaves it empty. */
struct PlanSlot
{
    std::mutex m;
    std::shared_ptr<const PhasePlan> plan;
};

/** (workload, interval, max_k, dims, seed, budget); runWorkloadJob()
 *  passes the workload's canonical name. */
using PlanKey = std::tuple<std::string, u64, u64, u64, u64, u64>;

/** Guards the map only, never a build. */
std::mutex g_plans_m;
std::map<PlanKey, std::shared_ptr<PlanSlot>> g_plans;

/** Forget every plan; a run still holding one keeps it alive. */
void
dropPlans()
{
    std::lock_guard<std::mutex> lock(g_plans_m);
    g_plans.clear();
}

// Plan accounting (monotonic until clearCheckpointCache() /
// clearPhaseCache()).
std::atomic<u64> g_ckpt_mem_hits{0};
std::atomic<u64> g_ckpt_builds{0};
std::atomic<u64> g_phase_hits{0};
std::atomic<u64> g_phase_builds{0};

/** Seconds since @p t0. */
double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - t0)
        .count();
}

/** What one window added to its run. */
struct Window
{
    u64 end = 0;            ///< stream position after the window
    bool completed = false; ///< the program HALTed at or before end
    u64 cycles = 0;         ///< measured cycles
    u64 retired = 0;        ///< measured instructions (0: unmeasured)

    bool measured() const { return retired > 0; }

    double
    cpi() const
    {
        return static_cast<double>(cycles) / static_cast<double>(retired);
    }
};

/**
 * One sampled run.  The two placements (uniform, phase) decide only
 * where windows start and how their CPIs aggregate; the walk, the
 * golden-checked window itself, the stat merge and the final coverage
 * and telemetry stamp live here once.
 */
struct SampledRun
{
    SampledRun(const SimConfig &cfg_, const std::string &workload_,
               const SampleParams &params_)
        : cfg(cfg_), workload(workload_), params(params_),
          wall_start(std::chrono::steady_clock::now()),
          prog(buildWorkload(workload_)),
          prog_hash(Checkpoint::programHash(prog)), cursor(prog)
    {
        r.workload = workload;
        r.sampling.enabled = true;
        r.sampling.warm = params.warm;
        r.sampling.measure = params.measure;
    }

    /** Throw once the job's deadline has passed; @p where and
     *  @p pos say how far the run got. */
    void
    checkDeadline(const char *where, u64 pos) const
    {
        if (cfg.hasDeadline()
            && std::chrono::steady_clock::now() >= cfg.deadline) {
            panic("deadline expired %s of %s at position %llu", where,
                  workload.c_str(), static_cast<unsigned long long>(pos));
        }
    }

    /** Run the cursor forward to @p pos, or to HALT if that comes
     *  first, in chunks so a long skip cannot blow past the caller's
     *  deadline between checks. */
    void
    walkTo(u64 pos)
    {
        while (cursor.instrCount() < pos && !cursor.halted()) {
            checkDeadline("during functional fast-forward",
                          cursor.instrCount());
            cursor.run(std::min(pos - cursor.instrCount(), kDeadlineChunk));
        }
    }

    /** A window's start checkpoint, captured where the cursor stands. */
    Checkpoint
    capture() const
    {
        g_ckpt_builds.fetch_add(1, std::memory_order_relaxed);
        return Checkpoint::capture(cursor, prog_hash);
    }

    /**
     * The phase plan for this run's key.  The first run to ask builds
     * it on its own cursor: profile with a trail, cluster, then walk
     * from the nearest trail checkpoint to each representative and
     * capture it there.
     */
    std::shared_ptr<const PhasePlan>
    plan(u64 budget)
    {
        const PhaseParams &pp = params.phase;
        std::shared_ptr<PlanSlot> slot;
        {
            std::lock_guard<std::mutex> lock(g_plans_m);
            std::shared_ptr<PlanSlot> &s = g_plans[{
                workload, pp.interval, pp.max_k, pp.dims, pp.seed, budget}];
            if (!s)
                s = std::make_shared<PlanSlot>();
            slot = s;
        }
        // Concurrent sweep cells asking for one plan wait for one build
        // instead of racing N.
        std::lock_guard<std::mutex> lock(slot->m);
        if (slot->plan) {
            g_phase_hits.fetch_add(1, std::memory_order_relaxed);
            g_ckpt_mem_hits.fetch_add(slot->plan->starts.size(),
                                      std::memory_order_relaxed);
            return slot->plan;
        }
        // The build, profile and walks alike, lands in this run's
        // fast-forward bucket once; a run that waits for it adds
        // nothing.  The profile pauses at least every kDeadlineChunk
        // instructions, so the deadline is checked as often as in a
        // walk.
        const auto t0 = std::chrono::steady_clock::now();
        Trail trail{pp.interval, prog_hash};
        BbvProfile prof = profileBbvs(
            cursor, pp.interval, budget, [&](const FunctionalCore &core) {
                checkDeadline("during the BBV profile", core.instrCount());
                return trail.offer(core);
            });
        auto fresh = std::make_shared<PhasePlan>(PhasePlan{
            clusterPhases(prof.bbvs, pp), prof.covered, prof.completed, {}});
        // Phases come in representative order, so the cursor only
        // restores a trail checkpoint that stands nearer than it does.
        for (const PhaseInfo &ph : fresh->analysis.phases) {
            const u64 pos = ph.rep * pp.interval;
            const auto it = trail.at.upper_bound(pos);
            if (it != trail.at.begin()) {
                const Checkpoint &from = std::prev(it)->second;
                if (from.instr_count > cursor.instrCount()
                    || cursor.instrCount() > pos) {
                    cursor.restore(from.state, from.mem, from.instr_count);
                }
            } else if (cursor.instrCount() > pos) {
                cursor.reset();
            }
            walkTo(pos);
            DMT_ASSERT(cursor.instrCount() == pos && !cursor.halted(),
                       "phase representative at %llu lies past the "
                       "profile of %s",
                       static_cast<unsigned long long>(pos),
                       workload.c_str());
            fresh->starts.push_back(capture());
        }
        g_phase_builds.fetch_add(1, std::memory_order_relaxed);
        ff_wall += secondsSince(t0);
        slot->plan = std::move(fresh);
        return slot->plan;
    }

    /**
     * Run one warm + measure window resumed at @p ck, golden-checked,
     * and fold its measurement (if any) into the result.
     */
    Window
    window(const Checkpoint &ck)
    {
        const u64 start = ck.instr_count;
        // Small detailed windows may finish under the engine's own
        // deadline-check granule, so re-check between windows too.
        checkDeadline(params.phaseMode() ? "between phase windows"
                                         : "between sampled windows",
                      start);

        SimConfig wcfg = cfg;
        wcfg.warmup_retired = params.warm;
        wcfg.max_retired = params.warm + params.measure;
        DmtEngine engine(wcfg, prog, &ck, prog_hash);
        engine.run();
        Window w;
        w.end = start + engine.retiredTotal();
        w.completed = engine.programCompleted();
        detailed_retired += engine.retiredTotal();

        // A window the program ended during warmup contributes coverage
        // but no measurement (its stat block never detached).
        if (engine.measurementActive()
            && engine.stats().retired.value() > 0) {
            const DmtStats &ws = engine.stats();
            SampleInterval iv;
            iv.pos = start;
            iv.cycles = ws.cycles.value();
            iv.retired = ws.retired.value();
            iv.spawned = ws.threads_spawned.value();
            iv.squashed = ws.squashed_insts.value();
            iv.recoveries = ws.recoveries.value();
            r.sampling.records.push_back(iv);
            ++r.sampling.intervals;
            r.cycles += iv.cycles;
            r.retired += iv.retired;
            r.stats.merge(ws);
            w.cycles = iv.cycles;
            w.retired = iv.retired;
        }
        return w;
    }

    /**
     * Throw unless some window measured: a run whose program ends
     * before the first window's warm-up is over has no estimate to
     * report.  @p end is where the program ended, @p first the first
     * window's start.
     */
    void
    requireMeasured(u64 end, u64 first) const
    {
        if (r.sampling.intervals > 0)
            return;
        panic("%s run of %s measured no window: the program ends after "
              "%llu instructions, before the warm-up of its first window "
              "(at %llu) is over",
              params.phaseMode() ? "phase" : "sampled", workload.c_str(),
              static_cast<unsigned long long>(end),
              static_cast<unsigned long long>(first));
    }

    /** Stamp coverage, fast-forward telemetry and host timing once the
     *  placement has set the CPI estimate and r.ipc. */
    RunResult
    finish(u64 covered, bool completed)
    {
        r.sampling.covered = covered;
        // Stream-derived (not host-work-derived) so the canonical JSON
        // is identical whether a plan came from memory or a fresh
        // build.
        r.sampling.functional_instr =
            covered > detailed_retired ? covered - detailed_retired : 0;
        r.sampling.func_wall_s = ff_wall;
        const TranslationStats xs = cursor.translationStats();
        r.sampling.ff_blocks_translated = xs.blocks_translated;
        r.sampling.ff_chain_hits = xs.chain_hits;
        r.sampling.ff_instr = xs.instrs_executed;
        r.completed = completed;
        r.wall_s = secondsSince(wall_start);
        // The headline throughput is stream coverage per wall second —
        // the "paper-scale at functional speed" number.
        r.minstr_per_s = r.wall_s > 0.0
            ? static_cast<double>(covered) / r.wall_s / 1e6
            : 0.0;
        return std::move(r);
    }

    const SimConfig &cfg;
    const std::string &workload;
    const SampleParams &params;
    const std::chrono::steady_clock::time_point wall_start;
    const Program prog;
    const u64 prog_hash;
    /** This run's fast-forward core: a uniform run walks it forward to
     *  each window; a phase run builds its plan on it, if no earlier
     *  run has. */
    FunctionalCore cursor;
    /** Host seconds spent fast-forwarding, profiling and building a
     *  plan. */
    double ff_wall = 0.0;
    /** Instructions run in detail, warm and measure alike. */
    u64 detailed_retired = 0;
    RunResult r;
};

/** Uniform placement: one window every params.skip instructions; CPI
 *  is the plain mean over measured windows. */
RunResult
runUniform(SampledRun &run, u64 budget)
{
    const SampleParams &params = run.params;
    RunResult &r = run.r;
    r.sampling.skip = params.skip;

    std::vector<double> cpis;
    u64 pos = 0; // stream position traversed
    bool completed = false;
    while ((params.max_intervals == 0
            || r.sampling.intervals < params.max_intervals)
           && (budget == 0 || pos < budget)) {
        const auto t0 = std::chrono::steady_clock::now();
        run.walkTo(pos + params.skip);
        run.ff_wall += secondsSince(t0);
        if (run.cursor.halted()) {
            // The program HALTed at or before the window: coverage
            // extends to HALT.
            pos = run.cursor.instrCount();
            completed = true;
            break;
        }
        const Window w = run.window(run.capture());
        pos = w.end;
        completed = w.completed;
        if (w.measured())
            cpis.push_back(w.cpi());
        if (completed)
            break;
    }
    run.requireMeasured(pos, params.skip);

    const size_t n = cpis.size();
    if (n > 0) {
        double sum = 0.0;
        for (double c : cpis)
            sum += c;
        r.sampling.cpi_mean = sum / static_cast<double>(n);
        if (n > 1) {
            double var = 0.0;
            for (double c : cpis) {
                const double d = c - r.sampling.cpi_mean;
                var += d * d;
            }
            r.sampling.cpi_sd =
                std::sqrt(var / static_cast<double>(n - 1));
            r.sampling.cpi_ci95 = 1.96 * r.sampling.cpi_sd
                / std::sqrt(static_cast<double>(n));
        }
    }
    r.ipc = r.cycles > 0 ? static_cast<double>(r.retired)
                               / static_cast<double>(r.cycles)
                         : 0.0;
    return run.finish(pos, completed);
}

/** Phase placement: one window per representative of the run's
 *  plan; CPI is weighted by phase. */
RunResult
runPhases(SampledRun &run, u64 budget)
{
    const SampleParams &params = run.params;
    RunResult &r = run.r;
    r.sampling.mode = "phase";
    r.sampling.phase_interval = params.phase.interval;
    r.sampling.phase_max_k = params.phase.max_k;
    r.sampling.phase_dims = params.phase.dims;
    r.sampling.phase_seed = params.phase.seed;

    const std::shared_ptr<const PhasePlan> plan = run.plan(budget);
    const PhaseAnalysis &pa = plan->analysis;
    r.sampling.phase_k = pa.k;
    r.sampling.phase_intervals = pa.assignment.size();

    bool completed = plan->completed;
    u64 end = plan->covered;
    for (size_t i = 0; i < pa.phases.size(); ++i) {
        const PhaseInfo &ph = pa.phases[i];
        PhaseCpi row;
        row.id = ph.id;
        row.rep = ph.rep;
        row.pos = ph.rep * params.phase.interval;
        row.weight = ph.weight;
        row.members = ph.members;
        const Window w = run.window(plan->starts[i]);
        completed = completed || w.completed;
        if (w.completed)
            end = w.end;
        if (w.measured()) {
            row.measured = true;
            row.cycles = w.cycles;
            row.retired = w.retired;
            row.cpi = w.cpi();
        }
        r.sampling.phases.push_back(row);
    }
    run.requireMeasured(end, r.sampling.phases.empty()
                                 ? 0
                                 : r.sampling.phases.front().pos);

    // Weighted aggregate over the measured phases, weights
    // renormalized so unmeasured phases (end-of-program windows that
    // never detached their stats) drop out of the estimate instead of
    // deflating it.
    double wsum = 0.0;
    size_t measured = 0;
    for (const PhaseCpi &row : r.sampling.phases) {
        if (row.measured) {
            wsum += row.weight;
            ++measured;
        }
    }
    if (measured > 0 && wsum > 0.0) {
        double mean = 0.0;
        for (const PhaseCpi &row : r.sampling.phases)
            if (row.measured)
                mean += (row.weight / wsum) * row.cpi;
        r.sampling.cpi_mean = mean;
        if (measured > 1) {
            double var = 0.0;
            for (const PhaseCpi &row : r.sampling.phases) {
                if (!row.measured)
                    continue;
                const double d = row.cpi - mean;
                var += (row.weight / wsum) * d * d;
            }
            // Bessel-style correction on the weighted spread so the CI
            // matches the uniform sampler's n-1 convention.
            const double n = static_cast<double>(measured);
            r.sampling.cpi_sd = std::sqrt(var * n / (n - 1.0));
            r.sampling.cpi_ci95 =
                1.96 * r.sampling.cpi_sd / std::sqrt(n);
        }
    }
    // The headline IPC is the weighted estimate — the whole point of
    // phase weighting — not the unweighted window sum.
    r.ipc = r.sampling.cpi_mean > 0.0 ? 1.0 / r.sampling.cpi_mean : 0.0;
    return run.finish(plan->covered, completed);
}

} // namespace

RunResult
runWorkloadSampled(const SimConfig &cfg, const std::string &workload,
                   const SampleParams &params, u64 budget)
{
    DMT_ASSERT(params.enabled(),
               "runWorkloadSampled needs a measure window");
    SampledRun run(cfg, workload, params);
    return params.phaseMode() ? runPhases(run, budget)
                              : runUniform(run, budget);
}

void
clearCheckpointCache()
{
    dropPlans();
    g_ckpt_mem_hits.store(0, std::memory_order_relaxed);
    g_ckpt_builds.store(0, std::memory_order_relaxed);
}

void
clearPhaseCache()
{
    dropPlans();
    g_phase_hits.store(0, std::memory_order_relaxed);
    g_phase_builds.store(0, std::memory_order_relaxed);
}

CheckpointCacheCounters
checkpointCacheCounters()
{
    CheckpointCacheCounters c;
    c.mem_hits = g_ckpt_mem_hits.load(std::memory_order_relaxed);
    c.builds = g_ckpt_builds.load(std::memory_order_relaxed);
    return c;
}

PhaseCacheCounters
phaseCacheCounters()
{
    PhaseCacheCounters c;
    c.hits = g_phase_hits.load(std::memory_order_relaxed);
    c.builds = g_phase_builds.load(std::memory_order_relaxed);
    return c;
}

} // namespace dmt
