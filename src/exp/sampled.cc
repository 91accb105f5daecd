#include "exp/sampled.hh"

#include <sys/stat.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <span>
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

/**
 * Everything the sampled path keeps for one workload across runs: its
 * Program, the phase analyses profiled from it, and the checkpoints at
 * their representatives.  Checkpoints and analyses are immutable once
 * built (shared_ptr), so concurrent sweep cells and later runs share
 * them.  Heap-allocated so the Program that runs' cursors reference
 * has a stable address.
 */
struct WorkloadEntry
{
    explicit WorkloadEntry(const std::string &workload)
        : prog(buildWorkload(workload)),
          prog_hash(Checkpoint::programHash(prog))
    {
    }

    const Program prog;
    const u64 prog_hash;
    /** Guards every member below; never held across a cursor walk. */
    std::mutex m;
    /** Phase windows' start checkpoints; uniform windows keep none. */
    std::map<u64, std::shared_ptr<const Checkpoint>> by_pos;
    /** Keyed by (interval, max_k, dims, seed, budget). */
    std::map<std::array<u64, 5>, std::shared_ptr<const PhaseAnalysis>>
        analyses;
};

/** Lock order: g_cache_m before any entry's m, never the reverse. */
std::mutex g_cache_m;
std::map<std::string, std::shared_ptr<WorkloadEntry>> g_cache;
/** On-disk checkpoint directory ("" = memory only); g_cache_m guards
 *  it. */
std::string g_ckpt_dir;

// Shared-cache accounting (monotonic until clearCheckpointCache() /
// clearPhaseCache()).
std::atomic<u64> g_ckpt_mem_hits{0};
std::atomic<u64> g_ckpt_disk_hits{0};
std::atomic<u64> g_ckpt_builds{0};
std::atomic<u64> g_phase_hits{0};
std::atomic<u64> g_phase_builds{0};

std::shared_ptr<WorkloadEntry>
entryFor(const std::string &workload)
{
    std::lock_guard<std::mutex> lock(g_cache_m);
    auto it = g_cache.find(workload);
    if (it == g_cache.end()) {
        it = g_cache
                 .emplace(workload,
                          std::make_shared<WorkloadEntry>(workload))
                 .first;
    }
    return it->second;
}

/** The checkpoint directory, created (one level) on first use.
 *  @return "" when checkpoints stay in memory only. */
std::string
ckptDir()
{
    std::string dir;
    {
        std::lock_guard<std::mutex> lock(g_cache_m);
        dir = g_ckpt_dir;
    }
    if (!dir.empty())
        ::mkdir(dir.c_str(), 0755); // best-effort; EEXIST is common
    return dir;
}

/** Phase analysis of @p e's program, profiled once per key. */
std::shared_ptr<const PhaseAnalysis>
analysisOf(WorkloadEntry &e, const PhaseParams &params, u64 budget)
{
    // Build under the entry lock: concurrent sweep cells asking for
    // the same analysis wait for one profile instead of racing N.
    std::lock_guard<std::mutex> lock(e.m);
    std::shared_ptr<const PhaseAnalysis> &slot =
        e.analyses[{params.interval, params.max_k, params.dims,
                    params.seed, budget}];
    if (slot) {
        g_phase_hits.fetch_add(1, std::memory_order_relaxed);
        return slot;
    }
    u64 covered = 0;
    bool completed = false;
    const std::vector<IntervalBbv> bbvs = collectBbvs(
        e.prog, params.interval, budget, &covered, &completed);
    auto pa = std::make_shared<PhaseAnalysis>(clusterPhases(bbvs, params));
    pa->covered = covered;
    pa->completed = completed;
    g_phase_builds.fetch_add(1, std::memory_order_relaxed);
    slot = std::move(pa);
    return slot;
}

std::string
ckptPath(const std::string &dir, const std::string &workload, u64 pos)
{
    return strprintf("%s/%s-%llu.ckpt", dir.c_str(), workload.c_str(),
                     static_cast<unsigned long long>(pos));
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
 * where windows start and how their CPIs aggregate; checkpoint lookup,
 * the golden-checked window itself, the stat merge and the final
 * coverage and telemetry stamp live here once.
 */
struct SampledRun
{
    SampledRun(const SimConfig &cfg_, const std::string &workload_,
               const SampleParams &params_)
        : cfg(cfg_), workload(workload_), params(params_),
          dir(ckptDir()), e(entryFor(workload_)),
          wall_start(std::chrono::steady_clock::now()), cursor(e->prog)
    {
        r.workload = workload;
        r.sampling.enabled = true;
        r.sampling.warm = params.warm;
        r.sampling.measure = params.measure;
    }

    /**
     * Architectural checkpoint at exactly @p pos retired instructions;
     * @p pos never decreases within a run.  Order of preference: the
     * entry's phase checkpoints, the checkpoint directory, then this
     * run's own cursor, walked forward from where it stands or from
     * the latest checkpoint the run holds, whichever is further on.
     *
     * @return nullptr when the program HALTs at or before @p pos; the
     *         cursor then stands at HALT.
     */
    std::shared_ptr<const Checkpoint>
    checkpointAt(u64 pos)
    {
        DMT_ASSERT(!last || pos >= last->instr_count,
                   "sampled window starts must not decrease");
        {
            std::lock_guard<std::mutex> lock(e->m);
            auto it = e->by_pos.find(pos);
            if (it != e->by_pos.end()) {
                g_ckpt_mem_hits.fetch_add(1, std::memory_order_relaxed);
                return last = it->second;
            }
        }

        if (!dir.empty()) {
            auto ck = std::make_shared<Checkpoint>();
            if (Checkpoint::load(ckptPath(dir, workload, pos),
                                 e->prog_hash, ck.get())) {
                DMT_ASSERT(ck->instr_count == pos,
                           "checkpoint file position mismatch");
                g_ckpt_disk_hits.fetch_add(1, std::memory_order_relaxed);
                return keep(std::move(ck));
            }
        }

        FunctionalCore &core = cursor;
        if (last && last->instr_count > core.instrCount())
            core.restore(last->state, last->mem, last->instr_count);
        // With a deadline armed, fast-forward in bounded chunks (a few
        // tens of host milliseconds each) so a long skip cannot blow
        // past the caller's wall-clock budget between checks.
        const bool armed = cfg.hasDeadline();
        constexpr u64 kDeadlineChunk = u64{1} << 22;
        const auto t0 = std::chrono::steady_clock::now();
        while (core.instrCount() < pos && !core.halted()) {
            u64 gap = pos - core.instrCount();
            if (armed && gap > kDeadlineChunk)
                gap = kDeadlineChunk;
            core.run(gap);
            if (armed && std::chrono::steady_clock::now() >= cfg.deadline) {
                panic("deadline expired during functional fast-forward "
                      "of %s at position %llu",
                      workload.c_str(),
                      static_cast<unsigned long long>(core.instrCount()));
            }
        }
        ff_wall += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
        if (core.halted())
            return nullptr;

        auto ck = std::make_shared<Checkpoint>(Checkpoint::capture(core));
        g_ckpt_builds.fetch_add(1, std::memory_order_relaxed);
        if (!dir.empty())
            ck->save(ckptPath(dir, workload, pos)); // best-effort (warns)
        return keep(std::move(ck));
    }

    /** Make @p ck the run's latest checkpoint; a phase window's also
     *  goes into the entry, for later runs on other machines. */
    std::shared_ptr<const Checkpoint>
    keep(std::shared_ptr<const Checkpoint> ck)
    {
        if (params.phaseMode()) {
            std::lock_guard<std::mutex> lock(e->m);
            e->by_pos.emplace(ck->instr_count, ck);
        }
        return last = std::move(ck);
    }

    /**
     * Run one warm + measure window resumed at stream position
     * @p start, golden-checked, and fold its measurement (if any) into
     * the result.  A program that HALTs before @p start runs nothing:
     * coverage extends to HALT.
     */
    Window
    window(u64 start)
    {
        const char *what = params.phaseMode() ? "phase" : "sampled";
        // Small detailed windows may finish under the engine's own
        // deadline-check granule, so re-check between windows too.
        if (cfg.hasDeadline()
            && std::chrono::steady_clock::now() >= cfg.deadline) {
            panic("deadline expired between %s windows of %s at "
                  "position %llu",
                  what, workload.c_str(),
                  static_cast<unsigned long long>(start));
        }

        Window w;
        const std::shared_ptr<const Checkpoint> ck = checkpointAt(start);
        if (!ck) {
            w.end = cursor.instrCount();
            w.completed = true;
            return w;
        }

        SimConfig wcfg = cfg;
        wcfg.warmup_retired = params.warm;
        wcfg.max_retired = params.warm + params.measure;
        DmtEngine engine(wcfg, e->prog, ck.get());
        engine.run();
        if (!engine.goldenOk()) {
            panic("golden mismatch on %s (%s window at %llu): %s",
                  workload.c_str(), what,
                  static_cast<unsigned long long>(start),
                  engine.goldenError().c_str());
        }
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

    /** Stamp coverage, fast-forward telemetry and host timing once the
     *  placement has set the CPI estimate and r.ipc. */
    RunResult
    finish(u64 covered, bool completed)
    {
        r.sampling.covered = covered;
        // Stream-derived (not host-work-derived) so the canonical JSON
        // is identical whether checkpoints came from cache or fresh
        // runs.
        r.sampling.functional_instr =
            covered > detailed_retired ? covered - detailed_retired : 0;
        r.sampling.func_wall_s = ff_wall;
        const TranslationStats xs = cursor.translationStats();
        r.sampling.ff_blocks_translated = xs.blocks_translated;
        r.sampling.ff_chain_hits = xs.chain_hits;
        r.completed = completed;
        r.wall_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
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
    /** Read once, before any entry lock is taken (lock order). */
    const std::string dir;
    const std::shared_ptr<WorkloadEntry> e;
    const std::chrono::steady_clock::time_point wall_start;
    /** This run's fast-forward core; it only walks forward. */
    FunctionalCore cursor;
    /** The checkpoint of the latest window start. */
    std::shared_ptr<const Checkpoint> last;
    /** Host seconds spent fast-forwarding and profiling. */
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
        const Window w = run.window(pos + params.skip);
        pos = w.end;
        completed = w.completed;
        if (w.measured())
            cpis.push_back(w.cpi());
        if (completed)
            break;
    }

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

/** Phase placement: one window per phase representative of the
 *  (cached) BBV profile; CPI is weighted by phase. */
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

    // The profile's wall clock lands in the fast-forward bucket.
    const auto prof_start = std::chrono::steady_clock::now();
    const std::shared_ptr<const PhaseAnalysis> pa =
        analysisOf(*run.e, params.phase, budget);
    run.ff_wall += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - prof_start)
                       .count();
    r.sampling.phase_k = pa->k;
    r.sampling.phase_intervals = pa->assignment.size();

    bool completed = pa->completed;
    for (const PhaseInfo &ph : pa->phases) {
        PhaseCpi row;
        row.id = ph.id;
        row.rep = ph.rep;
        row.pos = ph.rep * params.phase.interval;
        row.weight = ph.weight;
        row.members = ph.members;
        // A representative can sit past HALT only if profiling and the
        // run's cursor disagree — which the bit-identity contract
        // rules out — but stay graceful: the phase goes unmeasured and
        // the aggregate renormalizes over the measured ones.
        const Window w = run.window(row.pos);
        completed = completed || w.completed;
        if (w.measured()) {
            row.measured = true;
            row.cycles = w.cycles;
            row.retired = w.retired;
            row.cpi = w.cpi();
        }
        r.sampling.phases.push_back(row);
    }

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
    return run.finish(pa->covered, completed);
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
    std::lock_guard<std::mutex> lock(g_cache_m);
    g_cache.clear();
    g_ckpt_mem_hits.store(0, std::memory_order_relaxed);
    g_ckpt_disk_hits.store(0, std::memory_order_relaxed);
    g_ckpt_builds.store(0, std::memory_order_relaxed);
}

void
clearPhaseCache()
{
    std::lock_guard<std::mutex> lock(g_cache_m);
    for (auto &[name, e] : g_cache) {
        std::lock_guard<std::mutex> entry_lock(e->m);
        e->analyses.clear();
    }
    g_phase_hits.store(0, std::memory_order_relaxed);
    g_phase_builds.store(0, std::memory_order_relaxed);
}

void
setCheckpointDir(std::string dir)
{
    std::lock_guard<std::mutex> lock(g_cache_m);
    g_ckpt_dir = std::move(dir);
}

CheckpointCacheCounters
checkpointCacheCounters()
{
    CheckpointCacheCounters c;
    c.mem_hits = g_ckpt_mem_hits.load(std::memory_order_relaxed);
    c.disk_hits = g_ckpt_disk_hits.load(std::memory_order_relaxed);
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
