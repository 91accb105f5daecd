#include "exp/runner.hh"

#include <chrono>

#include "common/json.hh"
#include "common/log.hh"
#include "dmt/engine.hh"
#include "exp/sampled.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

namespace dmt
{

void
SampleSummary::jsonOn(JsonWriter &w, bool include_timing) const
{
    w.beginObject();
    w.key("mode").value(std::string_view(mode));
    w.key("skip").value(skip);
    w.key("warm").value(warm);
    w.key("measure").value(measure);
    w.key("intervals").value(intervals);
    w.key("covered").value(covered);
    w.key("functional_instr").value(functional_instr);
    if (mode == "phase") {
        w.key("phase_interval").value(phase_interval);
        w.key("phase_max_k").value(phase_max_k);
        w.key("phase_dims").value(phase_dims);
        w.key("phase_seed").value(phase_seed);
        w.key("phase_k").value(phase_k);
        w.key("phase_intervals").value(phase_intervals);
        w.key("phases");
        w.beginArray();
        for (const PhaseCpi &ph : phases) {
            w.beginObject();
            w.key("id").value(static_cast<u64>(ph.id));
            w.key("rep").value(ph.rep);
            w.key("pos").value(ph.pos);
            w.key("members").value(ph.members);
            w.key("weight").value(ph.weight);
            w.key("measured").value(ph.measured);
            w.key("cycles").value(ph.cycles);
            w.key("retired").value(ph.retired);
            w.key("cpi").value(ph.cpi);
            w.endObject();
        }
        w.endArray();
    }
    if (include_timing) {
        w.key("func_wall_s").value(func_wall_s);
        w.key("ff_blocks_translated").value(ff_blocks_translated);
        w.key("ff_chain_hits").value(ff_chain_hits);
        w.key("ff_instr").value(ff_instr);
    }
    w.key("cpi_mean").value(cpi_mean);
    w.key("cpi_sd").value(cpi_sd);
    w.key("cpi_ci95").value(cpi_ci95);
    w.key("windows");
    w.beginArray();
    for (const SampleInterval &iv : records) {
        w.beginObject();
        w.key("pos").value(iv.pos);
        w.key("cycles").value(iv.cycles);
        w.key("retired").value(iv.retired);
        w.key("spawned").value(iv.spawned);
        w.key("squashed").value(iv.squashed);
        w.key("recoveries").value(iv.recoveries);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
RunResult::jsonOn(JsonWriter &w, bool include_timing) const
{
    w.beginObject();
    w.key("workload").value(std::string_view(workload));
    w.key("cycles").value(cycles);
    w.key("retired").value(retired);
    w.key("completed").value(completed);
    w.key("ipc").value(ipc);
    if (include_timing) {
        w.key("wall_s").value(wall_s);
        w.key("minstr_per_s").value(minstr_per_s);
    }
    if (sampling.enabled) {
        w.key("sampling");
        sampling.jsonOn(w, include_timing);
    }
    StatGroup group("dmt");
    stats.registerAll(group);
    w.key("stats");
    group.jsonOn(w);
    w.endObject();
}

std::string
RunResult::jsonString() const
{
    JsonWriter w;
    jsonOn(w, /*include_timing=*/false);
    return w.str();
}

u64
effectiveBudget(bool sampled, u64 max_retired, u64 default_budget)
{
    if (max_retired > 0)
        return max_retired;
    if (default_budget > 0)
        return default_budget;
    return sampled ? 0 : kBenchRunLength;
}

RunResult
runWorkloadJob(const SimConfig &cfg, const std::string &raw_workload,
               u64 max_retired, const SampleParams &sample)
{
    // One workload, one name: gen: specs normalize to their canonical
    // spelling here so RunResult bytes, phase plans and golden files
    // never depend on which alias the caller used.
    const std::string workload = canonicalWorkloadName(raw_workload);

    if (sample.enabled())
        return runWorkloadSampled(cfg, workload, sample, max_retired);

    SimConfig run_cfg = cfg;
    run_cfg.max_retired = max_retired > 0 ? max_retired : kBenchRunLength;

    const Program prog = buildWorkload(workload);
    DmtEngine engine(run_cfg, prog);
    const auto start = std::chrono::steady_clock::now();
    engine.run();
    const double wall = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();

    RunResult r;
    r.workload = workload;
    r.cycles = engine.stats().cycles.value();
    r.retired = engine.stats().retired.value();
    r.completed = engine.programCompleted();
    r.ipc = engine.stats().ipc();
    r.wall_s = wall;
    r.minstr_per_s = wall > 0.0
        ? static_cast<double>(r.retired) / wall / 1e6 : 0.0;
    r.stats = engine.stats();
    return r;
}

double
speedupPct(const RunResult &base, const RunResult &test)
{
    if (test.cycles == 0)
        return 0.0;
    // Same retired-instruction count => cycle ratio is the speedup.
    // (Both runs cap at the same budget; a completed program retires
    // identically on both machines.)
    const double base_time = static_cast<double>(base.cycles)
        / static_cast<double>(base.retired ? base.retired : 1);
    const double test_time = static_cast<double>(test.cycles)
        / static_cast<double>(test.retired ? test.retired : 1);
    return (base_time / test_time - 1.0) * 100.0;
}

} // namespace dmt
