/**
 * @file
 * Phase-aware vs uniform sampling accuracy (DESIGN.md section 17): for
 * every suite kernel plus a spread of generated-family instances, run
 * full-detail simulation as ground truth, then estimate CPI three ways
 * — uniform interval sampling, uniform capped to the same number of
 * windows the phase mode uses (matched measured-instruction budget),
 * and phase-aware sampling (DMT_SAMPLE=phase:...) — each from cold
 * caches so wall clocks include the profiling/checkpointing they
 * require.  The table reports per-workload CPI error against full
 * detail, the confidence-interval width, detailed instructions spent
 * and wall clock; BENCH_phase.json archives everything.  The headline
 * claim this bench defends: phase placement matches or beats uniform
 * accuracy while spending several times fewer detailed instructions.
 */

#include "bench_common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "cli/env.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "exp/phase.hh"
#include "exp/runner.hh"
#include "exp/sampled.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

namespace
{

/** One sampling mode's estimate for one workload. */
struct ModeResult
{
    double cpi = 0.0;
    double ci95 = 0.0;
    double err_pct = 0.0;  ///< |cpi - full| / full * 100
    dmt::u64 windows = 0;
    dmt::u64 detailed = 0; ///< detailed (warm + measured) instructions
    dmt::u64 covered = 0;
    double wall_s = 0.0;
    dmt::u64 phase_k = 0;  ///< phase mode only
};

struct WorkloadRow
{
    std::string name;
    double full_cpi = 0.0;
    dmt::u64 full_instr = 0;
    double full_wall_s = 0.0;
    ModeResult uniform, matched, phase;
};

/** The comparison suite: all 8 kernels plus one instance per
 *  generated family, knobs sized so the run fills the budget. */
std::vector<std::string>
phaseBenchSpecs()
{
    using namespace dmt;
    std::vector<std::string> specs;
    for (const WorkloadInfo &w : workloadSuite())
        specs.emplace_back(w.name);
    specs.emplace_back("gen:loopnest:21:trips=200:units=48");
    specs.emplace_back("gen:branchy:7:trips=60000");
    specs.emplace_back("gen:alias:3:trips=80000");
    specs.emplace_back("gen:ptrchase:5:trips=50000:units=2048");
    return specs;
}

ModeResult
runMode(const dmt::SimConfig &cfg, const std::string &workload,
        const dmt::SampleParams &p, dmt::u64 budget, double full_cpi)
{
    using namespace dmt;
    // Cold caches: each mode pays for its own profiling/checkpoints,
    // so wall clocks compare the full cost of the approach.
    clearCheckpointCache();
    clearPhaseCache();
    const RunResult r = runWorkloadSampled(cfg, workload, p, budget);
    ModeResult m;
    m.cpi = r.sampling.cpi_mean;
    m.ci95 = r.sampling.cpi_ci95;
    m.err_pct = full_cpi > 0.0
        ? std::fabs(m.cpi - full_cpi) / full_cpi * 100.0 : 0.0;
    m.windows = r.sampling.intervals;
    m.covered = r.sampling.covered;
    m.detailed = r.sampling.covered - r.sampling.functional_instr;
    m.wall_s = r.wall_s;
    m.phase_k = r.sampling.phase_k;
    return m;
}

void
modeJsonOn(dmt::JsonWriter &w, const ModeResult &m)
{
    w.beginObject();
    w.key("cpi").value(m.cpi);
    w.key("ci95").value(m.ci95);
    w.key("err_pct").value(m.err_pct);
    w.key("windows").value(m.windows);
    w.key("detailed_instr").value(m.detailed);
    w.key("covered").value(m.covered);
    w.key("wall_s").value(m.wall_s);
    if (m.phase_k > 0)
        w.key("phase_k").value(m.phase_k);
    w.endObject();
}

} // namespace

int
benchMain(int, char **)
{
    using namespace dmt;

    // Whole programs (capped so gen:branchy stays bounded): the longer
    // the stream, the more windows uniform sampling must pay for while
    // the phase mode still pays k.  DMT_BENCH_INSTR can push further.
    const u64 budget = std::max<u64>(benchRunLength(), 2000000);
    const SimConfig cfg = simConfigFromEnv(SimConfig::dmt(6, 2));

    // Per-window depth differs deliberately: uniform spreads its
    // budget over every interval, so each window stays shallow; phase
    // runs only k windows, so it can afford warm/measure deep enough
    // to beat the cold-resume bias — that trade is the mode's point.
    SampleParams uniform;
    std::string perr;
    if (!SampleParams::parse("20000:2000:2000", &uniform, &perr))
        panic("uniform spec: %s", perr.c_str());
    SampleParams phase;
    if (!SampleParams::parse("phase:20000:4000:4000", &phase, &perr))
        panic("phase spec: %s", perr.c_str());

    std::vector<WorkloadRow> rows;
    for (const std::string &spec : phaseBenchSpecs()) {
        WorkloadRow row;
        row.name = canonicalWorkloadName(spec);

        const RunResult full = runWorkloadJob(cfg, spec, budget, {});
        row.full_instr = full.retired;
        row.full_wall_s = full.wall_s;
        row.full_cpi = full.retired > 0
            ? static_cast<double>(full.cycles)
                  / static_cast<double>(full.retired)
            : 0.0;

        row.phase = runMode(cfg, spec, phase, budget, row.full_cpi);
        row.uniform = runMode(cfg, spec, uniform, budget, row.full_cpi);
        // Uniform at the phase mode's measured-instruction budget:
        // what the same detailed spend buys without phase placement.
        SampleParams matched = uniform;
        matched.max_intervals = std::max<u64>(
            row.phase.detailed / (uniform.warm + uniform.measure), 1);
        row.matched = runMode(cfg, spec, matched, budget, row.full_cpi);

        if (!benchQuiet()) {
            std::fprintf(stderr,
                         "phase bench: %-40s full %.4f  uniform %.4f "
                         "(%llu win)  phase %.4f (k=%llu)\n",
                         row.name.c_str(), row.full_cpi,
                         row.uniform.cpi,
                         static_cast<unsigned long long>(
                             row.uniform.windows),
                         row.phase.cpi,
                         static_cast<unsigned long long>(
                             row.phase.phase_k));
        }
        rows.push_back(std::move(row));
    }

    // Aggregates: mean absolute CPI error and total detailed
    // instructions per mode.
    double err_u = 0.0, err_m = 0.0, err_p = 0.0;
    u64 det_u = 0, det_m = 0, det_p = 0;
    for (const WorkloadRow &row : rows) {
        err_u += row.uniform.err_pct;
        err_m += row.matched.err_pct;
        err_p += row.phase.err_pct;
        det_u += row.uniform.detailed;
        det_m += row.matched.detailed;
        det_p += row.phase.detailed;
    }
    const double n = static_cast<double>(rows.size());
    err_u /= n;
    err_m /= n;
    err_p /= n;
    const double reduction = det_p > 0
        ? static_cast<double>(det_u) / static_cast<double>(det_p) : 0.0;

    std::printf("phase vs uniform sampling, %llu instr budget, "
                "%zu workloads (spec %s)\n",
                static_cast<unsigned long long>(budget), rows.size(),
                phase.canonicalSpec().c_str());
    std::printf("%-40s %9s %9s %8s %9s %8s %9s %8s %6s\n", "workload",
                "full_cpi", "uni_cpi", "err%", "match_cpi", "err%",
                "phase_cpi", "err%", "k");
    for (const WorkloadRow &row : rows) {
        std::printf("%-40s %9.4f %9.4f %8.2f %9.4f %8.2f %9.4f %8.2f "
                    "%6llu\n",
                    row.name.c_str(), row.full_cpi, row.uniform.cpi,
                    row.uniform.err_pct, row.matched.cpi,
                    row.matched.err_pct, row.phase.cpi,
                    row.phase.err_pct,
                    static_cast<unsigned long long>(row.phase.phase_k));
    }
    std::printf("mean |CPI error|: uniform %.2f%%, uniform-matched "
                "%.2f%%, phase %.2f%%\n",
                err_u, err_m, err_p);
    std::printf("detailed instructions: uniform %llu, matched %llu, "
                "phase %llu (%.1fx fewer than uniform)\n",
                static_cast<unsigned long long>(det_u),
                static_cast<unsigned long long>(det_m),
                static_cast<unsigned long long>(det_p), reduction);

    JsonWriter w;
    w.beginObject();
    w.key("artifact").value(std::string_view("phase"));
    w.key("budget").value(budget);
    w.key("uniform_spec")
        .value(std::string_view(uniform.canonicalSpec()));
    w.key("phase_spec").value(std::string_view(phase.canonicalSpec()));
    w.key("config");
    cfg.jsonOn(w);
    w.key("workloads").beginArray();
    for (const WorkloadRow &row : rows) {
        w.beginObject();
        w.key("workload").value(std::string_view(row.name));
        w.key("full_cpi").value(row.full_cpi);
        w.key("full_instr").value(row.full_instr);
        w.key("full_wall_s").value(row.full_wall_s);
        w.key("uniform");
        modeJsonOn(w, row.uniform);
        w.key("uniform_matched");
        modeJsonOn(w, row.matched);
        w.key("phase");
        modeJsonOn(w, row.phase);
        w.endObject();
    }
    w.endArray();
    w.key("summary");
    w.beginObject();
    w.key("mean_err_pct_uniform").value(err_u);
    w.key("mean_err_pct_uniform_matched").value(err_m);
    w.key("mean_err_pct_phase").value(err_p);
    w.key("detailed_instr_uniform").value(det_u);
    w.key("detailed_instr_uniform_matched").value(det_m);
    w.key("detailed_instr_phase").value(det_p);
    w.key("detail_reduction_vs_uniform").value(reduction);
    w.endObject();
    w.endObject();

    const std::string path = "BENCH_phase.json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot write bench artifact %s", path.c_str());
        return 1;
    }
    const std::string doc = w.str() + "\n";
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    if (!benchQuiet())
        std::fprintf(stderr, "wrote %s\n", path.c_str());
    return 0;
}
