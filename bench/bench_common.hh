/**
 * @file
 * Shared plumbing for the figure benches: run the whole suite against
 * a set of machine configurations through the parallel sweep pool
 * (DMT_JOBS workers), tabulate speedups over the baseline superscalar,
 * and optionally archive the full run as a machine-readable
 * BENCH_<tag>.json artifact.  The DMT_* knobs are read here, at the
 * binary edge (cli/env.hh), and handed to the sweep explicitly.
 */

#ifndef DMT_BENCH_BENCH_COMMON_HH
#define DMT_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cli/env.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/strutil.hh"
#include "exp/experiments.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "exp/sampled.hh"
#include "exp/sweep.hh"
#include "workloads/workloads.hh"

namespace dmt
{

/** One machine column in a speedup table. */
struct BenchColumn
{
    std::string name;
    SimConfig cfg;
};

/** The whole suite x a machine list, as cells[workload][machine]. */
struct SuiteSweep
{
    std::vector<std::vector<SweepCell>> cells;
    SweepStats stats;
};

/**
 * Fan every (workload, machine) pair out over the sweep pool and
 * collect the cells in deterministic grid order — workloads in
 * @p workloads order, machines in @p machines order — regardless of
 * completion order.  Workload names may be suite names or
 * gen:<family>:<seed>[:knob=value...] generator specs (family sweeps:
 * pass a list of specs varying one knob or the seed).  Failed cells
 * (SimError) come back with ok == false; callers decide row-skip
 * policy.  Every machine gets the engine knobs (simConfigFromEnv),
 * every cell the DMT_SAMPLE spec and the DMT_BENCH_INSTR budget.
 * Progress goes to stderr in completion order unless DMT_BENCH_QUIET
 * is set.
 */
inline SuiteSweep
sweepGrid(const std::vector<std::string> &workloads,
          const std::vector<BenchColumn> &machines)
{
    const SampleParams sample = sampleParamsFromEnv();
    const u64 budget = benchInstrFromEnv();
    std::vector<SimConfig> cfgs;
    for (const BenchColumn &m : machines)
        cfgs.push_back(simConfigFromEnv(m.cfg));
    SweepRunner pool(sweepJobs());
    for (const std::string &w : workloads) {
        for (size_t mi = 0; mi < machines.size(); ++mi)
            pool.add({w + "/" + machines[mi].name, w, cfgs[mi], budget,
                      sample});
    }

    SweepRunner::Progress progress;
    if (!benchQuiet()) {
        if (sample.enabled()) {
            std::fprintf(stderr,
                         "sampling: DMT_SAMPLE=%s — cycles/retired "
                         "cover measured windows only\n",
                         sample.canonicalSpec().c_str());
        }
        std::fprintf(stderr, "sweep: %zu jobs on %d worker(s)\n",
                     pool.size(), pool.poolWidth());
        progress = [](const SweepJob &job, const SweepCell &cell,
                      size_t done, size_t total) {
            std::fprintf(stderr, "[%zu/%zu] %s%s\n", done, total,
                         job.label.c_str(),
                         cell.ok ? "" : "  FAILED");
            std::fflush(stderr);
        };
    }
    const std::vector<SweepCell> &flat = pool.run(progress);

    SuiteSweep out;
    const size_t ncols = machines.size();
    out.cells.resize(workloads.size());
    for (size_t wi = 0; wi < out.cells.size(); ++wi) {
        out.cells[wi].assign(flat.begin()
                                 + static_cast<long>(wi * ncols),
                             flat.begin()
                                 + static_cast<long>((wi + 1) * ncols));
    }
    out.stats = pool.stats();
    return out;
}

/** The whole benchmark suite x a machine list (suite-order rows). */
inline SuiteSweep
sweepGrid(const std::vector<BenchColumn> &machines)
{
    std::vector<std::string> names;
    for (const WorkloadInfo &w : workloadSuite())
        names.emplace_back(w.name);
    return sweepGrid(names, machines);
}

/**
 * Write the complete outcome of a speedupTable() run — the rendered
 * table, every machine configuration, the full per-workload stat
 * blocks, and the sweep's timing/throughput aggregate — to
 * BENCH_<tag>.json for downstream plotting/diffing.
 */
inline void
writeBenchArtifact(const std::string &tag, const Report &rep,
                   const SimConfig &base_cfg,
                   const std::vector<BenchColumn> &columns,
                   const std::vector<RunResult> &base_runs,
                   const std::map<std::string,
                                  std::vector<RunResult>> &results,
                   const SweepStats *sweep = nullptr)
{
    JsonWriter w;
    w.beginObject();
    w.key("artifact").value(std::string_view(tag));
    w.key("table");
    rep.jsonOn(w);
    w.key("base_config");
    base_cfg.jsonOn(w);
    w.key("base_runs").beginArray();
    for (const RunResult &r : base_runs)
        r.jsonOn(w);
    w.endArray();
    w.key("columns").beginArray();
    for (const auto &c : columns) {
        w.beginObject();
        w.key("name").value(std::string_view(c.name));
        w.key("config");
        c.cfg.jsonOn(w);
        w.key("runs").beginArray();
        auto it = results.find(c.name);
        if (it != results.end()) {
            for (const RunResult &r : it->second)
                r.jsonOn(w);
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    if (sweep) {
        w.key("sweep");
        sweep->jsonOn(w);
    }
    w.endObject();

    const std::string path = "BENCH_" + tag + ".json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot write bench artifact %s", path.c_str());
        return;
    }
    const std::string doc = w.str() + "\n";
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    if (!benchQuiet())
        std::fprintf(stderr, "wrote %s\n", path.c_str());
}

/**
 * Run every suite workload on the baseline and on each column's
 * machine — all through the sweep pool — and fill @p rep with
 * percentage speedups and an average row.  The table is byte-identical
 * for any pool width: rows keep suite order, and a workload whose
 * baseline or any column run failed (SimError) is skipped with a
 * warning, exactly like the serial path did.  When @p artifact is
 * non-empty the full results are archived to BENCH_<artifact>.json.
 * Returns the per-column, per-workload results for follow-up printing.
 */
inline std::map<std::string, std::vector<RunResult>>
speedupTable(Report &rep, const std::vector<BenchColumn> &columns,
             const std::string &artifact = "",
             const SimConfig &base_cfg = exp::baseline())
{
    std::vector<std::string> headers{"workload"};
    for (const auto &c : columns)
        headers.push_back(c.name);
    rep.columns(headers);

    std::vector<BenchColumn> machines;
    machines.push_back({"base", base_cfg});
    machines.insert(machines.end(), columns.begin(), columns.end());
    const SuiteSweep sweep = sweepGrid(machines);

    std::map<std::string, std::vector<RunResult>> results;
    std::vector<RunResult> base_runs;
    const auto &suite = workloadSuite();
    for (size_t wi = 0; wi < suite.size(); ++wi) {
        const char *wname = suite[wi].name;
        const std::vector<SweepCell> &row_cells = sweep.cells[wi];
        if (!row_cells[0].ok) {
            warn("bench: skipping %s (baseline failed: %s)", wname,
                 row_cells[0].error.c_str());
            continue;
        }
        bool row_ok = true;
        for (size_t ci = 0; ci < columns.size(); ++ci) {
            if (!row_cells[ci + 1].ok) {
                warn("bench: skipping %s (%s failed: %s)", wname,
                     columns[ci].name.c_str(),
                     row_cells[ci + 1].error.c_str());
                row_ok = false;
                break;
            }
        }
        if (!row_ok)
            continue;
        const RunResult &base = row_cells[0].result;
        std::vector<double> row;
        for (size_t ci = 0; ci < columns.size(); ++ci) {
            const RunResult &r = row_cells[ci + 1].result;
            row.push_back(speedupPct(base, r));
            results[columns[ci].name].push_back(r);
        }
        base_runs.push_back(base);
        rep.row(wname, row);
    }
    rep.averageRow();

    if (!benchQuiet()) {
        std::fprintf(stderr,
                     "sweep: %llu jobs, %.1fs wall, %.1fs busy "
                     "(%.2fx), %.2f Minstr/s\n",
                     static_cast<unsigned long long>(
                         sweep.stats.jobs_total),
                     sweep.stats.wall_seconds, sweep.stats.busy_seconds,
                     sweep.stats.parallelism(),
                     sweep.stats.throughput() / 1e6);
        const CheckpointCacheCounters ckpt = checkpointCacheCounters();
        if (ckpt.mem_hits + ckpt.builds > 0) {
            std::fprintf(stderr,
                         "checkpoint cache: %llu mem hit(s), %llu built\n",
                         static_cast<unsigned long long>(ckpt.mem_hits),
                         static_cast<unsigned long long>(ckpt.builds));
        }
    }
    if (!artifact.empty()) {
        writeBenchArtifact(artifact, rep, base_cfg, columns, base_runs,
                           results, &sweep.stats);
    }
    return results;
}

} // namespace dmt

/** Implemented by each figure-bench translation unit. */
int benchMain();

/**
 * Shared entry point for the figure benches.  speedupTable() already
 * skips individual workloads whose runs throw; this catches a SimError
 * that escapes the sweep itself (e.g. a panic while building configs)
 * and turns it into a diagnostic plus exit status 1 instead of
 * std::terminate().
 */
int
main()
{
    try {
        return benchMain();
    } catch (const dmt::SimError &err) {
        std::fprintf(stderr, "bench: fatal: %s\n", err.what());
        return 1;
    }
}

#endif // DMT_BENCH_BENCH_COMMON_HH
