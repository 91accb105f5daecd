/**
 * @file
 * The paper's figure suite in one run: Figures 4-13, the thread
 * statistics of Section 4.1 and the policy ablation.
 *
 *     bench_figures [figure ...]
 *
 * With no argument every figure runs; tags (fig04 ... fig13,
 * threadstats, ablation) select figures.  Each figure is a
 * declaration: its machines, and a function that turns one workload's
 * results into its table row.  main() collects the distinct machines
 * across the selected figures, runs the suite x those machines
 * through one sweep pool (DMT_JOBS workers), so a machine that several
 * figures share is simulated once per workload, then tabulates every
 * figure from the shared cells in a fixed order.  The seven speedup
 * tables are archived as BENCH_<tag>.json.  The DMT_* knobs are read
 * here, at the binary edge (cli/env.hh): the engine knobs for every
 * machine, DMT_SAMPLE and DMT_BENCH_INSTR for every cell.
 */

#include "bench_common.hh"

#include <algorithm>
#include <cstdio>
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

namespace
{

using namespace dmt;

/** One machine of a figure, named as its column. */
struct Machine
{
    std::string name;
    SimConfig cfg;
};

/** One workload's results, in its figure's machine order. */
using Results = std::vector<const RunResult *>;

/** One table: what it runs and how a workload becomes a row. */
struct Figure
{
    std::string tag;
    std::string title;
    std::string paper_note;
    std::vector<std::string> headers;
    std::vector<Machine> machines;
    std::vector<double> (*row)(const Results &);
};

/** Percentage speedup of every machine over machines[0]. */
std::vector<double>
speedupRow(const Results &r)
{
    std::vector<double> row;
    for (size_t i = 1; i < r.size(); ++i)
        row.push_back(speedupPct(*r[0], *r[i]));
    return row;
}

/** A speedup table: @p cols over the baseline superscalar. */
Figure
speedupFigure(std::string tag, std::string title, std::string paper_note,
              std::vector<Machine> cols)
{
    Figure f{std::move(tag), std::move(title), std::move(paper_note),
             {"workload"}, {{"base", exp::baseline()}}, speedupRow};
    for (Machine &c : cols) {
        f.headers.push_back(c.name);
        f.machines.push_back(std::move(c));
    }
    return f;
}

/** One column per value of a swept parameter, named by @p fmt. */
std::vector<Machine>
columns(const char *fmt, std::initializer_list<int> values,
        SimConfig (*make)(int))
{
    std::vector<Machine> cols;
    for (int v : values)
        cols.push_back({strprintf(fmt, v), make(v)});
    return cols;
}

/** The 4-thread, 2-port machine with one policy changed. */
template <typename Change>
Machine
dmt42(const char *name, Change change)
{
    Machine m{name, SimConfig::dmt(4, 2)};
    change(m.cfg);
    return m;
}

/** Every figure, in the order the suite prints them. */
std::vector<Figure>
figures()
{
    std::vector<Figure> figs;

    // Figure 4: DMT with 2 fetch ports (two rename units), unlimited
    // execution units, 128-entry window and 500-instruction trace
    // buffers, at 2..8 thread contexts; percentage speedup over the
    // 4-wide, 128-window baseline superscalar.
    figs.push_back(speedupFigure(
        "fig04",
        "Figure 4: speedup vs number of threads "
        "(2 fetch ports, unlimited execution units)",
        "significant gains up to 6 threads, little above; >35% average "
        "at 8 threads; anomalies possible from sub-optimal thread "
        "selection (paper saw them on li/m88ksim)",
        columns("%dT", {2, 4, 6, 8}, exp::fig4Dmt)));

    // Figure 5: fetch ports on a 4-thread DMT processor (equivalent
    // rename units), unlimited execution units.  The paper's headline:
    // even with ONE fetch port, i.e. no more fetch bandwidth than the
    // baseline itself, DMT comes out ahead.
    figs.push_back(speedupFigure(
        "fig05",
        "Figure 5: speedup vs fetch ports (4 threads, unlimited FUs)",
        "DMT outperforms the base superscalar even at equal total "
        "fetch bandwidth (1 port); paper saw ~15% with 1 port",
        columns("%dport", {1, 2, 4}, exp::fig5Dmt)));

    // Figure 6: a 2-fetch-port DMT processor with realistic execution
    // resources (4 ALUs with 2 shared by address generation, 1 mul/div,
    // 2 DCache ports; latencies 1/3/20, 3-cycle loads) compared to the
    // ideal machine with unlimited units.  Speedups are computed over
    // the baseline with the matching execution-resource model, so the
    // columns isolate what the FU limits cost DMT itself.
    figs.push_back(
        {"fig06",
         "Figure 6: realistic vs ideal execution units (2 fetch ports)",
         "paper: very little drop in speedup from the ideal machine",
         {"workload", "4T-real", "4T-ideal", "6T-real", "6T-ideal"},
         {{"base-real", exp::baseline(true)},
          {"base-ideal", exp::baseline(false)},
          {"4T-real", exp::fig6Dmt(4, true)},
          {"4T-ideal", exp::fig6Dmt(4, false)},
          {"6T-real", exp::fig6Dmt(6, true)},
          {"6T-ideal", exp::fig6Dmt(6, false)}},
         [](const Results &r) -> std::vector<double> {
             return {speedupPct(*r[0], *r[2]), speedupPct(*r[1], *r[3]),
                     speedupPct(*r[0], *r[4]), speedupPct(*r[1], *r[5])};
         }});

    // Figure 7: the trace buffer size on a 6-thread processor.  The
    // paper finds that ~200 instructions per thread nearly saturates
    // performance (measured thread sizes were 50-130).
    figs.push_back(speedupFigure(
        "fig07",
        "Figure 7: speedup vs trace buffer size (6 threads, 2 ports)",
        "'200 instructions per thread' almost achieves maximum "
        "performance; average thread size 50-130",
        columns("tb%d", {25, 50, 100, 200, 500}, exp::fig7Dmt)));

    // Figure 8: lookahead execution beyond mispredicted branches on a
    // 6-thread processor: the percentage of finally-retired
    // instructions that were fetched (and executed) while an earlier,
    // eventually mispredicted branch was still unresolved.  Identically
    // zero on a conventional superscalar.
    figs.push_back(
        {"fig08",
         "Figure 8: % of retired instructions fetched/executed beyond "
         "an unresolved mispredicted branch (6 threads)",
         "nonzero everywhere on DMT, zero by construction on the "
         "baseline superscalar",
         {"workload", "fetch%", "exec%", "base-fetch%"},
         {{"6T", exp::fig89Dmt()}, {"base", exp::baseline()}},
         [](const Results &r) -> std::vector<double> {
             const DmtStats &s = r[0]->stats;
             const DmtStats &base = r[1]->stats;
             const double retired = static_cast<double>(s.retired.value());
             return {100.0 * s.la_fetch_beyond_mispredict.value() / retired,
                     100.0 * s.la_exec_beyond_mispredict.value() / retired,
                     100.0 * base.la_fetch_beyond_mispredict.value()
                         / static_cast<double>(base.retired.value())};
         }});

    // Figure 9: lookahead execution beyond ICache misses on a 6-thread
    // processor: retired instructions fetched (and executed) while an
    // earlier thread's fetch was blocked on an instruction-cache miss.
    // Zero on a conventional superscalar.  A small L1I makes the effect
    // visible at benchmark scale (the paper's SPEC runs miss in 16KB;
    // our kernels are smaller, so a machine with a 512B L1I and a 4KB
    // L2 is also reported).
    SimConfig pressure = exp::fig89Dmt();
    pressure.mem.l1i_bytes = 512;
    // Misses go all the way to memory, like SPEC-sized code in a 16KB
    // L1I + 256KB L2.
    pressure.mem.l2_bytes = 4 * 1024;
    figs.push_back(
        {"fig09",
         "Figure 9: % of retired instructions fetched/executed during "
         "an earlier thread's ICache miss (6 threads)",
         "nonzero on DMT; zero on the baseline.  16KB = paper geometry; "
         "512B column recreates SPEC-scale miss pressure",
         {"workload", "16K-fetch%", "16K-exec%", "512B-fetch%",
          "512B-exec%"},
         {{"16K", exp::fig89Dmt()}, {"512B", pressure}},
         [](const Results &r) {
             std::vector<double> row;
             for (const RunResult *run : r) {
                 const DmtStats &s = run->stats;
                 const double retired =
                     static_cast<double>(s.retired.value());
                 row.push_back(100.0 * s.la_fetch_beyond_imiss.value()
                               / retired);
                 row.push_back(100.0 * s.la_exec_beyond_imiss.value()
                               / retired);
             }
             return row;
         }});

    // Figure 10: the dataflow (last-modifier) predictor's contribution
    // on a 4-thread processor: speedup with value prediction only
    // versus value plus dataflow prediction.
    figs.push_back(speedupFigure(
        "fig10",
        "Figure 10: value prediction only vs value + dataflow "
        "prediction (4 threads, 2 ports)",
        "dataflow prediction promptly supplies procedure-modified "
        "inputs; it adds speedup on the call-heavy benchmarks",
        {{"value-only", exp::fig10Dmt(false)},
         {"value+df", exp::fig10Dmt(true)}}));

    // Figure 11: data prediction statistics, a classification of live
    // thread input register values on the 4-thread machine: (1)
    // available at the spawn point and correct, (2) written after spawn
    // time with the same value, (3) corrected in time by the dataflow
    // predictor, and the combined hit rate (the paper reports >90% on
    // most benchmarks).
    figs.push_back(
        {"fig11",
         "Figure 11: live thread-input value prediction breakdown "
         "(4 threads)",
         "combined hit rates above 90% for most benchmarks",
         {"workload", "at-spawn%", "same-later%", "dataflow%", "hit%"},
         {{"4T", exp::fig11Dmt()}},
         [](const Results &r) -> std::vector<double> {
             const DmtStats &s = r[0]->stats;
             const double used = std::max<u64>(s.inputs_used.value(), 1);
             return {100.0 * s.inputs_valid_at_spawn.value() / used,
                     100.0 * s.inputs_same_later.value() / used,
                     100.0 * s.inputs_df_correct.value() / used,
                     100.0 * s.inputs_hit.value() / used};
         }});

    // Figure 12: the trace buffer instruction-queue read block size
    // during recovery (2, 4 or 6 entries per cycle, plus an ideal queue
    // with unbounded read bandwidth).  The paper concludes the required
    // read bandwidth is modest.
    std::vector<Machine> blocks =
        columns("block%d", {2, 4, 6}, exp::fig12Dmt);
    blocks.push_back({"ideal", exp::fig12Dmt(0)});
    figs.push_back(speedupFigure(
        "fig12", "Figure 12: speedup vs recovery read block size (4 threads)",
        "block size 4 is close to the ideal queue — recovery read "
        "bandwidth requirements are not excessive",
        std::move(blocks)));

    // Figure 13: the trace buffer (recovery startup) latency.  With a
    // pipelined walk the latency is paid once per recovery sequence, so
    // performance is tolerant of a slow second-level buffer.
    figs.push_back(speedupFigure(
        "fig13", "Figure 13: speedup vs trace buffer latency (4 threads)",
        "good tolerance: the latency is incurred once at the start of "
        "each recovery sequence",
        columns("lat%d", {2, 4, 8, 16}, exp::fig13Dmt)));

    // Thread statistics quoted in the paper's text (Section 4.1):
    // average thread sizes (paper: 50-130 retired instructions),
    // speculative overlap, context occupancy, spawn/join accounting,
    // and the fraction of speculative-thread instructions re-dispatched
    // by recovery (paper: ~30%).
    figs.push_back(
        {"threadstats",
         "Thread-level statistics on the 6-thread, 2-port machine",
         "paper: thread sizes 50-130; ~30% of speculative instructions "
         "redispatched from the trace buffer",
         {"workload", "thr-size", "overlap%", "contexts", "join%",
          "redispatch%"},
         {{"6T", exp::fig89Dmt()}},
         [](const Results &r) -> std::vector<double> {
             const DmtStats &s = r[0]->stats;
             const double spawned =
                 std::max<u64>(s.threads_spawned.value(), 1);
             return {s.thread_size.mean(), 100.0 * s.thread_overlap.mean(),
                     s.active_threads.mean(),
                     100.0 * s.threads_joined.value() / spawned,
                     100.0 * s.recovery_dispatches.value()
                         / std::max<u64>(s.retired.value(), 1)};
         }});

    // Ablations beyond the paper's figures: the design choices
    // DESIGN.md calls out, each toggled on the 4-thread machine: early
    // divergence repair vs the paper's retirement-time flush,
    // dataflow-sync vs speculate-and-recover, the memory-dependence
    // throttle vs the paper's speculate-every-load, recovery stall
    // policies, and spawn-source restrictions (calls only / loops
    // only).
    figs.push_back(speedupFigure(
        "ablation", "Ablations: engine policy choices (4 threads, 2 ports)",
        "columns are speedup over the baseline; 'default' is the "
        "shipping configuration",
        {dmt42("default", [](SimConfig &) {}),
         dmt42("late-div",
               [](SimConfig &c) { c.early_divergence_repair = false; }),
         dmt42("df-sync", [](SimConfig &c) { c.dataflow_sync = true; }),
         dmt42("no-memdep", [](SimConfig &c) { c.memdep_sync = false; }),
         dmt42("stall-all",
               [](SimConfig &c) {
                   c.recovery_fetch_stall = 2;
                   c.recovery_dispatch_stall = 2;
               }),
         dmt42("calls-only", [](SimConfig &c) { c.spawn_on_loop = false; }),
         dmt42("loops-only",
               [](SimConfig &c) { c.spawn_on_call = false; })}));
    return figs;
}

/**
 * Archive a speedup table as BENCH_<tag>.json: the rendered table,
 * each machine's config document (@p docs, in machine order) with the
 * runs of every tabulated row, and the sweep that produced them.
 */
void
writeArtifact(const Figure &f, const Report &rep,
              const std::vector<SimConfig> &docs,
              const std::vector<Results> &runs, const SweepStats &sweep)
{
    const auto runsOn = [&](JsonWriter &w, size_t mi) {
        w.beginArray();
        for (const RunResult *r : runs[mi])
            r->jsonOn(w);
        w.endArray();
    };
    JsonWriter w;
    w.beginObject();
    w.key("artifact").value(std::string_view(f.tag));
    w.key("table");
    rep.jsonOn(w);
    w.key("base_config");
    docs[0].jsonOn(w);
    w.key("base_runs");
    runsOn(w, 0);
    w.key("columns").beginArray();
    for (size_t mi = 1; mi < f.machines.size(); ++mi) {
        w.beginObject();
        w.key("name").value(std::string_view(f.machines[mi].name));
        w.key("config");
        docs[mi].jsonOn(w);
        w.key("runs");
        runsOn(w, mi);
        w.endObject();
    }
    w.endArray();
    w.key("sweep");
    sweep.jsonOn(w);
    w.endObject();

    const std::string path = "BENCH_" + f.tag + ".json";
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file) {
        warn("cannot write bench artifact %s", path.c_str());
        return;
    }
    const std::string doc = w.str() + "\n";
    std::fwrite(doc.data(), 1, doc.size(), file);
    std::fclose(file);
    if (!benchQuiet())
        std::fprintf(stderr, "wrote %s\n", path.c_str());
}

} // namespace

int
benchMain(int argc, char **argv)
{
    const std::vector<Figure> all = figures();
    std::vector<const Figure *> selected;
    for (const Figure &f : all) {
        if (argc == 1 || std::find(argv + 1, argv + argc, f.tag)
                             != argv + argc)
            selected.push_back(&f);
    }
    for (int i = 1; i < argc; ++i) {
        if (std::none_of(all.begin(), all.end(), [&](const Figure &f) {
                return f.tag == argv[i];
            })) {
            std::string tags;
            for (const Figure &f : all)
                tags += " " + f.tag;
            std::fprintf(stderr, "usage: bench_figures [figure ...]; "
                         "figures:%s\n", tags.c_str());
            return 1;
        }
    }

    // The distinct machines, each named by the first column that
    // introduced it; uses[fi][mi] is where figure fi's machine mi sits.
    std::vector<Machine> distinct;
    std::vector<std::vector<size_t>> uses;
    for (const Figure *f : selected) {
        std::vector<size_t> &use = uses.emplace_back();
        for (const Machine &m : f->machines) {
            const SimConfig cfg = simConfigFromEnv(m.cfg);
            auto it = std::find_if(distinct.begin(), distinct.end(),
                                   [&](const Machine &d) {
                                       return d.cfg == cfg;
                                   });
            if (it == distinct.end())
                it = distinct.insert(it, {m.name, cfg});
            use.push_back(static_cast<size_t>(it - distinct.begin()));
        }
    }

    const SampleParams sample = sampleParamsFromEnv();
    const u64 budget = benchInstrFromEnv();
    const std::vector<WorkloadInfo> &suite = workloadSuite();
    SweepRunner pool(sweepJobs());
    for (const WorkloadInfo &w : suite) {
        for (const Machine &m : distinct)
            pool.add({std::string(w.name) + "/" + m.name, w.name, m.cfg,
                      budget, sample});
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
                         job.label.c_str(), cell.ok ? "" : "  FAILED");
            std::fflush(stderr);
        };
    }
    const std::vector<SweepCell> &cells = pool.run(progress);

    // A config document names the machine and the budget its cells
    // ran, so it replays through dmt_client as the runs it sits beside.
    // The fault options are outside the document, so a run under
    // injection writes no artifact that would name a clean machine.
    const bool faulty = std::any_of(
        distinct.begin(), distinct.end(),
        [](const Machine &m) { return m.cfg.fault.enabled; });
    const u64 doc_budget = effectiveBudget(sample.enabled(), budget, 0);
    for (size_t fi = 0; fi < selected.size(); ++fi) {
        const Figure &f = *selected[fi];
        Report rep(f.title, f.paper_note);
        rep.columns(f.headers);
        std::vector<Results> runs(f.machines.size());
        for (size_t wi = 0; wi < suite.size(); ++wi) {
            Results r;
            for (size_t mi = 0; mi < f.machines.size(); ++mi) {
                const SweepCell &cell =
                    cells[wi * distinct.size() + uses[fi][mi]];
                if (!cell.ok) {
                    warn("bench: skipping %s (%s failed: %s)",
                         suite[wi].name, f.machines[mi].name.c_str(),
                         cell.error.c_str());
                    break;
                }
                r.push_back(&cell.result);
            }
            if (r.size() < f.machines.size())
                continue;
            rep.row(suite[wi].name, f.row(r));
            for (size_t mi = 0; mi < r.size(); ++mi)
                runs[mi].push_back(r[mi]);
        }
        rep.averageRow();
        rep.print();

        if (f.row != speedupRow) // only speedup tables are archived
            continue;
        if (faulty) {
            warn("bench: fault injection is on; not writing "
                 "BENCH_%s.json", f.tag.c_str());
            continue;
        }
        std::vector<SimConfig> docs;
        for (size_t mi : uses[fi]) {
            docs.push_back(distinct[mi].cfg);
            docs.back().max_retired = doc_budget;
        }
        writeArtifact(f, rep, docs, runs, pool.stats());
    }

    if (!benchQuiet()) {
        const SweepStats &stats = pool.stats();
        std::fprintf(stderr,
                     "sweep: %llu jobs, %.1fs wall, %.1fs busy "
                     "(%.2fx), %.2f Minstr/s\n",
                     static_cast<unsigned long long>(stats.jobs_total),
                     stats.wall_seconds, stats.busy_seconds,
                     stats.parallelism(), stats.throughput() / 1e6);
        const CheckpointCacheCounters ckpt = checkpointCacheCounters();
        if (ckpt.mem_hits + ckpt.builds > 0) {
            std::fprintf(stderr,
                         "checkpoint cache: %llu mem hit(s), %llu built\n",
                         static_cast<unsigned long long>(ckpt.mem_hits),
                         static_cast<unsigned long long>(ckpt.builds));
        }
    }
    return 0;
}
