/**
 * @file
 * detail_suite: the inner loop of every figure bench.  The eight
 * kernels run in full detail with lock-step golden checking on the
 * baseline superscalar and on 6-thread DMT, one simulation at a time,
 * round-robin over the sixteen cells so drift hits every cell alike.
 * The detailed engine and its checker do nearly all the work;
 * fast-forward, phase analysis and the daemon do none.
 */

#include <string>
#include <vector>

#include "common/log.hh"
#include "dmt/engine.hh"
#include "exp/experiments.hh"
#include "exp/runner.hh"
#include "exp/sampled.hh"
#include "layers.hh"
#include "workloads.hh"
#include "workloads/workloads.hh"

namespace dmtbench
{

using namespace dmt;

namespace
{

/** Retired instructions per cell: the figure benches' default run. */
constexpr u64 kCellBudget = 60000;

struct Cell
{
    std::string workload;
    bool dmt6 = false;
    SimConfig cfg;
    std::string label;
    std::string ref_json; ///< canonical RunResult of the reference run
    Window ref;
};

} // namespace

Report
runDetailSuite(const Options &o, Spans &sp)
{
    Report rep;
    std::vector<Cell> cells;
    for (const WorkloadInfo &w : workloadSuite()) {
        for (bool dmt6 : {false, true}) {
            Cell c;
            c.workload = w.name;
            c.dmt6 = dmt6;
            c.cfg = dmt6 ? SimConfig::dmt(6, 2) : exp::baseline();
            c.label = c.workload + (dmt6 ? "/dmt6" : "/base");
            cells.push_back(c);
        }
    }

    // Set-up is what a cell constructs before its first simulated
    // cycle: the program image and the engine.
    const auto setUp = [&] {
        for (const Cell &c : cells) {
            const Program prog = buildWorkload(c.workload);
            SimConfig cfg = c.cfg;
            cfg.max_retired = kCellBudget;
            DmtEngine engine(cfg, prog);
        }
    };

    // Untimed reference pass: the canonical bytes every repetition of
    // a cell must reproduce.  It also warms the process up.
    for (Cell &c : cells) {
        rep.tally.attempt();
        try {
            const RunResult r =
                runWorkloadJob(c.cfg, c.workload, kCellBudget, SampleParams{});
            c.ref_json = r.jsonString();
            c.ref = Window{r.cycles, r.retired};
        } catch (const SimError &e) {
            rep.tally.fail(c.label + ": " + e.what());
        }
    }

    OpTimes untraced, traced;
    HostSpeed host;
    std::vector<double> setup, rss;
    LayerCounts counts;
    bool counted = false;
    const double t_end = nowS() + o.seconds;
    for (int pass = 0; pass < 3 || nowS() < t_end; ++pass) {
        // A traced run alternates traced and untraced passes, so its
        // own untraced passes give the tracing overhead.
        const bool tracing = o.trace && pass % 2 == 1;
        sp.setRecording(tracing);
        sp.setPass(pass);
        setup.push_back(timed(setUp));
        resetPeakRss();
        for (const Cell &c : cells) {
            host.sample();
            rep.tally.attempt();
            try {
                if (!tracing) {
                    const double t0 = nowS();
                    const RunResult r = runWorkloadJob(
                        c.cfg, c.workload, kCellBudget, SampleParams{});
                    untraced.add(c.label, nowS() - t0);
                    rep.tally.expectSame(c.label, c.ref_json,
                                         r.jsonString());
                    continue;
                }
                LayerCounts pass_counts;
                sp.beginOp();
                const double t0 = nowS();
                Window w;
                {
                    Spans::Scope root(sp, "op.detail_cell");
                    w = detailedByLayer(sp, c.cfg, c.workload, kCellBudget,
                                        &pass_counts);
                }
                traced.add(c.label, nowS() - t0);
                if (!(w == c.ref))
                    rep.tally.fail(c.label
                                   + ": split run differs from runWorkloadJob");
                if (!counted)
                    counts += pass_counts;
            } catch (const SimError &e) {
                rep.tally.fail(c.label + ": " + e.what());
            }
        }
        if (!tracing)
            rss.push_back(peakRssMb());
        counted = counted || tracing;
    }
    sp.setRecording(false);
    reportPeakRss(rss, &rep);

    double base_s = 0, dmt6_s = 0, base_instr = 0, dmt6_instr = 0;
    for (const Cell &c : cells) {
        const double t = untraced.median(c.label);
        const double n = static_cast<double>(c.ref.retired);
        (c.dmt6 ? dmt6_s : base_s) += t;
        (c.dmt6 ? dmt6_instr : base_instr) += n;
    }
    const double wall = untraced.sumOfMedians();
    // Host throughput, like every figure the simulator itself reports.
    const double dmt6_mips = dmt6_instr / 1e6 / dmt6_s;
    const double base_mips = base_instr / 1e6 / base_s;
    rep.note("cells %zu x %zu reps (fewest), %llu retired instr per cell",
             cells.size(), untraced.minReps(),
             static_cast<unsigned long long>(kCellBudget));
    reportHostTimes(host, median(setup), wall, base_instr + dmt6_instr, &rep);
    rep.note("dmt6_minstr_per_s %.4f Minstr/s", dmt6_mips);
    rep.note("base_minstr_per_s %.4f Minstr/s", base_mips);

    if (o.trace) {
        rep.set("dmt.dmt6_minstr_per_s", dmt6_mips);
        rep.set("dmt.base_minstr_per_s", base_mips);
        // The checker's per-instruction work, timed on its own: one
        // functionalStep per instruction the cells retire.
        sp.setRecording(true);
        sp.setPass(-1);
        for (const WorkloadInfo &w : workloadSuite()) {
            sp.beginOp();
            Spans::Scope root(sp, "probe.oracle");
            oracleByLayer(sp, buildWorkload(w.name), kCellBudget, &counts);
        }
        sp.setRecording(false);
        reportLayers(sp, counts, &rep);
        // Only here do the engines' counts cover their whole run (a
        // sampled window detaches its stats after warm-up).
        rep.set("dmt.ns_per_dispatch",
                ratio(rep.metrics["dmt.run_s"] * 1e9,
                      static_cast<double>(counts.dispatch)));
        reportTraceOverhead(wall, traced.sumOfMedians(), &rep);
    }
    return rep;
}

} // namespace dmtbench
