/**
 * @file
 * dmtbench: one benchmark run of one workload, in this process.
 *
 *   dmtbench --workload detail_suite|phase_whole|serve_grid
 *            --seed N --seconds S --trace 0|1 [--scratch DIR]
 *
 * Prints the workload's figures, then as its last line one JSON object
 * {"correct","attempted","failed","metrics"}: the end-to-end metrics
 * with --trace 0, the per-layer metrics with --trace 1 (which also
 * writes every span to DIR/spans-<workload>.json).  Exits 0 only when
 * every output checked out; refuses to run at all while a DMT_*
 * variable is set.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "common/log.hh"
#include "harness.hh"
#include "workloads.hh"

using namespace dmtbench;

int
main(int argc, char **argv, char **envp)
{
    Options o;
    std::string err;
    if (!parseOptions(argc, argv, &o, &err)) {
        std::fprintf(stderr, "dmtbench: %s\n", err.c_str());
        return 2;
    }
    const std::string dmt_var = firstDmtVariable(envp);
    if (!dmt_var.empty()) {
        std::fprintf(stderr,
                     "dmtbench: refusing to run with %s set: the "
                     "simulator reads DMT_* variables on its own, which "
                     "would change what is measured\n",
                     dmt_var.c_str());
        return 2;
    }
    std::filesystem::create_directories(o.scratch);

    Spans sp;
    Report rep;
    try {
        if (o.workload == "detail_suite") {
            rep = runDetailSuite(o, sp);
        } else if (o.workload == "phase_whole") {
            rep = runPhaseWhole(o, sp);
        } else if (o.workload == "serve_grid") {
            rep = runServeGrid(o, sp);
        } else {
            std::fprintf(stderr, "dmtbench: unknown workload %s\n",
                         o.workload.c_str());
            return 2;
        }
    } catch (const dmt::SimError &e) {
        std::fprintf(stderr, "dmtbench: %s\n", e.what());
        return 1;
    }
    std::printf("dmtbench %s seed %llu, %.0f s measured, %s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? "traced" : "untraced");
    for (const std::string &n : rep.notes)
        std::printf("  %s\n", n.c_str());
    const auto &defs = o.trace ? perLayerMetrics() : endToEndMetrics();
    if (o.trace) {
        // Self times must add up to their operation's span; allow the
        // measured tracing overhead (and clock rounding) as slack.
        const double gap = sp.worstSelfGap();
        const double slack =
            std::max(1e-6, std::fabs(rep.metrics["bench.trace_overhead_s"]));
        if (gap > slack)
            rep.tally.fail("span self times do not sum to their operation");
        const std::string path =
            o.scratch + "/spans-" + o.workload + ".json";
        if (!sp.write(path))
            rep.tally.fail("cannot write " + path);
        std::printf("  %zu spans written to %s\n", sp.spans().size(),
                    path.c_str());
    }
    for (const MetricDef &d : defs) {
        auto it = rep.metrics.find(d.name);
        std::printf("  %-26s %16.6f %-9s %s\n", d.name,
                    it == rep.metrics.end() ? 0.0 : it->second, d.unit,
                    d.moves);
    }
    bool correct = false;
    const std::string line = resultLine(rep, defs, o.trace, &correct);
    std::printf("%s\n", line.c_str());
    return correct ? 0 : 1;
}
