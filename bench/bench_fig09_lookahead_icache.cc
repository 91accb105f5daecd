/**
 * @file
 * Figure 9: lookahead execution beyond ICache misses on a 6-thread
 * processor — retired instructions fetched (and executed) while an
 * earlier thread's fetch was blocked on an instruction-cache miss.
 * Zero on a conventional superscalar.  A small L1I makes the effect
 * visible at benchmark scale (the paper's SPEC runs miss in 16KB; our
 * kernels are smaller, so a machine with a 512B L1I and a 4KB L2 is
 * also reported).
 */

#include "bench_common.hh"

int
benchMain()
{
    using namespace dmt;
    Report rep(
        "Figure 9: % of retired instructions fetched/executed during "
        "an earlier thread's ICache miss (6 threads)",
        "nonzero on DMT; zero on the baseline.  16KB = paper geometry; "
        "512B column recreates SPEC-scale miss pressure");
    rep.columns({"workload", "16K-fetch%", "16K-exec%", "512B-fetch%",
                 "512B-exec%"});

    std::vector<BenchColumn> machines;
    for (const u32 l1i_bytes : {16u * 1024, 512u}) {
        SimConfig cfg = exp::fig89Dmt();
        cfg.mem.l1i_bytes = l1i_bytes;
        if (l1i_bytes < 1024) {
            // Pressure variant: misses go all the way to memory,
            // like SPEC-sized code in a 16KB L1I + 256KB L2.
            cfg.mem.l2_bytes = 4 * 1024;
        }
        machines.push_back(
            {l1i_bytes >= 1024 ? "16K" : "512B", cfg});
    }
    const SuiteSweep sweep = sweepGrid(machines);

    const auto &suite = workloadSuite();
    for (size_t wi = 0; wi < suite.size(); ++wi) {
        const std::vector<SweepCell> &cells = sweep.cells[wi];
        if (!cells[0].ok || !cells[1].ok) {
            warn("bench: skipping %s (a run failed)", suite[wi].name);
            continue;
        }
        std::vector<double> row;
        for (const SweepCell &cell : cells) {
            const RunResult &r = cell.result;
            const double retired =
                static_cast<double>(r.stats.retired.value());
            row.push_back(100.0
                          * r.stats.la_fetch_beyond_imiss.value()
                          / retired);
            row.push_back(100.0 * r.stats.la_exec_beyond_imiss.value()
                          / retired);
        }
        rep.row(suite[wi].name, row);
    }
    rep.averageRow();
    rep.print();
    return 0;
}
