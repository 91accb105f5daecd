/**
 * @file
 * Ablation bench (beyond the paper's figures): the design choices
 * DESIGN.md calls out, each toggled on the 4-thread machine —
 * early divergence repair vs the paper's retirement-time flush,
 * dataflow-sync vs speculate-and-recover, the memory-dependence
 * throttle vs the paper's speculate-every-load, recovery stall
 * policies, and spawn-source restrictions (calls only / loops only).
 */

#include "bench_common.hh"

int
benchMain()
{
    using namespace dmt;
    Report rep(
        "Ablations: engine policy choices (4 threads, 2 ports)",
        "columns are speedup over the baseline; 'default' is the "
        "shipping configuration");

    std::vector<BenchColumn> cols;
    cols.push_back({"default", SimConfig::dmt(4, 2)});
    {
        SimConfig c = SimConfig::dmt(4, 2);
        c.early_divergence_repair = false;
        cols.push_back({"late-div", c});
    }
    {
        SimConfig c = SimConfig::dmt(4, 2);
        c.dataflow_sync = true;
        cols.push_back({"df-sync", c});
    }
    {
        SimConfig c = SimConfig::dmt(4, 2);
        c.memdep_sync = false;
        cols.push_back({"no-memdep", c});
    }
    {
        SimConfig c = SimConfig::dmt(4, 2);
        c.recovery_fetch_stall = 2;
        c.recovery_dispatch_stall = 2;
        cols.push_back({"stall-all", c});
    }
    {
        SimConfig c = SimConfig::dmt(4, 2);
        c.spawn_on_loop = false;
        cols.push_back({"calls-only", c});
    }
    {
        SimConfig c = SimConfig::dmt(4, 2);
        c.spawn_on_call = false;
        cols.push_back({"loops-only", c});
    }

    speedupTable(rep, cols, "ablation");
    rep.print();
    return 0;
}
