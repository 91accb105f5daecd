/**
 * @file
 * Baseline-superscalar engine tests: golden-checked execution of every
 * microkernel, sane IPC and branch-prediction behaviour, reaction to
 * machine parameters (window, execution units), and run-control
 * limits.
 */

#include <gtest/gtest.h>

#include "casm/builder.hh"
#include "dmt/engine.hh"
#include "reference_run.hh"
#include "workloads/workloads.hh"

namespace dmt
{
namespace
{

struct RunStats
{
    u64 cycles;
    u64 retired;
    double ipc;
    std::vector<u32> output;
    bool completed;
};

RunStats
runEngine(const Program &prog, const SimConfig &cfg)
{
    DmtEngine e(cfg, prog);
    e.run();
    EXPECT_TRUE(e.goldenOk()) << e.goldenError();
    RunStats r;
    r.cycles = e.stats().cycles.value();
    r.retired = e.stats().retired.value();
    r.ipc = e.stats().ipc();
    r.output = e.outputStream();
    r.completed = e.programCompleted();
    return r;
}

TEST(Baseline, AllMicrokernelsMatchGolden)
{
    const std::vector<Program> programs = {
        mkFibRecursive(13), mkSumLoop(400),    mkMatmul(8),
        mkSort(48),         mkLinkedList(64),  mkCallChain(256),
        mkBranchy(512),     mkAliasStress(128), mkDeepRecursion(64),
        mkLoopBreak(24, 17),
    };
    for (const Program &p : programs) {
        const RunStats r = runEngine(p, SimConfig::baseline());
        EXPECT_TRUE(r.completed);
        EXPECT_EQ(r.output, referenceOutput(p));
    }
}

TEST(Baseline, IpcWithinSuperscalarBounds)
{
    const RunStats r = runEngine(mkSumLoop(3000), SimConfig::baseline());
    EXPECT_GT(r.ipc, 0.5);
    EXPECT_LE(r.ipc, 4.0) << "cannot beat machine width";
}

TEST(Baseline, BranchyCodePaysForMispredicts)
{
    // A strictly alternating branch is hopeless for a history-less
    // 2-bit counter but trivial for the shipping gshare, whose global
    // history learns the pattern.
    AsmBuilder b;
    using namespace reg;
    const auto loop = b.newLabel();
    const auto skip = b.newLabel();
    b.li(s0, 0);
    b.li(s1, 4000);
    b.bind(loop);
    b.andi(t0, s0, 1);
    b.beqz(t0, skip);
    b.addi(s2, s2, 1);
    b.bind(skip);
    b.addi(s0, s0, 1);
    b.blt(s0, s1, loop);
    b.out(s2);
    b.halt();
    const Program p = b.finish();

    DmtEngine e(SimConfig::baseline(), p);
    e.run();
    EXPECT_TRUE(e.goldenOk()) << e.goldenError();
    EXPECT_GE(e.stats().cond_branches.value(), 8000u);
    EXPECT_LT(e.stats().condMispredictRate(), 0.05)
        << "gshare should learn the alternation";
}

TEST(Baseline, RealisticFusNeverFaster)
{
    SimConfig ideal = SimConfig::baseline();
    SimConfig real = SimConfig::baseline();
    real.unlimited_fus = false;
    const Program p = mkMatmul(10);
    EXPECT_LE(runEngine(p, ideal).cycles, runEngine(p, real).cycles);
}

TEST(Baseline, MaxRetiredStopsRun)
{
    SimConfig cfg = SimConfig::baseline();
    cfg.max_retired = 500;
    const Program p = mkSumLoop(100000);
    DmtEngine e(cfg, p);
    e.run();
    EXPECT_TRUE(e.done());
    EXPECT_FALSE(e.programCompleted());
    EXPECT_GE(e.stats().retired.value(), 500u);
    EXPECT_LT(e.stats().retired.value(), 600u);
    EXPECT_TRUE(e.goldenOk()) << e.goldenError();
}

TEST(Baseline, MaxCyclesStopsRun)
{
    SimConfig cfg = SimConfig::baseline();
    cfg.max_cycles = 200;
    const Program p = mkSumLoop(100000);
    DmtEngine e(cfg, p);
    e.run();
    EXPECT_TRUE(e.done());
    EXPECT_EQ(e.now(), 200u);
}

TEST(Baseline, RetiredRegistersAreArchitectural)
{
    // sum 0..9 = 45 lives in $t1 (reg 9) at halt.
    const Program p = mkSumLoop(10);
    DmtEngine e(SimConfig::baseline(), p);
    e.run();
    EXPECT_EQ(e.retiredReg(9), 45u);
    EXPECT_EQ(e.retiredReg(0), 0u);
}

TEST(Baseline, StatsAreConsistent)
{
    const Program p = mkCallChain(200);
    DmtEngine e(SimConfig::baseline(), p);
    e.run();
    const DmtStats &s = e.stats();
    EXPECT_GE(s.dispatched.value(), s.retired.value());
    EXPECT_GE(s.issued.value(), s.retired.value());
    EXPECT_GE(s.early_retired.value(), s.retired.value());
    EXPECT_GT(s.cond_branches.value(), 0u);
    EXPECT_EQ(s.threads_spawned.value(), 0u) << "spawning disabled";
    EXPECT_EQ(s.la_fetch_beyond_mispredict.value(), 0u)
        << "single-thread machines cannot look beyond a mispredict";
}

TEST(Baseline, SuiteWorkloadPrefixesMatchGolden)
{
    // Run a capped prefix of every suite workload on the baseline.
    for (const WorkloadInfo &w : workloadSuite()) {
        SimConfig cfg = SimConfig::baseline();
        cfg.max_retired = 15000;
        const Program p = w.build();
        DmtEngine e(cfg, p);
        e.run();
        EXPECT_TRUE(e.goldenOk()) << w.name << ": " << e.goldenError();
    }
}

} // namespace
} // namespace dmt
