/**
 * @file
 * DMT engine tests: golden-checked execution across thread counts,
 * fetch ports and feature ablations; thread-level statistics sanity;
 * resource conservation; and the paper-mode configuration switches
 * (retirement-time divergence handling, value/dataflow prediction off,
 * trace buffer and recovery parameters).
 */

#include <gtest/gtest.h>

#include "dmt/engine.hh"
#include "reference_run.hh"
#include "sim/functional.hh"
#include "workloads/workloads.hh"

namespace dmt
{
namespace
{

void
expectCorrect(const Program &prog, const SimConfig &cfg)
{
    DmtEngine e(cfg, prog);
    e.run();
    ASSERT_TRUE(e.programCompleted());
    ASSERT_TRUE(e.goldenOk()) << e.goldenError();
    EXPECT_EQ(e.outputStream(), referenceOutput(prog));
}

// ---- correctness across the configuration space -----------------------

struct DmtCfgCase
{
    const char *name;
    int threads;
    int ports;
    int tb_size;
    int tb_latency;
    int tb_read_block;
    bool realistic_fus;
};

// Test listings show each parameter as gtest prints it.  Without this
// that is the struct's raw bytes, whose name pointer moves with ASLR,
// so every listing would name the cases differently.
void
PrintTo(const DmtCfgCase &c, std::ostream *os)
{
    *os << c.name;
}

class DmtConfigSweep : public ::testing::TestWithParam<DmtCfgCase>
{
};

TEST_P(DmtConfigSweep, MicrokernelsMatchGolden)
{
    const DmtCfgCase &c = GetParam();
    SimConfig cfg = SimConfig::dmt(c.threads, c.ports);
    cfg.tb_size = c.tb_size;
    cfg.tb_latency = c.tb_latency;
    cfg.tb_read_block = c.tb_read_block;
    cfg.unlimited_fus = !c.realistic_fus;

    expectCorrect(mkFibRecursive(13), cfg);
    expectCorrect(mkCallChain(300), cfg);
    expectCorrect(mkAliasStress(150), cfg);
    expectCorrect(mkLoopBreak(20, 15), cfg);
    expectCorrect(mkDeepRecursion(60), cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Machines, DmtConfigSweep,
    ::testing::Values(
        DmtCfgCase{"t2_p1", 2, 1, 500, 4, 4, false},
        DmtCfgCase{"t4_p2", 4, 2, 500, 4, 4, false},
        DmtCfgCase{"t6_p2", 6, 2, 500, 4, 4, false},
        DmtCfgCase{"t8_p4", 8, 4, 500, 4, 4, false},
        DmtCfgCase{"tiny_tb", 4, 2, 32, 4, 4, false},
        DmtCfgCase{"slow_recovery", 4, 2, 200, 16, 2, false},
        DmtCfgCase{"ideal_recovery", 4, 2, 500, 0, 0, false},
        DmtCfgCase{"real_fus", 6, 2, 500, 4, 4, true}),
    [](const ::testing::TestParamInfo<DmtCfgCase> &param_info) {
        return param_info.param.name;
    });

// ---- feature ablations stay correct ------------------------------------

TEST(DmtAblation, NoDataflowPrediction)
{
    SimConfig cfg = SimConfig::dmt(4, 2);
    cfg.dataflow_prediction = false;
    expectCorrect(mkFibRecursive(12), cfg);
    expectCorrect(mkAliasStress(100), cfg);
}

TEST(DmtAblation, DataflowSync)
{
    SimConfig cfg = SimConfig::dmt(4, 2);
    cfg.dataflow_sync = true;
    expectCorrect(mkFibRecursive(12), cfg);
    expectCorrect(mkCallChain(200), cfg);
}

TEST(DmtAblation, PaperModeLateDivergence)
{
    SimConfig cfg = SimConfig::dmt(4, 2);
    cfg.early_divergence_repair = false; // the paper's Section 3.3 path
    expectCorrect(mkFibRecursive(12), cfg);
    expectCorrect(mkBranchy(400), cfg);
    expectCorrect(mkAliasStress(150), cfg);
}

TEST(DmtAblation, RecoveryStallPolicies)
{
    for (int f = 0; f <= 2; ++f) {
        for (int d = 0; d <= 2; ++d) {
            SimConfig cfg = SimConfig::dmt(4, 2);
            cfg.recovery_fetch_stall = f;
            cfg.recovery_dispatch_stall = d;
            expectCorrect(mkCallChain(150), cfg);
        }
    }
}

TEST(DmtAblation, LoopThreadsOnly)
{
    SimConfig cfg = SimConfig::dmt(4, 2);
    cfg.spawn_on_call = false;
    expectCorrect(mkSumLoop(500), cfg);
    expectCorrect(mkLoopBreak(30, 10), cfg);
}

TEST(DmtAblation, CallThreadsOnly)
{
    SimConfig cfg = SimConfig::dmt(4, 2);
    cfg.spawn_on_loop = false;
    expectCorrect(mkFibRecursive(12), cfg);
}

// ---- suite workloads, golden-checked prefixes --------------------------

class DmtSuite : public ::testing::TestWithParam<int>
{
};

TEST_P(DmtSuite, GoldenCheckedPrefix)
{
    const WorkloadInfo &w =
        workloadSuite()[static_cast<size_t>(GetParam())];
    for (int threads : {2, 4, 8}) {
        SimConfig cfg = SimConfig::dmt(threads, 2);
        cfg.max_retired = 12000;
        DmtEngine e(cfg, w.build());
        e.run();
        EXPECT_TRUE(e.goldenOk())
            << w.name << " T=" << threads << ": " << e.goldenError();
    }
}

INSTANTIATE_TEST_SUITE_P(
    All, DmtSuite,
    ::testing::Range(0, static_cast<int>(workloadSuite().size())),
    [](const ::testing::TestParamInfo<int> &param_info) {
        return workloadSuite()[static_cast<size_t>(param_info.param)]
            .name;
    });

// ---- thread machinery observability --------------------------------------

TEST(DmtThreads, SpawnsAndJoinsOnRecursion)
{
    SimConfig cfg = SimConfig::dmt(4, 2);
    const Program p = mkFibRecursive(16);
    DmtEngine e(cfg, p);
    e.run();
    ASSERT_TRUE(e.goldenOk()) << e.goldenError();
    EXPECT_GT(e.stats().threads_spawned.value(), 0u);
    EXPECT_GT(e.stats().threads_joined.value(), 0u);
    EXPECT_GT(e.stats().inputs_used.value(), 0u);
}

TEST(DmtThreads, RetirementOrderIsSequential)
{
    // The retire hook must observe exactly the golden dynamic stream.
    const Program p = mkFibRecursive(12);
    SimConfig cfg = SimConfig::dmt(6, 2);
    DmtEngine e(cfg, p);

    ArchState st;
    MainMemory mem;
    st.reset(p);
    mem.loadProgram(p);
    u64 mismatches = 0;
    e.retire_hook = [&](const TBEntry &entry, ThreadId) {
        const StepResult s = functionalStep(st, mem, p);
        if (s.pc != entry.pc)
            ++mismatches;
    };
    e.run();
    ASSERT_TRUE(e.goldenOk()) << e.goldenError();
    EXPECT_EQ(mismatches, 0u);
}

TEST(DmtThreads, SingleThreadDmtEqualsBaseline)
{
    // max_threads == 1 with spawning on is still structurally the
    // baseline (spawning requires a second context).
    SimConfig cfg = SimConfig::dmt(1, 1);
    const Program p = mkMatmul(8);
    DmtEngine dmt1(cfg, p);
    dmt1.run();
    DmtEngine base(SimConfig::baseline(), p);
    base.run();
    EXPECT_TRUE(dmt1.goldenOk());
    EXPECT_EQ(dmt1.stats().threads_spawned.value(), 0u);
    EXPECT_EQ(dmt1.stats().cycles.value(),
              base.stats().cycles.value());
}

TEST(DmtThreads, ActiveThreadsBounded)
{
    SimConfig cfg = SimConfig::dmt(4, 2);
    const Program p = mkFibRecursive(14);
    DmtEngine e(cfg, p);
    e.run();
    EXPECT_LE(e.stats().active_threads.max(), 4.0);
    EXPECT_GE(e.stats().active_threads.mean(), 1.0);
}

TEST(DmtThreads, LookaheadCountersMoveOnDmt)
{
    SimConfig cfg = SimConfig::dmt(6, 2);
    cfg.max_retired = 20000;
    DmtEngine e(cfg, buildWorkload("go"));
    e.run();
    ASSERT_TRUE(e.goldenOk()) << e.goldenError();
    EXPECT_GT(e.stats().la_fetch_beyond_mispredict.value(), 0u)
        << "DMT must fetch beyond unresolved mispredicted branches";
}

TEST(DmtThreads, InputClassificationAddsUp)
{
    SimConfig cfg = SimConfig::dmt(4, 2);
    cfg.max_retired = 20000;
    DmtEngine e(cfg, buildWorkload("li"));
    e.run();
    const DmtStats &s = e.stats();
    EXPECT_LE(s.inputs_hit.value(), s.inputs_used.value());
    EXPECT_EQ(s.inputs_valid_at_spawn.value()
                  + s.inputs_same_later.value()
                  + s.inputs_df_correct.value(),
              s.inputs_hit.value())
        << "hit categories must partition the hits";
}

} // namespace
} // namespace dmt
