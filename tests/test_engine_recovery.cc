/**
 * @file
 * Directed data-speculation scenarios: programs constructed so that a
 * specific DMT mechanism *must* fire — cross-thread memory violations,
 * value-mispredicted thread inputs, recovery-time branch divergence —
 * plus white-box resource-conservation checks through the
 * EngineInspector friend hook.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "casm/builder.hh"
#include "dmt/engine.hh"
#include "reference_run.hh"
#include "workloads/workloads.hh"

namespace dmt
{

/** White-box access for tests (friend of DmtEngine). */
class EngineInspector
{
  public:
    /** Tear everything down and verify no resource leaked. */
    static void
    verifyConservation(DmtEngine &e)
    {
        while (e.tree.size() > 0)
            e.squashThread(e.ctx(e.tree.last()));
        EXPECT_EQ(e.pool.live(), 0) << "DynInst leak";
        EXPECT_EQ(e.window_used, 0) << "window accounting leak";
        // Drain the store queue: retired stores awaiting DCache ports.
        while (!e.drain_q.empty())
            e.doStoreDrain();
        EXPECT_EQ(e.prf.numFree(), e.prf.count())
            << "physical register leak";
    }

    static int windowUsed(DmtEngine &e) { return e.window_used; }
};

namespace
{

using namespace reg;

/**
 * A program whose after-call thread *must* load a value the procedure
 * stores just before returning: the spawned thread's speculative load
 * beats the store, guaranteeing an ordering violation + recovery.
 */
Program
violationProgram(int iters)
{
    AsmBuilder b;
    const auto cell = b.newLabel("cell");
    b.bindData(cell);
    b.dataWords({0});
    const auto bump = b.newLabel("bump");
    const auto loop = b.newLabel();

    b.li(s0, 0);                 // i
    b.li(s1, static_cast<u32>(iters));
    b.li(s2, 0);                 // checksum
    b.la(s3, cell);
    b.bind(loop);
    b.jal(bump);                 // spawn point: continuation loads cell
    b.lw(t0, 0, s3);             // races bump's store
    b.add(s2, s2, t0);
    b.addi(s0, s0, 1);
    b.blt(s0, s1, loop);
    b.out(s2);
    b.halt();

    // bump: cell += 3, with a few cycles of address dallying so the
    // spawned thread's load reliably issues first.
    b.bind(bump);
    b.lw(t1, 0, s3);
    b.mul(t2, t1, t1);
    b.div_(t2, t2, t1);          // slow dependency chain (divide)
    b.addi(t1, t1, 3);
    b.sw(t1, 0, s3);
    b.ret();
    return b.finish();
}

TEST(Recovery, MemoryViolationsAreDetectedAndRepaired)
{
    const Program p = violationProgram(60);
    SimConfig cfg = SimConfig::dmt(4, 2);
    cfg.memdep_sync = false; // force the violation path, no throttle
    DmtEngine e(cfg, p);
    e.run();
    ASSERT_TRUE(e.programCompleted());
    ASSERT_TRUE(e.goldenOk()) << e.goldenError();
    EXPECT_EQ(e.outputStream(), referenceOutput(p));
    EXPECT_GT(e.stats().lsq_violations.value(), 0u)
        << "the scenario must actually trigger violations";
    EXPECT_GT(e.stats().recoveries.value(), 0u);
    EXPECT_GT(e.stats().recovery_dispatches.value(), 0u);
}

TEST(Recovery, MemdepThrottleReducesViolations)
{
    const Program p = violationProgram(120);
    SimConfig off = SimConfig::dmt(4, 2);
    off.memdep_sync = false;
    SimConfig on = SimConfig::dmt(4, 2);
    on.memdep_sync = true;

    DmtEngine e_off(off, p);
    e_off.run();
    DmtEngine e_on(on, p);
    e_on.run();
    ASSERT_TRUE(e_off.goldenOk() && e_on.goldenOk());
    EXPECT_LT(e_on.stats().lsq_violations.value(),
              e_off.stats().lsq_violations.value())
        << "the trained throttle must remove repeat offenders";
}

/**
 * A program whose after-call thread consumes $v0 immediately — the
 * classic value-mispredicted input.  With dataflow prediction the
 * last-modifier history must learn it.
 */
Program
returnValueProgram(int iters)
{
    AsmBuilder b;
    const auto f = b.newLabel("f");
    const auto loop = b.newLabel();
    b.li(s0, 0);
    b.li(s1, static_cast<u32>(iters));
    b.li(s2, 0);
    b.bind(loop);
    b.move(a0, s0);
    b.jal(f);
    b.xor_(s2, s2, v0);   // immediate use of the return value
    b.addi(s0, s0, 1);
    b.blt(s0, s1, loop);
    b.out(s2);
    b.halt();
    b.bind(f);
    // Body long enough that the caller's frontend has not already
    // fetched past the continuation when the call dispatches.
    b.mul(t0, a0, a0);
    b.sll(t1, t0, 3);
    b.xor_(t1, t1, a0);
    b.srl(t2, t1, 5);
    b.add(t0, t0, t2);
    b.andi(t3, t0, 0xFF);
    b.add(t0, t0, t3);
    b.sll(t4, t0, 1);
    b.sub(t0, t4, t0);
    b.xor_(t0, t0, t1);
    b.srl(t5, t0, 7);
    b.add(t0, t0, t5);
    b.addi(v0, t0, 13);
    b.ret();
    return b.finish();
}

TEST(Recovery, MispredictedInputsAreCorrected)
{
    const Program p = returnValueProgram(80);
    SimConfig cfg = SimConfig::dmt(4, 2);
    DmtEngine e(cfg, p);
    e.run();
    ASSERT_TRUE(e.goldenOk()) << e.goldenError();
    EXPECT_EQ(e.outputStream(), referenceOutput(p));
    EXPECT_GT(e.stats().inputs_used.value(), 0u);
    EXPECT_LT(e.stats().inputs_hit.value(),
              e.stats().inputs_used.value())
        << "the scenario must contain real input mispredictions";
}

TEST(Recovery, DataflowPredictorLearnsLastModifier)
{
    const Program p = returnValueProgram(150);
    SimConfig cfg = SimConfig::dmt(2, 2);
    DmtEngine e(cfg, p);
    e.run();
    ASSERT_TRUE(e.goldenOk()) << e.goldenError();
    EXPECT_GT(e.stats().df_matches.value(), 0u)
        << "repeated v0 mispredictions must arm last-modifier watches";
    EXPECT_GT(e.stats().df_deliveries.value(), 0u);
}

/**
 * The spawned thread's first branch depends on the call's return
 * value: a wrong input flips the branch, exercising divergence
 * handling in both configurations.
 */
Program
divergenceProgram(int iters)
{
    AsmBuilder b;
    const auto f = b.newLabel("f");
    const auto loop = b.newLabel();
    const auto odd = b.newLabel();
    const auto cont = b.newLabel();
    b.li(s0, 0);
    b.li(s1, static_cast<u32>(iters));
    b.li(s2, 0);
    b.bind(loop);
    b.move(a0, s0);
    b.jal(f);
    b.andi(t0, v0, 1);
    b.bnez(t0, odd);        // direction depends on the call result
    b.addi(s2, s2, 5);
    b.b(cont);
    b.bind(odd);
    b.sll(s2, s2, 1);
    b.xor_(s2, s2, v0);
    b.bind(cont);
    b.addi(s0, s0, 1);
    b.blt(s0, s1, loop);
    b.out(s2);
    b.halt();
    b.bind(f);
    // Result parity is data dependent (xorshift-ish); padded so the
    // after-call thread really spawns.
    b.sll(t0, a0, 3);
    b.xor_(t0, t0, a0);
    b.srl(t1, t0, 2);
    b.mul(t2, t0, t1);
    b.add(t0, t0, t2);
    b.andi(t3, t0, 0x3F);
    b.sll(t4, t3, 2);
    b.add(t0, t0, t4);
    b.srl(t5, t0, 9);
    b.xor_(t0, t0, t5);
    b.xor_(v0, t0, t1);
    b.ret();
    return b.finish();
}

TEST(Recovery, DivergenceEarlyRepair)
{
    const Program p = divergenceProgram(100);
    SimConfig cfg = SimConfig::dmt(4, 2);
    cfg.early_divergence_repair = true;
    DmtEngine e(cfg, p);
    e.run();
    ASSERT_TRUE(e.goldenOk()) << e.goldenError();
    EXPECT_EQ(e.outputStream(), referenceOutput(p));
}

TEST(Recovery, DivergenceRetirementFlush)
{
    const Program p = divergenceProgram(100);
    SimConfig cfg = SimConfig::dmt(4, 2);
    cfg.early_divergence_repair = false; // the paper's Section 3.3
    DmtEngine e(cfg, p);
    e.run();
    ASSERT_TRUE(e.goldenOk()) << e.goldenError();
    EXPECT_EQ(e.outputStream(), referenceOutput(p));
}

// ---- conservation under stress -----------------------------------------

class Conservation : public ::testing::TestWithParam<const char *>
{
};

TEST_P(Conservation, NoLeaksAfterPartialRun)
{
    // Stop mid-flight (maximum in-flight state) and tear down.
    SimConfig cfg = SimConfig::dmt(6, 2);
    cfg.tb_size = 64; // stress buffer-full paths
    cfg.max_retired = 7000;
    DmtEngine e(cfg, buildWorkload(GetParam()));
    e.run();
    ASSERT_TRUE(e.goldenOk()) << e.goldenError();
    EngineInspector::verifyConservation(e);
}

INSTANTIATE_TEST_SUITE_P(Suite, Conservation,
                         ::testing::Values("go", "m88ksim", "gcc",
                                           "compress", "li", "ijpeg",
                                           "perl", "vortex"));

TEST(Conservation, WindowNeverExceedsConfiguredSize)
{
    SimConfig cfg = SimConfig::dmt(4, 2);
    cfg.max_retired = 5000;
    DmtEngine e(cfg, buildWorkload("li"));
    int peak = 0;
    while (!e.done()) {
        e.step();
        peak = std::max(peak, EngineInspector::windowUsed(e));
    }
    ASSERT_TRUE(e.goldenOk()) << e.goldenError();
    EXPECT_LE(peak, SimConfig::kWindowSize);
}

TEST(Recovery, TinyLsqStillCorrect)
{
    SimConfig cfg = SimConfig::dmt(4, 2);
    cfg.tb_size = 16; // 4-entry load and store queues
    const Program p = mkAliasStress(150);
    DmtEngine e(cfg, p);
    e.run();
    ASSERT_TRUE(e.programCompleted());
    ASSERT_TRUE(e.goldenOk()) << e.goldenError();
    EXPECT_EQ(e.outputStream(), referenceOutput(p));
}

TEST(Recovery, PaperLsqSizingRule)
{
    // lq = sq = tb/4 by default (paper Section 3.5).
    SimConfig cfg = SimConfig::dmt(4, 2);
    cfg.tb_size = 400;
    EXPECT_EQ(cfg.lqSize(), 100);
    EXPECT_EQ(cfg.sqSize(), 100);
}

} // namespace
} // namespace dmt
