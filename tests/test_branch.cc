/**
 * @file
 * Branch prediction tests: gshare learning and history mixing, BTB
 * tagging, RAS behaviour including the paper's spawn-time copy, and
 * the predictor facade's per-instruction behaviour.
 */

#include <gtest/gtest.h>

#include "branch/predictor.hh"
#include "isa/regs.hh"

namespace dmt
{
namespace
{

TEST(Gshare, LearnsBias)
{
    Gshare g(10, 6);
    const Addr pc = 0x400100;
    for (int i = 0; i < 4; ++i)
        g.update(pc, 0, true);
    EXPECT_TRUE(g.predict(pc, 0));
    for (int i = 0; i < 8; ++i)
        g.update(pc, 0, false);
    EXPECT_FALSE(g.predict(pc, 0));
}

TEST(Gshare, HistoryDisambiguates)
{
    Gshare g(12, 8);
    const Addr pc = 0x400200;
    // Alternating pattern becomes predictable with history.
    for (int i = 0; i < 64; ++i) {
        const u32 h = (i & 1) ? 0x55 : 0xAA;
        g.update(pc, h, (i & 1) != 0);
    }
    EXPECT_TRUE(g.predict(pc, 0x55));
    EXPECT_FALSE(g.predict(pc, 0xAA));
}

TEST(Gshare, PushHistoryMasks)
{
    Gshare g(12, 4);
    u32 h = 0;
    for (int i = 0; i < 10; ++i)
        h = g.pushHistory(h, true);
    EXPECT_EQ(h, 0xFu) << "history limited to 4 bits";
    h = g.pushHistory(h, false);
    EXPECT_EQ(h, 0xEu);
}

TEST(Btb, TagsPreventAliasing)
{
    Btb b(4); // 16 entries
    b.update(0x400000, 0x400100);
    Addr t = 0;
    EXPECT_TRUE(b.lookup(0x400000, &t));
    EXPECT_EQ(t, 0x400100u);
    // Same index, different tag (16 entries * 4 bytes = 64-byte wrap).
    EXPECT_FALSE(b.lookup(0x400000 + 64, &t));
    b.update(0x400000 + 64, 0x400200);
    EXPECT_TRUE(b.lookup(0x400000 + 64, &t));
    EXPECT_EQ(t, 0x400200u);
    EXPECT_FALSE(b.lookup(0x400000, &t)) << "displaced";
}

TEST(Ras, PushPopOrder)
{
    Ras r;
    r.push(0x100);
    r.push(0x200);
    EXPECT_EQ(r.size(), 2);
    EXPECT_EQ(r.peek(), 0x200u);
    EXPECT_EQ(r.pop(), 0x200u);
    EXPECT_EQ(r.pop(), 0x100u);
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.pop(), 0u) << "empty pops return 0";
}

TEST(Ras, WrapsAtDepth)
{
    Ras r;
    for (int i = 0; i < Ras::kDepth + 5; ++i)
        r.push(0x1000 + static_cast<Addr>(i) * 4);
    EXPECT_EQ(r.size(), Ras::kDepth);
    EXPECT_EQ(r.pop(), 0x1000u + (Ras::kDepth + 4) * 4);
}

TEST(Ras, CopySemantics)
{
    Ras a;
    a.push(0x10);
    Ras b = a; // the paper copies the RAS at spawn
    b.push(0x20);
    EXPECT_EQ(a.size(), 1);
    EXPECT_EQ(b.size(), 2);
    EXPECT_EQ(a.peek(), 0x10u);
}

TEST(PredictorFacade, DirectBranchUsesGshare)
{
    BranchPredictorUnit bpu;
    ThreadBranchState ts;
    Instruction br{Opcode::BNE, 0, 8, 9, 64};
    const Addr pc = 0x400040;

    // Train taken.
    for (int i = 0; i < 4; ++i)
        bpu.updateCond(pc, 0, true);
    ThreadBranchState fresh;
    const BranchPrediction p = bpu.predict(br, pc, fresh);
    EXPECT_TRUE(p.taken);
    EXPECT_EQ(p.target, br.branchTarget(pc));
    EXPECT_EQ(fresh.history & 1, 1u) << "speculative history updated";
}

TEST(PredictorFacade, CallPushesReturnPops)
{
    BranchPredictorUnit bpu;
    ThreadBranchState ts;
    Instruction call{Opcode::JAL, reg::ra, 0, 0,
                     static_cast<i32>(0x400100)};
    const BranchPrediction pc_pred = bpu.predict(call, 0x400010, ts);
    EXPECT_TRUE(pc_pred.taken);
    EXPECT_EQ(pc_pred.target, 0x400100u);
    EXPECT_EQ(ts.ras.peek(), 0x400014u);

    Instruction ret{Opcode::JR, 0, reg::ra, 0, 0};
    const BranchPrediction rp = bpu.predict(ret, 0x400200, ts);
    EXPECT_TRUE(rp.used_ras);
    EXPECT_EQ(rp.target, 0x400014u);
    EXPECT_TRUE(ts.ras.empty());
}

TEST(PredictorFacade, IndirectUsesBtb)
{
    BranchPredictorUnit bpu;
    ThreadBranchState ts;
    Instruction jalr{Opcode::JALR, reg::ra, 8, 0, 0};
    const Addr pc = 0x400300;

    const BranchPrediction miss = bpu.predict(jalr, pc, ts);
    EXPECT_TRUE(miss.target_unknown);

    bpu.updateIndirect(pc, 0x400500);
    ThreadBranchState ts2;
    const BranchPrediction hit = bpu.predict(jalr, pc, ts2);
    EXPECT_FALSE(hit.target_unknown);
    EXPECT_EQ(hit.target, 0x400500u);
}

TEST(PredictorFacade, SpawnStateClearsHistoryCopiesRas)
{
    ThreadBranchState parent;
    parent.history = 0xAB;
    parent.ras.push(0x1234);

    ThreadBranchState child;
    child.clearForSpawn(parent);
    EXPECT_EQ(child.history, 0u) << "paper: history cleared at spawn";
    EXPECT_EQ(child.ras.peek(), 0x1234u) << "paper: RAS copied at spawn";
}

TEST(PredictorFacade, NonControlIsFallThrough)
{
    BranchPredictorUnit bpu;
    ThreadBranchState ts;
    Instruction add{Opcode::ADD, 1, 2, 3, 0};
    const BranchPrediction p = bpu.predict(add, 0x400000, ts);
    EXPECT_FALSE(p.taken);
    EXPECT_EQ(p.target, 0x400004u);
}

} // namespace
} // namespace dmt
