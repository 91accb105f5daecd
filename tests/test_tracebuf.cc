/**
 * @file
 * Trace buffer tests: append-time renaming (source refs to last
 * writers / thread inputs), live-out tracking, truncation with writer
 * snapshots, in-order retirement popping, and clean reuse of the ring
 * slots that retirement and truncation free.
 */

#include <gtest/gtest.h>

#include "dmt/trace_buffer.hh"

namespace dmt
{
namespace
{

/** Append one instruction; returns its id. */
u64
append(TraceBuffer &tb, Opcode op, LogReg rd, LogReg rs, LogReg rt)
{
    return tb.append(Instruction{op, rd, rs, rt, 0}, 0x400000).id;
}

/** Set every field the engine writes after append to a non-default. */
void
dirty(TBEntry &e)
{
    e.uid = 3;
    e.src[0] = e.src[1] = SrcRef{SrcRef::TbEntry, 31, 99};
    e.has_dest = true;
    e.dest = 31;
    e.cur_phys = 17;
    e.result = 0xdeadbeef;
    e.result_valid = true;
    e.completed = true;
    e.lq_id = 4;
    e.sq_id = 5;
    e.predicted_taken = true;
    e.predicted_target = 0x400100;
    e.history_used = 0x55;
    e.trace_next_pc = 0x400100;
    e.resolved_once = true;
    e.divergence = true;
    e.divergence_target = 0x400200;
    e.child_tid = 2;
    e.child_gen = 9;
    e.branch_episode = 11;
    e.imiss_episode = 12;
    e.fetch_cycle = 100;
    e.first_exec_cycle = 104;
    e.executed_ever = true;
    e.dispatch_count = 2;
}

TEST(TraceBuffer, AppendAssignsIds)
{
    TraceBuffer tb;
    tb.reset(8);
    EXPECT_TRUE(tb.empty());
    const u64 a = append(tb, Opcode::ADDI, 8, 0, 0);
    const u64 b = append(tb, Opcode::ADDI, 9, 0, 0);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(tb.size(), 2);
    EXPECT_TRUE(tb.contains(a));
    EXPECT_FALSE(tb.contains(2));
}

TEST(TraceBuffer, SourceRenaming)
{
    TraceBuffer tb;
    tb.reset(8);
    // t0 <- thread input t1
    const u64 i0 = append(tb, Opcode::ADD, 8, 9, 0);
    const TBEntry &e0 = tb.at(i0);
    EXPECT_EQ(e0.src[0].kind, SrcRef::ThreadInput);
    EXPECT_EQ(e0.src[0].reg, 9);
    EXPECT_EQ(e0.src[1].kind, SrcRef::None) << "r0 source is constant";

    // t2 <- t0 (local) + t1 (thread input)
    const u64 i1 = append(tb, Opcode::ADD, 10, 8, 9);
    const TBEntry &e1 = tb.at(i1);
    EXPECT_EQ(e1.src[0].kind, SrcRef::TbEntry);
    EXPECT_EQ(e1.src[0].tb_id, i0);
    EXPECT_EQ(e1.src[1].kind, SrcRef::ThreadInput);
}

TEST(TraceBuffer, SelfReferenceUsesPreviousWriter)
{
    TraceBuffer tb;
    tb.reset(8);
    const u64 i0 = append(tb, Opcode::ADDI, 8, 8, 0);
    const TBEntry &e0 = tb.at(i0);
    EXPECT_EQ(e0.src[0].kind, SrcRef::ThreadInput)
        << "first definition reads the thread input";
    const u64 i1 = append(tb, Opcode::ADDI, 8, 8, 0);
    EXPECT_EQ(tb.at(i1).src[0].kind, SrcRef::TbEntry);
    EXPECT_EQ(tb.at(i1).src[0].tb_id, i0);
}

TEST(TraceBuffer, LiveOutTracking)
{
    TraceBuffer tb;
    tb.reset(8);
    const u64 i0 = append(tb, Opcode::ADDI, 8, 0, 0);
    EXPECT_TRUE(tb.isLiveOut(i0));
    const u64 i1 = append(tb, Opcode::ADDI, 8, 0, 0);
    EXPECT_FALSE(tb.isLiveOut(i0));
    EXPECT_TRUE(tb.isLiveOut(i1));
}

TEST(TraceBuffer, TruncateRestoresWithSnapshot)
{
    TraceBuffer tb;
    tb.reset(8);
    append(tb, Opcode::ADDI, 8, 0, 0);
    const auto snap = tb.writerSnapshot();
    const u64 branch = append(tb, Opcode::BEQ, 0, 8, 9);
    append(tb, Opcode::ADDI, 9, 0, 0); // wrong path
    append(tb, Opcode::ADDI, 8, 0, 0); // wrong path redefinition

    tb.truncateFrom(branch + 1);
    tb.restoreWriters(snap);
    EXPECT_EQ(tb.size(), 2);
    u64 w = 0;
    EXPECT_TRUE(tb.lastWriter(8, &w));
    EXPECT_EQ(w, 0u) << "wrong-path redefinition rolled back";
    EXPECT_FALSE(tb.lastWriter(9, &w));

    // New appends continue with fresh ids.
    const u64 nxt = append(tb, Opcode::ADDI, 10, 8, 0);
    EXPECT_EQ(nxt, branch + 1);
    EXPECT_EQ(tb.at(nxt).src[0].tb_id, 0u);
}

TEST(TraceBuffer, PopFrontRetirement)
{
    TraceBuffer tb;
    tb.reset(4);
    const u64 i0 = append(tb, Opcode::ADDI, 8, 0, 0);
    append(tb, Opcode::ADD, 9, 8, 0);
    tb.popFront();
    EXPECT_FALSE(tb.contains(i0));
    EXPECT_EQ(tb.firstId(), 1u);
    // The retired writer is still named by the table; consumers use
    // the architectural value path.
    u64 w = 0;
    EXPECT_TRUE(tb.lastWriter(8, &w));
    EXPECT_EQ(w, i0);
    const u64 i2 = append(tb, Opcode::ADD, 10, 8, 0);
    EXPECT_EQ(tb.at(i2).src[0].kind, SrcRef::TbEntry);
    EXPECT_EQ(tb.at(i2).src[0].tb_id, i0) << "retired producer id kept";
}

TEST(TraceBuffer, CapacityAndFull)
{
    TraceBuffer tb;
    tb.reset(3);
    append(tb, Opcode::NOP, 0, 0, 0);
    append(tb, Opcode::NOP, 0, 0, 0);
    EXPECT_FALSE(tb.full());
    append(tb, Opcode::NOP, 0, 0, 0);
    EXPECT_TRUE(tb.full());
    tb.popFront();
    EXPECT_FALSE(tb.full()) << "retirement frees space";
    EXPECT_EQ(tb.totalAppended(), 3u);
}

TEST(TraceBuffer, StoreHasNoDest)
{
    TraceBuffer tb;
    tb.reset(4);
    const u64 i0 = append(tb, Opcode::SW, 0, 29, 8);
    EXPECT_FALSE(tb.at(i0).has_dest);
    EXPECT_EQ(tb.at(i0).src[0].kind, SrcRef::ThreadInput);
    EXPECT_EQ(tb.at(i0).src[0].reg, 29);
    EXPECT_EQ(tb.at(i0).src[1].reg, 8);
    u64 w;
    EXPECT_FALSE(tb.lastWriter(0, &w));
}

TEST(TraceBuffer, ReusedSlotStartsClean)
{
    // A slot freed by retirement or by truncation and appended into
    // again must read exactly like a never-used one: nothing the
    // previous occupant's execution wrote may leak through.
    TraceBuffer tb;
    tb.reset(2);
    dirty(tb.append(Instruction{Opcode::SW, 0, 29, 8, 0}, 0x400000));
    dirty(tb.append(Instruction{Opcode::ADDI, 8, 0, 0, 0}, 0x400004));

    tb.popFront(); // retire id 0: its slot takes the next append
    const auto snap = tb.writerSnapshot();
    const Instruction add{Opcode::ADD, 9, 8, 0, 0};
    TBEntry &e2 = tb.append(add, 0x400008);
    TBEntry expect;
    expect.id = 2;
    expect.inst = add;
    expect.pc = 0x400008;
    expect.src[0] = SrcRef{SrcRef::TbEntry, 8, 1};
    expect.has_dest = true;
    expect.dest = 9;
    EXPECT_EQ(e2, expect) << "retired slot reused dirty";

    dirty(e2);
    tb.truncateFrom(2); // squash id 2: the same slot is appended again
    tb.restoreWriters(snap);
    const Instruction sw{Opcode::SW, 0, 29, 8, 0};
    expect = TBEntry{};
    expect.id = 2;
    expect.inst = sw;
    expect.pc = 0x40000c;
    expect.src[0] = SrcRef{SrcRef::ThreadInput, 29, 0};
    expect.src[1] = SrcRef{SrcRef::TbEntry, 8, 1};
    EXPECT_EQ(tb.append(sw, 0x40000c), expect)
        << "truncated slot reused dirty";
}

} // namespace
} // namespace dmt
