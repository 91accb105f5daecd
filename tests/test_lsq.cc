/**
 * @file
 * Load/store queue and memory-disambiguation tests with a mock program
 * order: forwarding (same and cross thread, contained and partial),
 * violation detection on store execution and re-execution, silent
 * stores, squash orphaning, and retirement-aware ordering.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "dmt/lsq.hh"

namespace dmt
{
namespace
{

/** Program order = (tid, tb_id) lexicographic: tid 0 before tid 1... */
class SeqOracle : public OrderOracle
{
  public:
    bool
    memBefore(ThreadId ta, u64 a, ThreadId tb, u64 b) const override
    {
        if (ta != tb)
            return ta < tb;
        return a < b;
    }
};

class LsqTest : public ::testing::Test
{
  protected:
    LsqTest() : lsq(8, 8, 4) {}

    SeqOracle order;
    Lsq lsq;
};

TEST_F(LsqTest, AllocationQuotas)
{
    std::vector<i32> ids;
    for (int i = 0; i < 8; ++i) {
        const i32 id = lsq.allocLoad(0, 1, static_cast<u64>(i));
        ASSERT_GE(id, 0);
        ids.push_back(id);
    }
    EXPECT_TRUE(lsq.lqFull(0));
    EXPECT_EQ(lsq.allocLoad(0, 1, 99), -1);
    EXPECT_FALSE(lsq.lqFull(1)) << "quotas are per thread";
    EXPECT_GE(lsq.allocLoad(1, 1, 0), 0);
    lsq.freeLoad(ids[0]);
    EXPECT_GE(lsq.allocLoad(0, 1, 100), 0);
}

TEST_F(LsqTest, LoadFromMemoryWhenNoStore)
{
    const i32 ld = lsq.allocLoad(0, 1, 5);
    const auto r = lsq.loadIssue(ld, 0x1000, 4, order);
    EXPECT_EQ(r.kind, Lsq::LoadIssueResult::Memory);
}

TEST_F(LsqTest, ForwardFromLatestEarlierStore)
{
    const i32 s1 = lsq.allocStore(0, 1, 1);
    const i32 s2 = lsq.allocStore(0, 1, 3);
    lsq.storeExecute(s1, 0x1000, 4, 0xAAAA, order);
    lsq.storeExecute(s2, 0x1000, 4, 0xBBBB, order);
    const i32 ld = lsq.allocLoad(0, 1, 5);
    const auto r = lsq.loadIssue(ld, 0x1000, 4, order);
    ASSERT_EQ(r.kind, Lsq::LoadIssueResult::Forward);
    EXPECT_EQ(r.store_id, s2) << "latest earlier store wins";
    EXPECT_FALSE(r.cross_thread);
    EXPECT_EQ(Lsq::extractStoreBytes(lsq.store(r.store_id), 0x1000, 4),
              0xBBBBu);
}

TEST_F(LsqTest, YoungerStoreDoesNotForward)
{
    const i32 st = lsq.allocStore(0, 1, 10);
    lsq.storeExecute(st, 0x1000, 4, 0xAAAA, order);
    const i32 ld = lsq.allocLoad(0, 1, 5); // older than the store
    const auto r = lsq.loadIssue(ld, 0x1000, 4, order);
    EXPECT_EQ(r.kind, Lsq::LoadIssueResult::Memory);
}

TEST_F(LsqTest, CrossThreadForwardFlagged)
{
    const i32 st = lsq.allocStore(0, 1, 1);
    lsq.storeExecute(st, 0x2000, 4, 7, order);
    const i32 ld = lsq.allocLoad(1, 1, 0);
    const auto r = lsq.loadIssue(ld, 0x2000, 4, order);
    ASSERT_EQ(r.kind, Lsq::LoadIssueResult::Forward);
    EXPECT_TRUE(r.cross_thread) << "paper charges +2 cycles for this";
}

TEST_F(LsqTest, SubWordExtraction)
{
    const i32 st = lsq.allocStore(0, 1, 1);
    lsq.storeExecute(st, 0x1000, 4, 0xDDCCBBAA, order);
    const i32 ld = lsq.allocLoad(0, 1, 2);
    const auto r = lsq.loadIssue(ld, 0x1001, 1, order);
    ASSERT_EQ(r.kind, Lsq::LoadIssueResult::Forward);
    EXPECT_EQ(Lsq::extractStoreBytes(lsq.store(st), 0x1001, 1), 0xBBu);
    EXPECT_EQ(Lsq::extractStoreBytes(lsq.store(st), 0x1002, 2),
              0xDDCCu);
}

TEST_F(LsqTest, PartialOverlapStalls)
{
    const i32 st = lsq.allocStore(0, 1, 1);
    lsq.storeExecute(st, 0x1001, 1, 0xFF, order); // byte store
    const i32 ld = lsq.allocLoad(0, 1, 2);
    const auto r = lsq.loadIssue(ld, 0x1000, 4, order); // word load
    EXPECT_EQ(r.kind, Lsq::LoadIssueResult::Stall);
    EXPECT_EQ(r.store_id, st);
}

TEST_F(LsqTest, ViolationWhenStoreExecutesLate)
{
    // Later-thread load issues first, reading memory.
    const i32 ld = lsq.allocLoad(1, 1, 0);
    lsq.loadIssue(ld, 0x3000, 4, order);
    lsq.setLoadValue(ld, 0);
    // Earlier-thread store then executes to the same address.
    const i32 st = lsq.allocStore(0, 1, 0);
    const auto v = lsq.storeExecute(st, 0x3000, 4, 123, order);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], ld);
}

TEST_F(LsqTest, SilentStoreIsNotAViolation)
{
    const i32 ld = lsq.allocLoad(1, 1, 0);
    lsq.loadIssue(ld, 0x3000, 4, order);
    lsq.setLoadValue(ld, 123); // load happened to observe 123
    const i32 st = lsq.allocStore(0, 1, 0);
    const auto v = lsq.storeExecute(st, 0x3000, 4, 123, order);
    EXPECT_TRUE(v.empty()) << "identical bytes: no recovery needed";
}

TEST_F(LsqTest, NoViolationForEarlierLoads)
{
    const i32 ld = lsq.allocLoad(0, 1, 0); // earlier than the store
    lsq.loadIssue(ld, 0x3000, 4, order);
    const i32 st = lsq.allocStore(0, 1, 5);
    const auto v = lsq.storeExecute(st, 0x3000, 4, 1, order);
    EXPECT_TRUE(v.empty());
}

TEST_F(LsqTest, ShadowingStoreSuppressesViolation)
{
    // Store A (t0/#0), store B (t0/#2), load (t0/#4) forwarded from B.
    const i32 sa = lsq.allocStore(0, 1, 0);
    const i32 sb = lsq.allocStore(0, 1, 2);
    lsq.storeExecute(sb, 0x4000, 4, 7, order);
    const i32 ld = lsq.allocLoad(0, 1, 4);
    const auto r = lsq.loadIssue(ld, 0x4000, 4, order);
    ASSERT_EQ(r.kind, Lsq::LoadIssueResult::Forward);
    lsq.setLoadValue(ld, 7);
    // A executes later with different data, but B shadows it.
    const auto v = lsq.storeExecute(sa, 0x4000, 4, 99, order);
    EXPECT_TRUE(v.empty());
}

TEST_F(LsqTest, StoreReexecutionWithNewAddress)
{
    const i32 st = lsq.allocStore(0, 1, 0);
    lsq.storeExecute(st, 0x5000, 4, 1, order);
    const i32 ld = lsq.allocLoad(1, 1, 0);
    const auto r = lsq.loadIssue(ld, 0x5000, 4, order);
    ASSERT_EQ(r.kind, Lsq::LoadIssueResult::Forward);
    lsq.setLoadValue(ld, 1);
    // Recovery re-executes the store to a different address: the load
    // that forwarded from it under the old address is stale.
    const auto v = lsq.storeExecute(st, 0x6000, 4, 1, order);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], ld);
}

TEST_F(LsqTest, SquashedStoreOrphansForwardees)
{
    const i32 st = lsq.allocStore(0, 1, 0);
    lsq.storeExecute(st, 0x7000, 4, 5, order);
    const i32 ld = lsq.allocLoad(1, 1, 0);
    lsq.loadIssue(ld, 0x7000, 4, order);
    const auto res = lsq.freeStore(st, true);
    ASSERT_EQ(res.orphaned_loads.size(), 1u);
    EXPECT_EQ(res.orphaned_loads[0], ld);
    EXPECT_EQ(lsq.load(ld).fwd_store, -1);
}

TEST_F(LsqTest, DrainedStoreDoesNotOrphan)
{
    const i32 st = lsq.allocStore(0, 1, 0);
    lsq.storeExecute(st, 0x7000, 4, 5, order);
    const i32 ld = lsq.allocLoad(1, 1, 0);
    lsq.loadIssue(ld, 0x7000, 4, order);
    lsq.storeRetired(st, 1);
    const auto res = lsq.freeStore(st, false);
    EXPECT_TRUE(res.orphaned_loads.empty());
    EXPECT_EQ(lsq.load(ld).fwd_store, -1) << "dangling ref cleared";
}

TEST_F(LsqTest, RetiredStoresPrecedeEverything)
{
    // A store marked retired forwards to any live load even if its
    // owning thread id would sort after (contexts get recycled).
    const i32 st = lsq.allocStore(3, 1, 999);
    lsq.storeExecute(st, 0x8000, 4, 42, order);
    lsq.storeRetired(st, 7);
    const i32 ld = lsq.allocLoad(0, 1, 0);
    const auto r = lsq.loadIssue(ld, 0x8000, 4, order);
    ASSERT_EQ(r.kind, Lsq::LoadIssueResult::Forward);
    EXPECT_EQ(r.store_id, st);
}

TEST_F(LsqTest, OverlapAndContainment)
{
    EXPECT_TRUE(Lsq::overlaps(0x100, 4, 0x102, 2));
    EXPECT_FALSE(Lsq::overlaps(0x100, 4, 0x104, 4));
    EXPECT_TRUE(Lsq::contains(0x102, 2, 0x100, 4));
    EXPECT_FALSE(Lsq::contains(0x100, 4, 0x102, 2));
    EXPECT_TRUE(Lsq::contains(0x100, 4, 0x100, 4));
}

TEST_F(LsqTest, ReissueMovesAddressIndex)
{
    const i32 ld = lsq.allocLoad(0, 1, 5);
    lsq.loadIssue(ld, 0x1000, 4, order);
    // Re-issue (recovery) at a different address: a store to the old
    // address must no longer see it.
    lsq.loadIssue(ld, 0x9000, 4, order);
    const i32 st = lsq.allocStore(0, 1, 0);
    auto v = lsq.storeExecute(st, 0x1000, 4, 77, order);
    EXPECT_TRUE(v.empty());
    const i32 st2 = lsq.allocStore(0, 1, 1);
    v = lsq.storeExecute(st2, 0x9000, 4, 77, order);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], ld);
}

TEST_F(LsqTest, RandomChurnKeepsAccounting)
{
    // Random allocate/issue/execute/free churn: per-thread counts must
    // track, quotas must hold, and freed slots must be reusable.  After
    // every step, hasUnexecutedEarlierStore must agree with a brute
    // force scan of the live stores tracked here.
    struct LiveStore
    {
        i32 id;
        ThreadId tid;
        u64 tb_id;
        bool executed;
    };
    Rng rng(0xC0FFEE);
    Rng probe(0xBEEF); // queries only; the churn sequence is rng's
    std::vector<i32> live_loads;
    std::vector<LiveStore> live_stores;
    int answers[2] = {0, 0};
    for (int step = 0; step < 5000; ++step) {
        const ThreadId tid = static_cast<ThreadId>(rng.below(4));
        switch (rng.below(5)) {
          case 0: {
              const i32 id = lsq.allocLoad(
                  tid, 1, static_cast<u64>(step));
              if (id >= 0)
                  live_loads.push_back(id);
              else
                  EXPECT_TRUE(lsq.lqFull(tid));
              break;
          }
          case 1: {
              const i32 id = lsq.allocStore(
                  tid, 1, static_cast<u64>(step));
              if (id >= 0)
                  live_stores.push_back(
                      {id, tid, static_cast<u64>(step), false});
              else
                  EXPECT_TRUE(lsq.sqFull(tid));
              break;
          }
          case 2:
            if (!live_loads.empty()) {
                const size_t k = rng.below(live_loads.size());
                lsq.loadIssue(live_loads[k],
                              0x1000 + static_cast<Addr>(
                                  rng.below(64)) * 4,
                              4, order);
            }
            break;
          case 3:
            if (!live_loads.empty()) {
                const size_t k = rng.below(live_loads.size());
                lsq.freeLoad(live_loads[k]);
                live_loads.erase(live_loads.begin()
                                 + static_cast<long>(k));
            }
            break;
          case 4:
            if (!live_stores.empty()) {
                const size_t k = rng.below(live_stores.size());
                if (rng.chance(0.6)) {
                    lsq.storeExecute(live_stores[k].id,
                                     0x1000 + static_cast<Addr>(
                                         rng.below(64)) * 4,
                                     4, rng.next32(), order);
                    live_stores[k].executed = true;
                } else {
                    lsq.freeStore(live_stores[k].id, rng.chance(0.5));
                    live_stores.erase(live_stores.begin()
                                      + static_cast<long>(k));
                }
            }
            break;
        }

        const ThreadId q_tid = static_cast<ThreadId>(probe.below(4));
        const u64 q_tb = probe.below(static_cast<u64>(step) + 2);
        bool expect = false;
        for (const LiveStore &st : live_stores) {
            expect = expect
                || (!st.executed
                    && order.memBefore(st.tid, st.tb_id, q_tid, q_tb));
        }
        ASSERT_EQ(lsq.hasUnexecutedEarlierStore(q_tid, q_tb, order),
                  expect)
            << "step " << step << " query (" << q_tid << ", " << q_tb
            << ")";
        ++answers[expect];
    }
    EXPECT_GT(answers[0], 500) << "queries must exercise both answers";
    EXPECT_GT(answers[1], 500) << "queries must exercise both answers";
    // Drain everything; all quotas must return to zero.
    for (i32 id : live_loads)
        lsq.freeLoad(id);
    for (const LiveStore &st : live_stores)
        lsq.freeStore(st.id, true);
    for (ThreadId tid = 0; tid < 4; ++tid) {
        EXPECT_EQ(lsq.loadCount(tid), 0);
        EXPECT_EQ(lsq.storeCount(tid), 0);
        EXPECT_FALSE(lsq.lqFull(tid));
        EXPECT_FALSE(lsq.sqFull(tid));
    }
}

} // namespace
} // namespace dmt
