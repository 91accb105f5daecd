/**
 * @file
 * Unit tests for the common infrastructure: bit utilities, the
 * deterministic RNG, statistics primitives, string helpers and the
 * pooled FIFO lists.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/bitutils.hh"
#include "common/list_pool.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/strutil.hh"

namespace dmt
{
namespace
{

TEST(BitUtils, BitsExtract)
{
    EXPECT_EQ(bits(0xDEADBEEF, 31, 28), 0xDu);
    EXPECT_EQ(bits(0xDEADBEEF, 3, 0), 0xFu);
    EXPECT_EQ(bits(0xDEADBEEF, 31, 0), 0xDEADBEEFu);
    EXPECT_EQ(bits(0xFF00, 15, 8), 0xFFu);
}

TEST(BitUtils, InsertBits)
{
    EXPECT_EQ(insertBits(0xF, 3, 0), 0xFu);
    EXPECT_EQ(insertBits(0xF, 7, 4), 0xF0u);
    EXPECT_EQ(insertBits(0x1FF, 7, 4), 0xF0u) << "field must be masked";
}

TEST(BitUtils, SignExtend)
{
    EXPECT_EQ(signExtend(0xFF, 8), -1);
    EXPECT_EQ(signExtend(0x7F, 8), 127);
    EXPECT_EQ(signExtend(0x8000, 16), -32768);
    EXPECT_EQ(signExtend(0xFFFF, 16), -1);
    EXPECT_EQ(signExtend(0x1, 1), -1);
}

TEST(BitUtils, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(4096));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(48));
    EXPECT_EQ(floorLog2(1), 0);
    EXPECT_EQ(floorLog2(4096), 12);
}

TEST(Rng, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    EXPECT_NE(a.next64(), b.next64());
}

TEST(Rng, RangeBounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const i64 v = r.range(-5, 12);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 12);
    }
}

TEST(Rng, BelowBounds)
{
    Rng r(9);
    std::set<u64> seen;
    for (int i = 0; i < 1000; ++i) {
        const u64 v = r.below(17);
        EXPECT_LT(v, 17u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 17u) << "all residues should appear";
}

TEST(Rng, ChanceExtremes)
{
    Rng r(11);
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.25);
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AverageTracksMinMaxMean)
{
    Average a;
    a.sample(2.0);
    a.sample(4.0);
    a.sample(9.0);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(Stats, HistogramBuckets)
{
    Histogram h(0.0, 10.0, 5);
    h.sample(0.5);
    h.sample(9.9);
    h.sample(5.0);
    h.sample(-3.0);  // clamps low
    h.sample(100.0); // clamps high
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(4), 2u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_DOUBLE_EQ(h.bucketLow(0), 0.0);
    EXPECT_DOUBLE_EQ(h.bucketHigh(4), 10.0);
}

TEST(Stats, GroupDumpContainsEntries)
{
    Counter c;
    c += 3;
    StatGroup g("unit");
    g.add("events", &c, "some events");
    const std::string out = g.dump();
    EXPECT_NE(out.find("unit.events"), std::string::npos);
    EXPECT_NE(out.find("3"), std::string::npos);
}

TEST(StrUtil, Trim)
{
    EXPECT_EQ(trim("  hi  "), "hi");
    EXPECT_EQ(trim("hi"), "hi");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
}

TEST(StrUtil, SplitFields)
{
    const auto f = splitFields("a, b,,c", ", ");
    ASSERT_EQ(f.size(), 3u);
    EXPECT_EQ(f[0], "a");
    EXPECT_EQ(f[1], "b");
    EXPECT_EQ(f[2], "c");
}

TEST(StrUtil, SplitLines)
{
    const auto l = splitLines("one\ntwo\r\nthree");
    ASSERT_EQ(l.size(), 3u);
    EXPECT_EQ(l[1], "two");
    EXPECT_EQ(l[2], "three");
}

TEST(StrUtil, ParseIntForms)
{
    i64 v = 0;
    EXPECT_TRUE(parseInt("42", &v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(parseInt("-17", &v));
    EXPECT_EQ(v, -17);
    EXPECT_TRUE(parseInt("0x10", &v));
    EXPECT_EQ(v, 16);
    EXPECT_TRUE(parseInt("0b101", &v));
    EXPECT_EQ(v, 5);
    EXPECT_FALSE(parseInt("", &v));
    EXPECT_FALSE(parseInt("12x", &v));
    EXPECT_FALSE(parseInt("0x", &v));
}

TEST(StrUtil, IEquals)
{
    EXPECT_TRUE(iequals("AbC", "abc"));
    EXPECT_FALSE(iequals("abc", "abd"));
    EXPECT_FALSE(iequals("ab", "abc"));
}

TEST(StrUtil, StrPrintf)
{
    EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(strprintf("%04x", 0xab), "00ab");
}

using IntPool = ListPool<int>;

std::vector<int>
contents(const IntPool &pool, const IntPool::List &l)
{
    std::vector<int> out;
    pool.forEach(l, [&](int v) { out.push_back(v); });
    return out;
}

/** Audit @p pool against exactly @p lists. */
bool
auditOver(const IntPool &pool, const std::vector<const IntPool::List *> &lists,
          std::string *why = nullptr)
{
    return pool.audit(
        [&](auto &&list) {
            for (const IntPool::List *l : lists)
                list(*l);
        },
        why);
}

TEST(ListPool, FifoOrderAcrossNodeReuse)
{
    IntPool pool;
    IntPool::List a, b;
    for (int i = 0; i < 5; ++i)
        pool.push_back(a, i);
    pool.clear(a);
    EXPECT_TRUE(a.empty());
    // Interleaved pushes draw the freed nodes in LIFO order; each list
    // must still read back in its own push order.
    for (int i = 0; i < 4; ++i) {
        pool.push_back(b, 10 + i);
        pool.push_back(a, 20 + i);
    }
    EXPECT_EQ(contents(pool, a), (std::vector<int>{20, 21, 22, 23}));
    EXPECT_EQ(contents(pool, b), (std::vector<int>{10, 11, 12, 13}));
    EXPECT_EQ(pool.capacity(), 8u) << "freed nodes were not reused";
    std::string why;
    EXPECT_TRUE(auditOver(pool, {&a, &b}, &why)) << why;
}

TEST(ListPool, ClearReturnsEveryNode)
{
    IntPool pool;
    std::vector<IntPool::List> lists(16);
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 200; ++i)
            pool.push_back(lists[static_cast<size_t>(i * 7 % 16)], i);
        for (IntPool::List &l : lists)
            pool.clear(l);
        std::string why;
        EXPECT_TRUE(auditOver(pool, {}, &why))
            << "round " << round << ": " << why;
        EXPECT_EQ(pool.capacity(), 200u)
            << "round " << round << " grew past the in-flight peak";
    }
    // A node held by no list and absent from the free list is a leak.
    IntPool::List kept;
    pool.push_back(kept, 1);
    std::string why;
    EXPECT_FALSE(auditOver(pool, {}, &why));
    EXPECT_NE(why.find("leaked"), std::string::npos) << why;
}

TEST(ListPool, GrowthLeavesLiveAndWalkedListsIntact)
{
    IntPool pool;
    std::vector<IntPool::List> lists(5);
    std::vector<std::vector<int>> expect(lists.size());
    // Several live lists while the pool doubles many times over.
    for (int i = 0; i < 1000; ++i) {
        const size_t k = static_cast<size_t>(i % 5);
        pool.push_back(lists[k], i);
        expect[k].push_back(i);
    }
    for (size_t k = 0; k < lists.size(); ++k)
        EXPECT_EQ(contents(pool, lists[k]), expect[k]);

    // Walk list 0 while every visit pushes onto the other lists (the
    // pool grows under the walk) and, for the first few, onto list 0
    // itself (the walk must see those appends too).
    std::vector<int> walked;
    const size_t before = pool.capacity();
    pool.forEach(lists[0], [&](int v) {
        walked.push_back(v);
        for (size_t k = 1; k < lists.size(); ++k) {
            pool.push_back(lists[k], -v);
            expect[k].push_back(-v);
        }
        if (v < 20) {
            pool.push_back(lists[0], 5000 + v);
            expect[0].push_back(5000 + v);
        }
    });
    EXPECT_GT(pool.capacity(), before) << "the walk never grew the pool";
    EXPECT_EQ(walked, expect[0]);
    for (size_t k = 0; k < lists.size(); ++k)
        EXPECT_EQ(contents(pool, lists[k]), expect[k]) << "list " << k;
    std::string why;
    EXPECT_TRUE(auditOver(pool, {&lists[0], &lists[1], &lists[2],
                                 &lists[3], &lists[4]},
                          &why))
        << why;
}

} // namespace
} // namespace dmt
