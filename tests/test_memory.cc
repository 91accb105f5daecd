/**
 * @file
 * Timing-cache tests: geometry, hit/miss behaviour, LRU replacement,
 * and the two-level hierarchy's latency accounting.
 */

#include <gtest/gtest.h>

#include "memory/hierarchy.hh"

namespace dmt
{
namespace
{

CacheParams
tiny(u32 size, u32 assoc, u32 line)
{
    CacheParams p;
    p.name = "tiny";
    p.size_bytes = size;
    p.assoc = assoc;
    p.line_bytes = line;
    return p;
}

TEST(Cache, Geometry)
{
    Cache c(tiny(16 * 1024, 2, 32));
    EXPECT_EQ(c.numSets(), 16u * 1024 / (2 * 32));
}

TEST(Cache, HitAfterMiss)
{
    Cache c(tiny(1024, 2, 32));
    EXPECT_FALSE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x101F, false)) << "same line";
    EXPECT_FALSE(c.access(0x1020, false)) << "next line";
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, LruReplacement)
{
    // 2-way, 32B lines, 4 sets (256 bytes): addresses with the same
    // set index differ by 128.
    Cache c(tiny(256, 2, 32));
    c.access(0x0000, false);  // way 0
    c.access(0x0080, false);  // way 1 (same set)
    EXPECT_TRUE(c.access(0x0000, false)) << "refresh LRU of way 0";
    c.access(0x0100, false);  // evicts 0x0080 (LRU)
    EXPECT_TRUE(c.access(0x0000, false));
    EXPECT_FALSE(c.access(0x0080, false)) << "was evicted";
}

TEST(Cache, ProbeDoesNotAllocate)
{
    Cache c(tiny(256, 2, 32));
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_FALSE(c.access(0x40, false));
    EXPECT_TRUE(c.probe(0x40));
}

TEST(Cache, ResetClears)
{
    Cache c(tiny(256, 2, 32));
    c.access(0x40, true);
    c.reset();
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_EQ(c.misses(), 0u);
}

TEST(Hierarchy, PaperLatencies)
{
    // Section 4: L1 miss penalty 4 cycles, L2 miss an additional 20.
    HierarchyParams p;
    MemHierarchy h(p);
    EXPECT_EQ(h.instAccess(0x400000), 24u) << "cold: L1+L2 miss";
    EXPECT_EQ(h.instAccess(0x400000), 0u) << "warm: hit";
    EXPECT_EQ(h.dataAccess(0x10000000, false), 24u);
    EXPECT_EQ(h.dataAccess(0x10000000, true), 0u);
}

TEST(Hierarchy, L2CatchesL1Evictions)
{
    HierarchyParams p;
    p.l1i_bytes = 128; // two sets of two 32B ways
    MemHierarchy h(p);
    h.instAccess(0x0000);
    h.instAccess(0x0100); // same set
    h.instAccess(0x0200); // evicts 0x0000 (LRU) from the tiny L1
    const Cycle lat = h.instAccess(0x0000);
    EXPECT_EQ(lat, MemHierarchy::kL1MissPenalty) << "L1 miss, L2 hit";
}

TEST(Hierarchy, SharedL2)
{
    HierarchyParams p;
    MemHierarchy h(p);
    h.instAccess(0x8000);            // fills L2 line
    const Cycle lat = h.dataAccess(0x8000, false);
    EXPECT_EQ(lat, MemHierarchy::kL1MissPenalty)
        << "data side hits the line the instruction side brought in";
}

} // namespace
} // namespace dmt
