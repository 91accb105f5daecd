/**
 * @file
 * Lookahead episode bookkeeping (Figures 8 and 9): an episode — the
 * interval an earlier-in-program-order stream spent blocked behind an
 * eventually-mispredicted branch or an ICache miss — only counts once
 * its owner finally retires, covers exactly [start, end), excludes the
 * owner itself, and is dropped when the owner is squashed.  These are
 * the rules that make the figure-8/9 percentages mean what the paper
 * says they mean.
 */

#include <gtest/gtest.h>

#include "dmt/lookahead.hh"
#include "exp/experiments.hh"
#include "exp/sampled.hh"

namespace dmt
{
namespace
{

TEST(EpisodeTracker, NotCountableUntilOwnerRetires)
{
    EpisodeTracker t;
    const u64 h = t.open(10, 20);
    EXPECT_FALSE(t.covered(15, 0))
        << "pending episodes must not count: the owner might be on a "
           "wrong path";
    t.ownerRetired(h);
    EXPECT_TRUE(t.covered(15, 0));
}

TEST(EpisodeTracker, IntervalIsHalfOpen)
{
    EpisodeTracker t;
    const u64 h = t.open(10, 20);
    t.ownerRetired(h);
    EXPECT_FALSE(t.covered(9, 0));
    EXPECT_TRUE(t.covered(10, 0)) << "start is inclusive";
    EXPECT_TRUE(t.covered(19, 0));
    EXPECT_FALSE(t.covered(20, 0)) << "end is exclusive";
}

TEST(EpisodeTracker, DroppedOwnerNeverCounts)
{
    EpisodeTracker t;
    const u64 h = t.open(10, 20);
    t.drop(h);
    // Even a stale ownerRetired() after the squash must not resurrect
    // the episode.
    t.ownerRetired(h);
    EXPECT_FALSE(t.covered(15, 0));
}

TEST(EpisodeTracker, OwnerExcludesItself)
{
    EpisodeTracker t;
    const u64 h = t.open(10, 20);
    t.ownerRetired(h);
    EXPECT_FALSE(t.covered(15, h))
        << "the owner retiring inside its own episode is not lookahead";
    EXPECT_TRUE(t.covered(15, h + 1));
}

TEST(EpisodeTracker, OverlappingEpisodesAreIndependent)
{
    EpisodeTracker t;
    const u64 a = t.open(10, 20);
    const u64 b = t.open(15, 30);
    t.ownerRetired(b);
    EXPECT_FALSE(t.covered(12, 0)) << "only a (pending) covers 12";
    EXPECT_TRUE(t.covered(25, 0)) << "b covers 25";
    t.ownerRetired(a);
    EXPECT_TRUE(t.covered(12, 0));
    // Excluding b still leaves a covering the overlap.
    EXPECT_TRUE(t.covered(16, b));
    EXPECT_FALSE(t.covered(25, b));
}

TEST(EpisodeTracker, PruneDiscardsOnlyDeadEpisodes)
{
    EpisodeTracker t;
    const u64 a = t.open(10, 20);   // dies at horizon 21
    const u64 b = t.open(15, 40);
    t.ownerRetired(a);
    t.ownerRetired(b);
    EXPECT_EQ(t.size(), 2u);
    t.prune(20);
    EXPECT_EQ(t.size(), 2u) << "end == horizon - 1 not yet prunable";
    t.prune(21);
    EXPECT_EQ(t.size(), 1u);
    EXPECT_FALSE(t.covered(12, 0)) << "a is gone; b starts at 15";
    EXPECT_TRUE(t.covered(35, 0)) << "b survives";
}

TEST(EpisodeTracker, PruneIsFifoBounded)
{
    // prune() only pops from the front: a long-lived early episode
    // blocks later short ones from being reclaimed, but they must
    // still not count once dead... they do count while alive though.
    EpisodeTracker t;
    const u64 a = t.open(0, 100);
    const u64 b = t.open(5, 10);
    t.ownerRetired(a);
    t.ownerRetired(b);
    t.prune(50);
    EXPECT_EQ(t.size(), 2u) << "front episode still alive";
    EXPECT_TRUE(t.covered(7, 0)) << "b is dead time-wise but harmless";
    t.prune(101);
    EXPECT_EQ(t.size(), 0u);
}

TEST(EpisodeTracker, HandlesAreMonotonicAndStable)
{
    EpisodeTracker t;
    const u64 h1 = t.open(0, 1);
    const u64 h2 = t.open(0, 1);
    EXPECT_LT(h1, h2);
    // Operations on unknown handles are ignored, not fatal.
    t.ownerRetired(9999);
    t.drop(9999);
    EXPECT_FALSE(t.covered(0, 0));
}

// ---- engine-level: the counters the figures are computed from --------

TEST(Lookahead, BaselineHasExactlyZeroLookahead)
{
    // "identically zero on a single-threaded machine, which is the
    // paper's point."
    const RunResult r = runWorkloadJob(SimConfig::baseline(), "go", 8000, {});
    EXPECT_EQ(r.stats.la_fetch_beyond_mispredict.value(), 0u);
    EXPECT_EQ(r.stats.la_exec_beyond_mispredict.value(), 0u);
    EXPECT_EQ(r.stats.la_fetch_beyond_imiss.value(), 0u);
    EXPECT_EQ(r.stats.la_exec_beyond_imiss.value(), 0u);
}

TEST(Lookahead, DmtLooksPastMispredictedBranches)
{
    // The branchy go kernel on the 6-thread machine must exhibit
    // fetch-beyond-mispredict, and executed lookahead can never exceed
    // fetched lookahead (execution follows fetch).
    const RunResult r = runWorkloadJob(exp::fig89Dmt(), "go", 20000, {});
    EXPECT_GT(r.stats.la_fetch_beyond_mispredict.value(), 0u);
    EXPECT_GE(r.stats.la_fetch_beyond_mispredict.value(),
              r.stats.la_exec_beyond_mispredict.value());
    EXPECT_LE(r.stats.la_fetch_beyond_mispredict.value(),
              r.stats.retired.value());
}

} // namespace
} // namespace dmt
