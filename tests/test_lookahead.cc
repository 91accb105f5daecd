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

#include <algorithm>
#include <deque>

#include "dmt/engine.hh"
#include "dmt/lookahead.hh"
#include "exp/experiments.hh"
#include "exp/sampled.hh"
#include "fault/auditor.hh"
#include "workloads/workloads.hh"

namespace dmt
{

/** White-box access for tests (friend of DmtEngine). */
class EngineInspector
{
  public:
    static size_t
    branchEpisodes(const DmtEngine &e)
    {
        return e.branch_eps.size();
    }

    static size_t
    imissEpisodes(const DmtEngine &e)
    {
        return e.imiss_eps.size();
    }

    static Cycle pruneHorizon(const DmtEngine &e) { return e.la_horizon_; }

    /** An active thread with a non-empty trace buffer, or null. */
    static ThreadContext *
    threadInFlight(DmtEngine &e)
    {
        for (auto &t : e.threads) {
            if (t->active && !t->tb.empty())
                return t.get();
        }
        return nullptr;
    }
};

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

TEST(EpisodeTracker, OutgrowsItsReservationIntact)
{
    // The tracker reserves room for 1024 live episodes and doubles past
    // that.  Drive it past 2048 after the ring's front has moved, so it
    // grows while wrapped, and check every answer against a plain list
    // of the live episodes.
    struct Ep
    {
        u64 handle;
        Cycle start;
        Cycle end;
        bool countable = false;
        bool dropped = false;
    };
    EpisodeTracker t;
    std::deque<Ep> live; // unpruned, in handle order
    u64 rng = 12345;
    auto next = [&rng] {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        return rng >> 33;
    };
    auto expected = [&live](Cycle when, u64 exclude) {
        return std::any_of(live.begin(), live.end(), [&](const Ep &e) {
            return e.countable && !e.dropped && e.handle != exclude
                && e.start <= when && when < e.end;
        });
    };
    size_t peak = 0;
    for (Cycle now = 1000; now < 9000; ++now) {
        const Cycle start = now - next() % 8;
        const Cycle end = now + 1 + next() % 40;
        live.push_back({t.open(start, end), start, end});
        Ep &e = live[next() % live.size()];
        if (next() % 5) {
            t.ownerRetired(e.handle);
            e.countable = true;
        } else {
            t.drop(e.handle);
            e.dropped = true;
        }
        // Prune a short window, then nothing (the live set grows past
        // two doublings), then a long window that pops the front a few
        // episodes at a time.
        if (now < 1500 || now >= 4500) {
            const Cycle horizon = now - (now < 1500 ? 100 : 2500);
            t.prune(horizon);
            while (!live.empty() && live.front().end < horizon)
                live.pop_front();
        }
        ASSERT_EQ(t.size(), live.size()) << "at cycle " << now;
        peak = std::max(peak, live.size());
        if (now % 8 == 0) {
            for (int q = 0; q < 3; ++q) {
                const Cycle when =
                    now - next() % (now - live.front().start + 1);
                const u64 exclude =
                    q ? live[next() % live.size()].handle : 0;
                ASSERT_EQ(t.covered(when, exclude),
                          expected(when, exclude))
                    << "covered(" << when << ", " << exclude
                    << ") at cycle " << now;
            }
        }
    }
    EXPECT_GT(peak, 2048u);
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

/** A golden dmt6 run and the lookahead counters it produced while the
 *  trackers kept every episode. */
struct PrunedRun
{
    const char *workload;
    u64 cycles;
    u64 retired;
    u64 la_fetch_mispredict;
    u64 la_exec_mispredict;
    u64 la_fetch_imiss;
    u64 la_exec_imiss;
};

TEST(Lookahead, PruneAtOldestInFlightFetchIsExact)
{
    // The engine prunes both trackers at the fetch cycle of the oldest
    // instruction still in flight.  A 60k-instruction run never reaches
    // a fixed 100k-cycle retention window, so without that horizon every
    // episode of the run stays in the search (thousands on go).  The
    // counters are the ones the run produced while it kept them all:
    // pruning must drop only episodes no later query can hit.
    const PrunedRun runs[] = {
        {"go", 35176, 60002, 16389, 14409, 0, 0},
        {"compress", 36119, 60000, 12969, 7944, 66, 45},
    };
    for (const PrunedRun &want : runs) {
        SCOPED_TRACE(want.workload);
        SimConfig cfg = SimConfig::dmt(6, 2);
        cfg.max_retired = 60000;
        const Program prog = buildWorkload(want.workload);
        DmtEngine engine(cfg, prog);
        engine.run();
        ASSERT_TRUE(engine.goldenOk()) << engine.goldenError();
        const DmtStats &s = engine.stats();
        // The dmt6 signature in tests/golden/<workload>.json.
        EXPECT_EQ(s.cycles.value(), want.cycles);
        EXPECT_EQ(s.retired.value(), want.retired);
        EXPECT_EQ(s.la_fetch_beyond_mispredict.value(),
                  want.la_fetch_mispredict);
        EXPECT_EQ(s.la_exec_beyond_mispredict.value(),
                  want.la_exec_mispredict);
        EXPECT_EQ(s.la_fetch_beyond_imiss.value(), want.la_fetch_imiss);
        EXPECT_EQ(s.la_exec_beyond_imiss.value(), want.la_exec_imiss);

        // About 50 live episodes here, against thousands kept without
        // the horizon.
        EXPECT_LT(EngineInspector::branchEpisodes(engine), 256u);
        EXPECT_LT(EngineInspector::imissEpisodes(engine), 256u);
        EXPECT_GT(EngineInspector::pruneHorizon(engine), 0u);
        EXPECT_LE(EngineInspector::pruneHorizon(engine), engine.now());
    }
}

TEST(Lookahead, AuditorRejectsEntryOlderThanPruneHorizon)
{
    // The prune is exact only while nothing in flight was fetched
    // before the horizon; the invariant auditor holds the engine to it.
    SimConfig cfg = SimConfig::dmt(6, 2);
    cfg.max_retired = 60000;
    const Program prog = buildWorkload("go");
    DmtEngine engine(cfg, prog);
    while (EngineInspector::pruneHorizon(engine) == 0 && !engine.done())
        engine.step();
    ASSERT_FALSE(engine.done());
    std::string why;
    ASSERT_TRUE(InvariantAuditor::checkNoThrow(engine, &why)) << why;

    ThreadContext *t = EngineInspector::threadInFlight(engine);
    ASSERT_NE(t, nullptr);
    t->tb.at(t->tb.firstId()).fetch_cycle =
        EngineInspector::pruneHorizon(engine) - 1;
    EXPECT_FALSE(InvariantAuditor::checkNoThrow(engine, &why));
    EXPECT_NE(why.find("prune horizon"), std::string::npos) << why;
}

} // namespace
} // namespace dmt
