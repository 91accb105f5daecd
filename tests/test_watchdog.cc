/**
 * @file
 * Watchdog and invariant-auditor tests: a deliberately wedged engine
 * must produce a catchable SimError carrying a machine-parseable JSON
 * post-mortem (and write it to the configured crash file), naming the
 * context that stopped retiring; a deliberately corrupted order tree
 * or pooled list must be caught by the auditor, not by undefined
 * behaviour later.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "casm/builder.hh"
#include "common/json.hh"
#include "dmt/engine.hh"
#include "fault/auditor.hh"

namespace dmt
{

/** White-box sabotage hooks (friend of DmtEngine, OrderTree and
 *  ListPool). */
class EngineInspector
{
  public:
    /**
     * Wedge the head thread: park its recovery FSM in the latency
     * stage with an unserviceable delay anchored at trace-buffer entry
     * 0.  lowWater() == 0 then holds final retirement below all
     * pending "work" forever — retirement stops, fetch/dispatch fill
     * up and stall, and only the watchdog can end the run.
     */
    static void
    wedgeHeadRecovery(DmtEngine &e)
    {
        ASSERT_NE(e.tree.head(), kNoThread);
        ThreadContext &h = e.ctx(e.tree.head());
        h.recov.state = RecoveryFsm::State::Latency;
        h.recov.latency_left = 1 << 30;
        h.recov.cur.start_tb_id = 0;
    }

    /** Mark a never-spawned context active without linking it: an
     *  orphan the tree structural audit must report. */
    static void
    orphanThread(DmtEngine &e, ThreadId tid)
    {
        e.tree.active[static_cast<size_t>(tid)] = 1;
        e.tree.invalidate();
    }

    /** Point a thread's parent link at itself (a cycle). */
    static void
    selfParent(DmtEngine &e, ThreadId tid)
    {
        e.tree.parent[static_cast<size_t>(tid)] = tid;
        e.tree.kids[static_cast<size_t>(tid)].push_back(tid);
        e.tree.invalidate();
    }

    /** Point the first node of a non-empty completion-calendar list
     *  back at itself (a cycle).  @return false when every slot is
     *  empty. */
    static bool
    loopCalendarList(DmtEngine &e)
    {
        for (const auto &slot : e.calendar) {
            if (!slot.empty()) {
                e.calendar_pool.nodes_[slot.head].next = slot.head;
                return true;
            }
        }
        return false;
    }
};

namespace
{

using namespace reg;

/** A program that would run forever on a healthy machine. */
Program
spinProgram()
{
    AsmBuilder b;
    const auto loop = b.newLabel();
    b.li(t0, 1);
    b.bind(loop);
    b.add(t1, t1, t0);
    b.j(loop);
    return b.finish();
}

TEST(Watchdog, WedgedEngineThrowsWithJsonPostmortem)
{
    const char *crash_path = "test_watchdog_crash.json";
    std::remove(crash_path);

    SimConfig cfg = SimConfig::dmt(4, 2);
    cfg.watchdog_cycles = 100;
    cfg.crash_file = crash_path;
    DmtEngine e(cfg, spinProgram());
    EngineInspector::wedgeHeadRecovery(e);

    bool threw = false;
    try {
        e.run();
    } catch (const SimError &err) {
        threw = true;
        // The message names the culprit context.
        EXPECT_NE(std::string(err.what()).find("head tid 0"),
                  std::string::npos)
            << err.what();
        EXPECT_NE(std::string(err.what()).find("no retirement progress"),
                  std::string::npos)
            << err.what();

        // The attached post-mortem parses and identifies itself.
        ASSERT_TRUE(err.hasDetails());
        JsonValue doc;
        std::string perr;
        ASSERT_TRUE(JsonValue::parse(err.detailsJson(), &doc, &perr))
            << perr;
        ASSERT_NE(doc.find("postmortem"), nullptr);
        EXPECT_EQ(doc.find("postmortem")->asString(), "watchdog");
        ASSERT_NE(doc.find("cycle"), nullptr);
        EXPECT_GT(doc.find("cycle")->asNumber(), 100.0);
        ASSERT_NE(doc.find("threads"), nullptr);
        EXPECT_FALSE(doc.find("threads")->elements().empty());
        ASSERT_NE(doc.find("stats"), nullptr);
        ASSERT_NE(doc.find("config"), nullptr);
    }
    ASSERT_TRUE(threw) << "watchdog never fired";

    // The same document landed in the crash file.
    std::FILE *f = std::fopen(crash_path, "r");
    ASSERT_NE(f, nullptr) << "crash file was not written";
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    JsonValue doc;
    ASSERT_TRUE(JsonValue::parse(text, &doc, nullptr));
    ASSERT_NE(doc.find("postmortem"), nullptr);
    EXPECT_EQ(doc.find("postmortem")->asString(), "watchdog");
    std::remove(crash_path);
}

TEST(Watchdog, ZeroDisablesTheWatchdog)
{
    // The same wedged engine with watchdog_cycles=0 must honour
    // max_cycles instead of panicking.
    SimConfig cfg = SimConfig::dmt(4, 2);
    cfg.watchdog_cycles = 0;
    cfg.max_cycles = 2000;
    DmtEngine e(cfg, spinProgram());
    EngineInspector::wedgeHeadRecovery(e);
    EXPECT_NO_THROW(e.run());
    EXPECT_FALSE(e.programCompleted());
}

TEST(Auditor, CleanEngineAuditsGreen)
{
    SimConfig cfg = SimConfig::dmt(4, 2);
    cfg.crash_file.clear(); // no crash artifact from tests
    DmtEngine e(cfg, spinProgram());
    std::string why;
    EXPECT_TRUE(InvariantAuditor::checkNoThrow(e, &why)) << why;
    EXPECT_NO_THROW(InvariantAuditor::check(e));
}

TEST(Auditor, OrphanedThreadIsCaught)
{
    SimConfig cfg = SimConfig::dmt(4, 2);
    cfg.crash_file.clear();
    DmtEngine e(cfg, spinProgram());
    EngineInspector::orphanThread(e, 2);
    std::string why;
    EXPECT_FALSE(InvariantAuditor::checkNoThrow(e, &why));
    EXPECT_NE(why.find("tree"), std::string::npos) << why;
    EXPECT_THROW(InvariantAuditor::check(e), SimError);
}

TEST(Auditor, OrderTreeCycleIsCaughtNotWalkedForever)
{
    SimConfig cfg = SimConfig::dmt(4, 2);
    cfg.crash_file.clear();
    DmtEngine e(cfg, spinProgram());
    EngineInspector::selfParent(e, 0);
    std::string why;
    EXPECT_FALSE(InvariantAuditor::checkNoThrow(e, &why));
    EXPECT_THROW(InvariantAuditor::check(e), SimError);
}

TEST(Auditor, CorruptedListLinkIsCaughtNotWalkedForever)
{
    SimConfig cfg = SimConfig::dmt(4, 2);
    cfg.crash_file.clear();
    DmtEngine e(cfg, spinProgram());
    bool corrupted = false;
    for (int i = 0; i < 1000 && !corrupted; ++i) {
        e.step();
        std::string why;
        ASSERT_TRUE(InvariantAuditor::checkNoThrow(e, &why)) << why;
        corrupted = EngineInspector::loopCalendarList(e);
    }
    ASSERT_TRUE(corrupted) << "no completion was ever in flight";
    std::string why;
    EXPECT_FALSE(InvariantAuditor::checkNoThrow(e, &why));
    EXPECT_NE(why.find("calendar pool"), std::string::npos) << why;
    EXPECT_THROW(InvariantAuditor::check(e), SimError);
}

TEST(Auditor, AuditFailureCarriesPostmortemDetails)
{
    SimConfig cfg = SimConfig::dmt(4, 2);
    cfg.crash_file.clear();
    DmtEngine e(cfg, spinProgram());
    EngineInspector::orphanThread(e, 3);
    try {
        InvariantAuditor::check(e);
        FAIL() << "corrupted tree audited clean";
    } catch (const SimError &err) {
        ASSERT_TRUE(err.hasDetails());
        JsonValue doc;
        ASSERT_TRUE(JsonValue::parse(err.detailsJson(), &doc, nullptr));
        ASSERT_NE(doc.find("postmortem"), nullptr);
        EXPECT_EQ(doc.find("postmortem")->asString(),
                  "invariant-audit");
        ASSERT_NE(doc.find("reason"), nullptr);
    }
}

// The per-cycle audit gate in step(): a healthy run with the auditor
// on every cycle must behave identically to one with it off.
TEST(Auditor, PeriodicAuditIsTransparent)
{
    AsmBuilder b;
    b.li(t0, 5);
    const auto loop = b.newLabel();
    b.bind(loop);
    b.addi(t1, t1, 3);
    b.out(t1);
    b.addi(t0, t0, -1);
    b.bgtz(t0, loop);
    b.halt();
    const Program prog = b.finish();

    SimConfig cfg = SimConfig::dmt(4, 2);
    DmtEngine plain(cfg, prog);
    plain.run();
    ASSERT_TRUE(plain.goldenOk()) << plain.goldenError();

    cfg.audit_period = 1;
    DmtEngine audited(cfg, prog);
    audited.run();
    ASSERT_TRUE(audited.goldenOk()) << audited.goldenError();
    EXPECT_EQ(audited.stats().cycles.value(),
              plain.stats().cycles.value());
    EXPECT_EQ(audited.outputStream(), plain.outputStream());
}

} // namespace
} // namespace dmt
