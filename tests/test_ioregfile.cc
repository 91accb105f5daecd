/**
 * @file
 * Per-thread input/output register files (paper Section 3.2.2): the
 * initial thread's inputs are the exact architectural registers, every
 * spawn snapshot leaves each input either value-predicted or watching a
 * physical register for writeback delivery, watched inputs eventually
 * receive that writeback, and the head-switch final check keeps the
 * Figure-11 accounting internally consistent — even under a
 * spawn-input corruption storm, which recovery must repair to a golden
 * retirement stream.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "dmt/engine.hh"
#include "exp/experiments.hh"
#include "exp/sampled.hh"
#include "sim/functional.hh"
#include "workloads/workloads.hh"

namespace dmt
{

/** White-box access for tests (friend of DmtEngine). */
class EngineInspector
{
  public:
    static const ThreadContext &
    thread(const DmtEngine &e, ThreadId tid)
    {
        return e.ctx(tid);
    }

    static std::vector<ThreadId>
    liveThreads(const DmtEngine &e)
    {
        return e.tree.order();
    }
};

namespace
{

TEST(IoRegFileStruct, DefaultsAndReset)
{
    IoRegFile io;
    for (const IoInput &in : io.in) {
        EXPECT_FALSE(in.valid);
        EXPECT_EQ(in.watch, kNoPhysReg);
        EXPECT_FALSE(in.used);
        EXPECT_FALSE(in.valid_at_spawn);
        EXPECT_FALSE(in.finalized);
    }
    for (const IoOutput &out : io.out) {
        EXPECT_FALSE(out.redefined);
        EXPECT_EQ(out.phys, kNoPhysReg);
    }

    io.in[3].valid = true;
    io.in[3].used = true;
    io.in[3].first_use_id = 42;
    io.out[5].redefined = true;
    io.out[5].phys = 7;
    io.reset();
    EXPECT_FALSE(io.in[3].valid);
    EXPECT_FALSE(io.in[3].used);
    EXPECT_EQ(io.in[3].first_use_id, 0u);
    EXPECT_FALSE(io.out[5].redefined);
    EXPECT_EQ(io.out[5].phys, kNoPhysReg);
}

TEST(IoRegFile, InitialThreadInputsAreArchitectural)
{
    const Program prog = buildWorkload("go");
    DmtEngine engine(SimConfig::dmt(4, 2), prog);

    ArchState init;
    init.reset(prog);

    const ThreadContext &t0 = EngineInspector::thread(engine, 0);
    for (int r = 0; r < kNumLogRegs; ++r) {
        const IoInput &in = t0.io.in[static_cast<size_t>(r)];
        EXPECT_TRUE(in.valid) << "r" << r;
        EXPECT_TRUE(in.valid_at_spawn) << "r" << r;
        EXPECT_TRUE(in.finalized)
            << "r" << r << ": architectural values need no final check";
        EXPECT_EQ(in.value, init.regs[static_cast<size_t>(r)])
            << "r" << r;
        EXPECT_EQ(in.watch, kNoPhysReg) << "r" << r;
    }
}

/**
 * Step a spawning run cycle by cycle and check the snapshot invariants
 * on every live thread each cycle:
 *
 *  - r0 is always a valid zero (hardwired, exempt from prediction);
 *  - an input that was valid at spawn can never become invalid
 *    (deliveries only ever add values);
 *  - an input watching a physical register was not value-predicted.
 *
 * Also demand that the run exercises the writeback path: at least one
 * watched input must be observed, and at least one observed watch must
 * later hold a delivered value in the same thread incarnation.
 */
TEST(IoRegFile, SpawnSnapshotAndWritebackDelivery)
{
    SimConfig cfg = SimConfig::dmt(4, 2);
    cfg.max_retired = 20000;
    const Program prog = buildWorkload("gcc");
    DmtEngine engine(cfg, prog);

    // (tid, gen, reg) -> was observed watching.
    std::map<std::tuple<ThreadId, u32, int>, bool> watched;
    u64 watch_sightings = 0;
    u64 delivered = 0;

    while (!engine.done()) {
        engine.step();
        for (const ThreadId tid : EngineInspector::liveThreads(engine)) {
            const ThreadContext &t =
                EngineInspector::thread(engine, tid);
            if (!t.active || !t.was_spawned)
                continue;
            const IoInput &r0 = t.io.in[0];
            ASSERT_TRUE(r0.valid) << "tid " << tid;
            ASSERT_EQ(r0.value, 0u) << "tid " << tid;
            for (int r = 0; r < kNumLogRegs; ++r) {
                const IoInput &in = t.io.in[static_cast<size_t>(r)];
                if (in.valid_at_spawn) {
                    ASSERT_TRUE(in.valid)
                        << "tid " << tid << " r" << r
                        << ": a spawn-predicted value vanished";
                }
                if (in.watch != kNoPhysReg) {
                    ASSERT_FALSE(in.valid_at_spawn)
                        << "tid " << tid << " r" << r
                        << ": watching despite a spawn value";
                }
                const auto key = std::make_tuple(tid, t.gen, r);
                if (!in.valid && in.watch != kNoPhysReg) {
                    if (!watched[key])
                        ++watch_sightings;
                    watched[key] = true;
                } else if (in.valid && watched[key]) {
                    watched[key] = false;
                    ++delivered;
                }
            }
        }
    }

    EXPECT_GT(watch_sightings, 0u)
        << "gcc on the 4-thread machine must spawn threads whose "
           "inputs are still in flight";
    EXPECT_GT(delivered, 0u)
        << "some watched input must receive its writeback";
}

TEST(IoRegFile, Figure11AccountingIsCoherent)
{
    const RunResult r = runWorkloadJob(exp::fig11Dmt(), "gcc", 20000, {});
    const DmtStats &s = r.stats;
    EXPECT_GT(s.inputs_used.value(), 0u);
    EXPECT_LE(s.inputs_hit.value(), s.inputs_used.value());
    // Every hit is classified exactly once (head-switch final check).
    EXPECT_EQ(s.inputs_hit.value(),
              s.inputs_valid_at_spawn.value()
                  + s.inputs_same_later.value()
                  + s.inputs_df_correct.value());
}

TEST(IoRegFile, SpawnInputStormIsRepairedByFinalCheck)
{
    // Corrupt value-predicted inputs at spawn: the head-switch
    // comparison against the architectural registers must catch every
    // consumed wrong value and file recovery walks, so the run still
    // completes with a golden retirement stream (runWorkloadJob panics on
    // any mismatch).
    SimConfig cfg = SimConfig::dmt(4, 2);
    cfg.fault.enabled = true;
    cfg.fault.seed = 3;
    cfg.fault.rate[static_cast<int>(FaultSite::SpawnInput)] = 0.05;

    const RunResult r = runWorkloadJob(cfg, "gcc", 20000, {});
    EXPECT_GT(r.stats.recoveries.value(), 0u)
        << "a 5% spawn-input corruption rate must trigger recovery";
    EXPECT_GT(r.retired, 0u);
}

} // namespace
} // namespace dmt
