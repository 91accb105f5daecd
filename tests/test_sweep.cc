/**
 * @file
 * The parallel sweep scheduler's determinism contract: results come
 * back in submission order, bit-identical to the serial path for any
 * pool width — including under a seeded fault-injection storm — and a
 * job that dies with SimError becomes a failed cell without taking the
 * rest of the sweep down.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "cli/env.hh"
#include "common/json.hh"
#include "exp/experiments.hh"
#include "exp/sweep.hh"

namespace dmt
{
namespace
{

constexpr u64 kBudget = 8000;

const std::vector<std::string> &
someWorkloads()
{
    static const std::vector<std::string> w{"go", "li", "compress",
                                            "vortex"};
    return w;
}

/** Serial reference: plain runWorkloadJob(), no pool involved. */
std::vector<std::string>
serialJson(const SimConfig &cfg)
{
    std::vector<std::string> docs;
    for (const std::string &w : someWorkloads())
        docs.push_back(runWorkloadJob(cfg, w, kBudget, {}).jsonString());
    return docs;
}

std::vector<std::string>
pooledJson(const SimConfig &cfg, int pool)
{
    SweepRunner runner(pool);
    for (const std::string &w : someWorkloads())
        runner.add(cfg, w, kBudget);
    std::vector<std::string> docs;
    for (const SweepCell &cell : runner.run()) {
        EXPECT_TRUE(cell.ok) << cell.error;
        docs.push_back(cell.result.jsonString());
    }
    return docs;
}

TEST(Sweep, PoolMatchesSerialBitIdentical)
{
    const SimConfig cfg = SimConfig::dmt(4, 2);
    const auto serial = serialJson(cfg);
    const auto pooled = pooledJson(cfg, 4);
    ASSERT_EQ(serial.size(), pooled.size());
    for (size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], pooled[i]) << someWorkloads()[i];
}

TEST(Sweep, FaultStormStaysDeterministicAcrossPool)
{
    // A five-site injection storm with a pinned seed: the injection
    // stream is engine-local, so pool scheduling must not perturb it.
    SimConfig cfg = SimConfig::dmt(4, 2);
    cfg.fault.enabled = true;
    cfg.fault.seed = 7;
    cfg.fault.rateAll(0.02);

    const auto serial = serialJson(cfg);
    const auto pool4 = pooledJson(cfg, 4);
    const auto pool2 = pooledJson(cfg, 2);
    ASSERT_EQ(serial.size(), pool4.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i], pool4[i]) << someWorkloads()[i];
        EXPECT_EQ(pool4[i], pool2[i]) << someWorkloads()[i];
    }
}

TEST(Sweep, CellsComeBackInSubmissionOrder)
{
    // Mixed job sizes so completion order differs from submission
    // order under any real pool.
    SweepRunner runner(4);
    const std::vector<std::pair<std::string, u64>> jobs = {
        {"ijpeg", 20000}, {"go", 1000}, {"perl", 10000}, {"li", 500},
        {"gcc", 15000},   {"vortex", 2000},
    };
    for (const auto &[w, budget] : jobs)
        runner.add(SimConfig::dmt(4, 2), w, budget);
    const auto &cells = runner.run();
    ASSERT_EQ(cells.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(cells[i].ok) << cells[i].error;
        EXPECT_EQ(cells[i].result.workload, jobs[i].first);
        EXPECT_GE(cells[i].result.retired, jobs[i].second);
    }
}

TEST(Sweep, SimErrorBecomesFailedCellOthersKeepGoing)
{
    // watchdog_cycles=1 trips before the pipeline can retire its first
    // instruction — a guaranteed, deterministic SimError.
    SimConfig wedged = SimConfig::dmt(4, 2);
    wedged.watchdog_cycles = 1;

    SweepRunner runner(4);
    runner.add(SimConfig::dmt(4, 2), "go", kBudget);
    runner.add(wedged, "li", kBudget);
    runner.add(SimConfig::dmt(4, 2), "compress", kBudget);
    const auto &cells = runner.run();

    ASSERT_EQ(cells.size(), 3u);
    EXPECT_TRUE(cells[0].ok) << cells[0].error;
    EXPECT_FALSE(cells[1].ok);
    EXPECT_NE(cells[1].error.find("no retirement progress"),
              std::string::npos)
        << cells[1].error;
    EXPECT_TRUE(cells[2].ok) << cells[2].error;

    EXPECT_EQ(runner.stats().jobs_total, 3u);
    EXPECT_EQ(runner.stats().jobs_failed, 1u);
}

TEST(Sweep, StatsAggregateAcrossJobs)
{
    SweepRunner runner(2);
    for (const std::string &w : someWorkloads())
        runner.add(SimConfig::dmt(2, 2), w, 2000);
    const auto &cells = runner.run();

    u64 retired = 0;
    for (const SweepCell &cell : cells) {
        ASSERT_TRUE(cell.ok);
        EXPECT_GT(cell.wall_seconds, 0.0);
        retired += cell.result.retired;
    }
    const SweepStats &st = runner.stats();
    EXPECT_EQ(st.jobs_total, someWorkloads().size());
    EXPECT_EQ(st.jobs_failed, 0u);
    EXPECT_EQ(st.retired_total, retired);
    EXPECT_GT(st.wall_seconds, 0.0);
    EXPECT_GE(st.busy_seconds, 0.0);
    EXPECT_GT(st.throughput(), 0.0);

    JsonWriter w;
    st.jsonOn(w);
    EXPECT_NE(w.str().find("\"jobs_total\""), std::string::npos);
}

TEST(Sweep, RespectsDmtJobsEnv)
{
    setenv("DMT_JOBS", "3", 1);
    EXPECT_EQ(sweepJobs(), 3);
    SweepRunner runner(sweepJobs());
    EXPECT_EQ(runner.poolWidth(), 3);
    EXPECT_EQ(SweepRunner().poolWidth(), hardwareJobs())
        << "width 0 is the host's cores; the library reads no DMT_JOBS";
    unsetenv("DMT_JOBS");
    EXPECT_GE(sweepJobs(), 1);
}

TEST(Sweep, PoolClampsToJobCount)
{
    SweepRunner runner(16);
    runner.add(SimConfig::dmt(2, 2), "go", 500);
    const auto &cells = runner.run();
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_TRUE(cells[0].ok);
    EXPECT_EQ(runner.stats().pool_width, 1) << "1 job needs 1 worker";
}

} // namespace
} // namespace dmt
