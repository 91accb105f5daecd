/**
 * @file
 * The service under network fire: a seeded FaultNetProxy (refusals,
 * garbled bytes, torn chunks, mid-reply disconnects, stalls) between a
 * retrying client and a live daemon.  The contract under test is the
 * robustness headline — every reply that survives the storm is
 * byte-identical to a direct run, and the daemon itself never dies —
 * plus the proxy's own sanity (transparent at rate 0, total at rate 1).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "exp/runner.hh"
#include "exp/sampled.hh"
#include "serve/client.hh"
#include "serve/faultnet.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "uarch/config.hh"

namespace dmt
{
namespace
{

constexpr u64 kBudget = 2000;

JobSpec
cellJob(const std::string &workload)
{
    JobSpec job;
    job.workload = workload;
    job.cfg = SimConfig::dmt(2, 2);
    job.cfg.max_retired = kBudget;
    job.max_retired = kBudget;
    return job;
}

class FaultNetFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ServeOptions opts;
        opts.port = 0;
        opts.pool = 2;
        opts.cache_entries = 64;
        opts.drain_s = 10.0;
        server = std::make_unique<Server>(opts);
        std::string err;
        ASSERT_TRUE(server->start(&err)) << err;
    }

    std::unique_ptr<FaultNetProxy>
    makeProxy(double rate, u64 seed, u64 stall_ms = 2)
    {
        FaultNetOptions fo;
        fo.upstream_port = server->port();
        fo.rate = rate;
        fo.seed = seed;
        fo.stall_ms = stall_ms;
        auto proxy = std::make_unique<FaultNetProxy>(fo);
        std::string err;
        EXPECT_TRUE(proxy->start(&err)) << err;
        return proxy;
    }

    std::unique_ptr<Server> server;
};

TEST_F(FaultNetFixture, RateZeroIsTransparent)
{
    auto proxy = makeProxy(0.0, 1);
    ServeClient c;
    std::string err;
    ASSERT_TRUE(c.connect(proxy->port(), &err, 2.0)) << err;

    const JobSpec job = cellJob("go");
    JsonValue reply;
    std::string raw;
    ASSERT_TRUE(c.request(runRequestLine(1, job), &reply, &err)) << err;
    ASSERT_TRUE(reply.find("ok")->asBool()) << c.lastLine();
    ASSERT_TRUE(extractRawResult(c.lastLine(), &raw));
    const RunResult direct =
        runWorkloadJob(job.cfg, job.workload, job.max_retired, job.sample);
    EXPECT_EQ(raw, direct.jsonString())
        << "a fault-free proxy must be invisible";
    const auto ctr = proxy->counters();
    EXPECT_EQ(ctr.faults(), 0u);
    EXPECT_GE(ctr.chunks, 2u);
    proxy->stop();
}

TEST_F(FaultNetFixture, RateOneRefusesEverythingAndRetryGivesUp)
{
    auto proxy = makeProxy(1.0, 2);
    ServeClient c;
    RetryPolicy pol;
    pol.attempts = 4;
    pol.base_s = 0.005;
    pol.max_s = 0.02;
    pol.op_timeout_s = 0.5;
    JsonValue reply;
    std::string err;
    EXPECT_FALSE(c.requestWithRetry(proxy->port(),
                                    simpleRequestLine("ping", 1), 1,
                                    pol, &reply, &err))
        << "a dead network must surface as a bounded failure";
    EXPECT_EQ(proxy->counters().refused, proxy->counters().connections);
    proxy->stop();

    // The daemon behind the dead proxy never noticed a thing.
    ServeClient direct;
    ASSERT_TRUE(direct.connect(server->port(), &err, 2.0)) << err;
    ASSERT_TRUE(direct.request(simpleRequestLine("ping", 2), &reply,
                               &err))
        << err;
    EXPECT_TRUE(reply.find("ok")->asBool());
}

TEST_F(FaultNetFixture, StormSurvivorsAreByteIdenticalAndDaemonLives)
{
    // Ground truth, computed directly (and warming the daemon's cache
    // through a clean connection so the storm mostly replays cells —
    // the contract must hold for cached and fresh replies alike).
    const std::vector<std::string> cells = {"go", "compress", "li"};
    std::vector<std::string> direct(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        const JobSpec job = cellJob(cells[i]);
        direct[i] = runWorkloadJob(job.cfg, job.workload,
                                   job.max_retired, job.sample)
                        .jsonString();
    }

    auto proxy = makeProxy(0.08, 0x5709, 2);
    ServeClient c;
    RetryPolicy pol;
    pol.attempts = 40;
    pol.base_s = 0.002;
    pol.max_s = 0.02;
    pol.op_timeout_s = 2.0;
    pol.seed = 0xfeed;

    // Keep firing the grid through the proxy until the storm has
    // produced at least 10k fault-decision events (every accepted
    // connection and every forwarded chunk draws one), with a hard
    // iteration cap as a runaway guard.
    constexpr u64 kEvents = 10000;
    constexpr int kMaxIters = 40000;
    u64 answered = 0;
    std::string err;
    int it = 0;
    for (; it < kMaxIters; ++it) {
        const auto ctr = proxy->counters();
        if (ctr.connections + ctr.chunks >= kEvents)
            break;
        const size_t cell = static_cast<size_t>(it) % cells.size();
        const i64 id = it + 1;
        JsonValue reply;
        ASSERT_TRUE(c.requestWithRetry(
            proxy->port(), runRequestLine(id, cellJob(cells[cell])),
            id, pol, &reply, &err))
            << "iteration " << it << ": " << err;
        ASSERT_TRUE(reply.find("ok")->asBool()) << c.lastLine();
        std::string raw;
        ASSERT_TRUE(extractRawResult(c.lastLine(), &raw));
        ASSERT_EQ(raw, direct[cell])
            << "iteration " << it
            << ": a survivor reply must be byte-identical to a direct "
               "run";
        ++answered;
    }
    const auto ctr = proxy->counters();
    EXPECT_GE(ctr.connections + ctr.chunks, kEvents)
        << "the storm must actually reach 10k events (iterations: "
        << it << ")";
    EXPECT_GT(ctr.faults(), 0u) << "a storm with no faults proves "
                                   "nothing";
    EXPECT_GT(answered, 0u);
    proxy->stop();

    // The daemon never exited: a clean direct connection still gets
    // correct, byte-identical answers and coherent stats.
    ServeClient direct_c;
    ASSERT_TRUE(direct_c.connect(server->port(), &err, 2.0)) << err;
    JsonValue reply;
    ASSERT_TRUE(direct_c.request(runRequestLine(1, cellJob("go")),
                                 &reply, &err))
        << err;
    ASSERT_TRUE(reply.find("ok")->asBool());
    std::string raw;
    ASSERT_TRUE(extractRawResult(direct_c.lastLine(), &raw));
    EXPECT_EQ(raw, direct[0]);
    // Retries replay the cache; they must never re-simulate.  A request
    // the proxy garbled into a different valid job is simulated as
    // that job (the client drops its reply on the "req" echo), so the
    // check is that no job was simulated twice, not a fixed count.
    for (size_t i = 0; i < cells.size(); ++i) {
        ASSERT_TRUE(direct_c.request(
            runRequestLine(static_cast<i64>(10 + i), cellJob(cells[i])),
            &reply, &err))
            << err;
        EXPECT_TRUE(reply.find("cached")->asBool()) << cells[i];
    }
    ASSERT_TRUE(direct_c.request(simpleRequestLine("stats", 2), &reply,
                                 &err))
        << err;
    EXPECT_TRUE(reply.find("ok")->asBool());
    const JsonValue &stats = *reply.find("stats");
    const JsonValue &cache = *stats.find("cache");
    EXPECT_EQ(cache.find("evictions")->asNumber(), 0.0);
    EXPECT_EQ(stats.find("jobs_simulated")->asNumber(),
              cache.find("entries")->asNumber())
        << "a retry re-simulated a job the cache already held";
}

} // namespace
} // namespace dmt
