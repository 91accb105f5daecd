/**
 * @file
 * Experiment-layer tests: the per-figure machine configurations encode
 * exactly the parameters the paper states (these tests are the
 * machine-readable form of Section 4's methodology), plus the runner
 * and table renderer.
 */

#include <gtest/gtest.h>

#include "cli/env.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/strutil.hh"
#include "dmt/engine.hh"
#include "exp/experiments.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "workloads/workloads.hh"

namespace dmt
{
namespace
{

TEST(PaperConfig, BaselineMachine)
{
    // "a 4-wide superscalar with a 128-instruction window"
    const SimConfig c = exp::baseline();
    EXPECT_EQ(c.max_threads, 1);
    EXPECT_EQ(c.fetch_ports, 1);
    EXPECT_EQ(SimConfig::kFetchBlock, 4);
    EXPECT_EQ(SimConfig::kWindowSize, 128);
    EXPECT_EQ(SimConfig::kRetireWidth, 4);
    EXPECT_TRUE(c.unlimited_fus);
    EXPECT_FALSE(c.isDmt());
}

TEST(PaperConfig, CacheHierarchy)
{
    // "16KB 2-way set associative instruction and data caches and a
    //  256KB 4-way set associative L2 cache. L1 miss penalty is 4
    //  cycles, and an L2 miss costs additional 20 cycles."
    const MemHierarchy h(exp::baseline().mem);
    EXPECT_EQ(h.l1i().params().size_bytes, 16u * 1024);
    EXPECT_EQ(h.l1i().params().assoc, 2u);
    EXPECT_EQ(h.l1d().params().size_bytes, 16u * 1024);
    EXPECT_EQ(h.l1d().params().assoc, 2u);
    EXPECT_EQ(h.l2().params().size_bytes, 256u * 1024);
    EXPECT_EQ(h.l2().params().assoc, 4u);
    EXPECT_EQ(MemHierarchy::kL1MissPenalty, 4u);
    EXPECT_EQ(MemHierarchy::kL2MissPenalty, 20u);
}

TEST(PaperConfig, Figure4Machine)
{
    // "two fetch ports and two rename units ... trace buffer size is
    //  500 instructions per thread ... trace buffer pipeline is 4
    //  cycles long ... window size 128"
    const SimConfig c = exp::fig4Dmt(6);
    EXPECT_EQ(c.max_threads, 6);
    EXPECT_EQ(c.fetch_ports, 2);
    EXPECT_EQ(SimConfig::kWindowSize, 128);
    EXPECT_EQ(c.tb_size, 500);
    EXPECT_EQ(c.tb_latency, 4);
    EXPECT_TRUE(c.unlimited_fus);
}

TEST(PaperConfig, Figure6ExecutionUnits)
{
    // "4 ALUs, 2 of which are used for address calculations, and 1
    //  multiply/divide unit. Two load and/or store instructions can be
    //  issued to the DCache every cycle. The latencies are 1 cycle for
    //  the ALU, 3 for multiply, 20 for divide, and 3 cycles for a load"
    const SimConfig c = exp::fig6Dmt(6, true);
    EXPECT_FALSE(c.unlimited_fus);
    EXPECT_EQ(FuPool::kAlus, 4);
    EXPECT_EQ(FuPool::kMulDivUnits, 1);
    EXPECT_EQ(FuPool::kMemPorts, 2);
    EXPECT_EQ(FuPool::kAluLatency, 1u);
    EXPECT_EQ(FuPool::kMulLatency, 3u);
    EXPECT_EQ(FuPool::kDivLatency, 20u);
    EXPECT_EQ(SimConfig::kLoadLatency, 3u);
    // "we have assumed additional 2 cycles of latency for loads that
    //  hit stores in other thread queues"
    EXPECT_EQ(DmtEngine::kCrossThreadForwardLatency, 2u);
}

TEST(PaperConfig, FigureSweeps)
{
    EXPECT_EQ(exp::fig5Dmt(4).fetch_ports, 4);
    EXPECT_EQ(exp::fig5Dmt(4).max_threads, 4);
    EXPECT_EQ(exp::fig7Dmt(200).tb_size, 200);
    EXPECT_EQ(exp::fig7Dmt(200).max_threads, 6);
    EXPECT_EQ(exp::fig89Dmt().max_threads, 6);
    EXPECT_FALSE(exp::fig10Dmt(false).dataflow_prediction);
    EXPECT_TRUE(exp::fig10Dmt(true).dataflow_prediction);
    EXPECT_EQ(exp::fig12Dmt(6).tb_read_block, 6);
    EXPECT_EQ(exp::fig12Dmt(0).tb_read_block, 0) << "ideal queue";
    EXPECT_EQ(exp::fig13Dmt(16).tb_latency, 16);
}

TEST(PaperConfig, EveryBenchMachineHasItsOwnDocument)
{
    // The config document (and so the daemon's result key) must name
    // every setting a bench varies: two bench machines that share a
    // canonical hash are the same machine.
    std::vector<std::pair<std::string, SimConfig>> m;
    const auto add = [&](std::string name, SimConfig c) {
        m.emplace_back(std::move(name), std::move(c));
    };
    for (bool real : {false, true}) {
        add(strprintf("baseline(%d)", real), exp::baseline(real));
        for (int t : {4, 6})
            add(strprintf("fig6Dmt(%d,%d)", t, real), exp::fig6Dmt(t, real));
        add(strprintf("fig10Dmt(%d)", real), exp::fig10Dmt(real));
    }
    for (int t = 1; t <= 8; ++t)
        add(strprintf("fig4Dmt(%d)", t), exp::fig4Dmt(t));
    for (int p : {1, 2, 4})
        add(strprintf("fig5Dmt(%d)", p), exp::fig5Dmt(p));
    for (int tb : {25, 50, 100, 200, 500})
        add(strprintf("fig7Dmt(%d)", tb), exp::fig7Dmt(tb));
    add("fig89Dmt", exp::fig89Dmt());
    SimConfig small = exp::fig89Dmt();
    small.mem.l1i_bytes = 512;
    small.mem.l2_bytes = 4 * 1024;
    add("fig09-512B", small);
    add("fig11Dmt", exp::fig11Dmt());
    for (int b : {0, 2, 4, 6})
        add(strprintf("fig12Dmt(%d)", b), exp::fig12Dmt(b));
    for (int l : {2, 4, 8, 16})
        add(strprintf("fig13Dmt(%d)", l), exp::fig13Dmt(l));
    // The bench_ablation columns.
    const SimConfig dmt42 = SimConfig::dmt(4, 2);
    add("default", dmt42);
    SimConfig c = dmt42;
    c.early_divergence_repair = false;
    add("late-div", c);
    c = dmt42;
    c.dataflow_sync = true;
    add("df-sync", c);
    c = dmt42;
    c.memdep_sync = false;
    add("no-memdep", c);
    c = dmt42;
    c.recovery_fetch_stall = 2;
    c.recovery_dispatch_stall = 2;
    add("stall-all", c);
    c = dmt42;
    c.spawn_on_loop = false;
    add("calls-only", c);
    c = dmt42;
    c.spawn_on_call = false;
    add("loops-only", c);

    for (size_t i = 0; i < m.size(); ++i) {
        for (size_t j = i + 1; j < m.size(); ++j) {
            if (canonicalHash(m[i].second) == canonicalHash(m[j].second)) {
                EXPECT_TRUE(m[i].second == m[j].second)
                    << m[i].first << " and " << m[j].first
                    << " share a config document";
            }
        }
    }
}

TEST(PaperConfig, ValidationCatchesNonsense)
{
    EXPECT_EQ(exp::baseline().validate(), "");
    SimConfig c = exp::baseline();
    c.max_threads = 0;
    EXPECT_NE(c.validate().find("max_threads"), std::string::npos);
    SimConfig c2 = exp::baseline();
    c2.tb_size = 2;
    EXPECT_NE(c2.validate().find("tb_size"), std::string::npos);

    // The engine throws SimError with the first violated rule; the
    // library never exits the process.
    const Program prog = buildWorkload("go");
    try {
        DmtEngine e(c, prog);
        ADD_FAILURE() << "an invalid config must not build an engine";
    } catch (const SimError &err) {
        EXPECT_EQ(err.what(), c.validate());
    }
}

TEST(Runner, RespectsBudget)
{
    const RunResult r = runWorkloadJob(exp::baseline(), "go", 5000, {});
    EXPECT_GE(r.retired, 5000u);
    EXPECT_LT(r.retired, 5200u);
    EXPECT_FALSE(r.completed);
    EXPECT_GT(r.ipc, 0.0);
}

TEST(Runner, MergeAddsEveryStat)
{
    // Sampled runs sum their windows through DmtStats::merge(): every
    // reported stat must merge, or a sampled run would report one
    // window's value for it.
    const RunResult r = runWorkloadJob(exp::fig4Dmt(6), "gcc", 5000, {});
    RunResult twice = r;
    twice.stats.merge(r.stats);
    JsonValue once, doubled;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(r.jsonString(), &once, &err)) << err;
    ASSERT_TRUE(JsonValue::parse(twice.jsonString(), &doubled, &err));
    const JsonValue *a = once.find("stats");
    const JsonValue *b = doubled.find("stats");

    for (const auto &[name, v] : a->find("counters")->members()) {
        EXPECT_EQ(b->find("counters")->find(name)->asNumber(),
                  2 * v.asNumber())
            << name;
    }
    for (const auto &[name, v] : a->find("averages")->members()) {
        const JsonValue *d = b->find("averages")->find(name);
        EXPECT_DOUBLE_EQ(d->find("mean")->asNumber(),
                         v.find("mean")->asNumber())
            << name;
        EXPECT_EQ(d->find("count")->asNumber(),
                  2 * v.find("count")->asNumber())
            << name;
    }
    for (const auto &[name, v] : a->find("histograms")->members()) {
        EXPECT_EQ(b->find("histograms")->find(name)->find("total")
                      ->asNumber(),
                  2 * v.find("total")->asNumber())
            << name;
    }
}

TEST(Runner, SpeedupMath)
{
    RunResult base;
    base.cycles = 2000;
    base.retired = 1000;
    RunResult twice;
    twice.cycles = 1000;
    twice.retired = 1000;
    EXPECT_NEAR(speedupPct(base, twice), 100.0, 1e-9);
    EXPECT_NEAR(speedupPct(base, base), 0.0, 1e-9);
    // Different retired counts compare cycles-per-instruction.
    RunResult half_work;
    half_work.cycles = 1000;
    half_work.retired = 500;
    EXPECT_NEAR(speedupPct(base, half_work), 0.0, 1e-9);
}

TEST(Runner, DefaultLengthOverridableByEnv)
{
    // No env in tests: default applies.
    EXPECT_GT(benchRunLength(), 0u);
}

TEST(Report, RendersTable)
{
    Report rep("Figure X: demo", "a note");
    rep.columns({"workload", "a", "b"});
    rep.row("go", {1.25, -3.5});
    rep.row("li", {2.75, 0.5});
    rep.averageRow();
    const std::string out = rep.render();
    EXPECT_NE(out.find("Figure X: demo"), std::string::npos);
    EXPECT_NE(out.find("a note"), std::string::npos);
    EXPECT_NE(out.find("go"), std::string::npos);
    EXPECT_NE(out.find("1.25"), std::string::npos);
    EXPECT_NE(out.find("-3.50"), std::string::npos);
    EXPECT_NE(out.find("average"), std::string::npos);
    EXPECT_NE(out.find("2.00"), std::string::npos) << "mean of col a";
}

TEST(Report, AverageIgnoresPriorAverages)
{
    Report rep("t", "");
    rep.columns({"w", "x"});
    rep.row("r1", {2.0});
    rep.averageRow("avg1");
    rep.row("r2", {4.0});
    rep.averageRow("avg2");
    const std::string out = rep.render();
    // avg2 must be mean(2,4) = 3, not influenced by avg1.
    EXPECT_NE(out.find("3.00"), std::string::npos);
}

} // namespace
} // namespace dmt
