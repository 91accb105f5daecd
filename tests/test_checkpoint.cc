/**
 * @file
 * Checkpointed fast-forward and interval sampling: the functional core
 * must be instruction-for-instruction equivalent to functionalStep(),
 * checkpoints must capture sparse memory exactly (including pages that
 * exist only because a speculative wild store touched them), a core or
 * detailed engine resumed from a checkpoint must continue exactly as
 * the straight run does, and a sampled run must print the same bytes
 * whatever the in-memory cache holds.  A checked-in sampled-run
 * signature (tests/golden/sampled_go.json, regenerated with
 * DMT_UPDATE_GOLDEN=1) pins the whole sampled pipeline.
 */

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cstdlib>
#include <sstream>
#include <string>

#include "cli/env.hh"
#include "common/log.hh"
#include "dmt/engine.hh"
#include "exp/sampled.hh"
#include "golden_file.hh"
#include "sim/checkpoint.hh"
#include "sim/functional.hh"
#include "sim/functional_core.hh"
#include "workloads/workloads.hh"

namespace dmt
{
namespace
{

TEST(MainMemoryCkpt, SparsePageExactEquality)
{
    MainMemory a;
    a.write32(0x1000, 0xdeadbeef);
    a.write8(0x7fff0001, 0x42);     // wild speculative store, high page
    a.write16(0xfffe0000, 0xbeef);  // near the top of the address space

    MainMemory b = a;
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.numPages(), b.numPages());

    b.write8(0x1000, 0xff);
    EXPECT_FALSE(a == b);

    // An allocated all-zero page is NOT the same as an absent page:
    // the sparse structure itself must round-trip.
    MainMemory c = a;
    c.write8(0x30000000, 0); // allocates a page, leaves it all zero
    EXPECT_FALSE(a == c);
    EXPECT_EQ(c.numPages(), a.numPages() + 1);
}

TEST(FunctionalCoreCkpt, MatchesFunctionalStepExactly)
{
    const Program prog = buildWorkload("go");
    constexpr u64 kSteps = 20000;

    // Reference: the per-step interpreter the golden checker uses.
    ArchState st;
    MainMemory mem;
    st.reset(prog);
    mem.loadProgram(prog);
    for (u64 i = 0; i < kSteps && !st.halted; ++i)
        functionalStep(st, mem, prog);

    // Batched core, exact-output mode so the vectors compare too.
    FunctionalCore core(prog, /*stream_output=*/false);
    core.run(kSteps);

    EXPECT_EQ(core.instrCount(), kSteps);
    EXPECT_EQ(core.state().pc, st.pc);
    EXPECT_EQ(core.state().halted, st.halted);
    EXPECT_EQ(core.state().regs, st.regs);
    EXPECT_EQ(core.state().output, st.output);
    EXPECT_EQ(core.state().out_count, st.out_count);
    EXPECT_EQ(core.state().out_hash, st.out_hash);
    EXPECT_TRUE(core.memory() == mem);
}

TEST(FunctionalCoreCkpt, FullProgramMatchesReference)
{
    const Program prog = buildWorkload("compress");

    ArchState st;
    MainMemory mem;
    st.reset(prog);
    mem.loadProgram(prog);
    const u64 ref_steps = runFunctional(st, mem, prog);

    FunctionalCore core(prog, /*stream_output=*/false);
    core.run(~u64{0});

    EXPECT_TRUE(core.halted());
    EXPECT_EQ(core.instrCount(), ref_steps);
    EXPECT_EQ(core.state().out_hash, st.out_hash);
    EXPECT_EQ(core.state().output, st.output);
    EXPECT_TRUE(core.memory() == mem);
}

TEST(CheckpointCkpt, RestoredCoreContinuesIdentically)
{
    const Program prog = buildWorkload("go");

    FunctionalCore straight(prog, /*stream_output=*/false);
    straight.run(80000);

    FunctionalCore hopped(prog, /*stream_output=*/false);
    hopped.run(30000);
    const Checkpoint ck = Checkpoint::capture(hopped);
    EXPECT_EQ(ck.instr_count, 30000u);
    EXPECT_EQ(ck.prog_hash, Checkpoint::programHash(prog));
    FunctionalCore resumed(prog, /*stream_output=*/false);
    resumed.restore(ck.state, ck.mem, ck.instr_count);
    resumed.run(50000);

    EXPECT_EQ(resumed.instrCount(), straight.instrCount());
    EXPECT_EQ(resumed.state().pc, straight.state().pc);
    EXPECT_EQ(resumed.state().regs, straight.state().regs);
    EXPECT_EQ(resumed.state().out_hash, straight.state().out_hash);
    EXPECT_TRUE(resumed.memory() == straight.memory());
}

TEST(EngineResume, GoldenCheckedWindowFromCheckpoint)
{
    const Program prog = buildWorkload("go");
    FunctionalCore core(prog);
    core.run(100000);
    ASSERT_FALSE(core.halted());
    const Checkpoint ck = Checkpoint::capture(core);

    SimConfig cfg = SimConfig::dmt(6, 2);
    cfg.max_retired = 3000;
    cfg.warmup_retired = 500;

    DmtEngine engine(cfg, prog, &ck);
    EXPECT_FALSE(engine.measurementActive());
    engine.run();

    // Every retired instruction inside the window was verified against
    // a golden model forked from the same checkpoint.
    EXPECT_TRUE(engine.goldenOk()) << engine.goldenError();
    EXPECT_EQ(engine.retiredTotal(), 3000u);
    EXPECT_TRUE(engine.measurementActive());
    // The stat block detached at the warmup boundary.  The boundary is
    // evaluated between cycles, so up to kRetireWidth-1 instructions of
    // the crossing cycle land on the warmup side.
    EXPECT_LE(engine.stats().retired.value(), 2500u);
    EXPECT_GE(engine.stats().retired.value(),
              2500u - static_cast<u64>(SimConfig::kRetireWidth) + 1);
    EXPECT_LT(engine.stats().cycles.value(), engine.now());
}

TEST(EngineResume, SameCheckpointTwiceIsBitIdentical)
{
    const Program prog = buildWorkload("m88ksim");
    FunctionalCore core(prog);
    core.run(60000);
    ASSERT_FALSE(core.halted());
    const Checkpoint ck = Checkpoint::capture(core);

    SimConfig cfg = SimConfig::dmt(6, 2);
    cfg.max_retired = 4000;
    cfg.warmup_retired = 1000;

    auto signature = [&]() {
        DmtEngine engine(cfg, prog, &ck);
        engine.run();
        EXPECT_TRUE(engine.goldenOk()) << engine.goldenError();
        std::ostringstream os;
        os << engine.stats().cycles.value() << ":"
           << engine.stats().retired.value() << ":"
           << engine.stats().threads_spawned.value() << ":"
           << engine.stats().squashed_insts.value() << ":"
           << engine.stats().recoveries.value() << ":" << engine.now();
        return os.str();
    };
    EXPECT_EQ(signature(), signature());
}

TEST(EngineResume, RejectsCheckpointOfAnotherProgram)
{
    // Resuming go's state inside m88ksim's image would run garbage; the
    // constructor refuses, whether it hashes the image itself or checks
    // against the hash its caller already holds.
    const Program go = buildWorkload("go");
    const Program other = buildWorkload("m88ksim");
    FunctionalCore core(go);
    core.run(20000);
    ASSERT_FALSE(core.halted());
    const Checkpoint ck = Checkpoint::capture(core);
    const SimConfig cfg = SimConfig::dmt(6, 2);

    auto expectRejected = [](const auto &construct) {
        try {
            construct();
            ADD_FAILURE() << "resume from another program's checkpoint";
        } catch (const SimError &e) {
            EXPECT_NE(e.message().find("different program"),
                      std::string::npos)
                << e.message();
        }
    };
    expectRejected([&] { DmtEngine engine(cfg, other, &ck); });
    expectRejected([&] {
        DmtEngine engine(cfg, other, &ck, Checkpoint::programHash(other));
    });
    // The passed hash stands for the program: the right one resumes.
    DmtEngine engine(cfg, go, &ck, Checkpoint::programHash(go));
    EXPECT_EQ(engine.retiredTotal(), 0u);
}

TEST(Sampled, DeterministicAcrossCacheStates)
{
    // Same sampled run with a cold cache, a warm cache, and a cache
    // cleared as a fresh process finds it: all three must be
    // bit-identical.
    SampleParams p;
    p.skip = 50000;
    p.warm = 500;
    p.measure = 1500;
    p.max_intervals = 4;
    const SimConfig cfg = SimConfig::dmt(6, 2);

    clearCheckpointCache();
    const RunResult cold = runWorkloadSampled(cfg, "go", p);
    const CheckpointCacheCounters after_cold = checkpointCacheCounters();
    const RunResult warm = runWorkloadSampled(cfg, "go", p);
    const CheckpointCacheCounters after_warm = checkpointCacheCounters();
    EXPECT_EQ(cold.jsonString(), warm.jsonString());
    EXPECT_EQ(cold.sampling.intervals, 4u);
    // Uniform windows keep no checkpoint in memory: the warm run walks
    // its own cursor again and rebuilds every window's checkpoint.
    EXPECT_EQ(after_warm.builds - after_cold.builds,
              warm.sampling.intervals);
    EXPECT_EQ(after_warm.mem_hits, 0u);
    EXPECT_GT(cold.sampling.covered, 200000u);
    EXPECT_GT(cold.sampling.functional_instr, cold.retired);
    // Timing-only telemetry: the cold run fast-forwarded through
    // translated, chained blocks.
    EXPECT_GT(cold.sampling.ff_blocks_translated, 0u);
    EXPECT_GT(cold.sampling.ff_chain_hits, 0u);

    clearCheckpointCache();
    clearPhaseCache();
    const RunResult fresh = runWorkloadSampled(cfg, "go", p);
    const CheckpointCacheCounters after_fresh = checkpointCacheCounters();
    clearCheckpointCache();
    EXPECT_EQ(cold.jsonString(), fresh.jsonString());
    EXPECT_EQ(after_fresh.builds, fresh.sampling.intervals);
    EXPECT_EQ(after_fresh.mem_hits, 0u);
}

TEST(Sampled, UniformRunHoldsNoCheckpointPerWindow)
{
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
    // A uniform run keeps only its latest checkpoint: heap in use
    // after hundreds of windows stays within a few checkpoints of
    // where it started, however many windows ran.
    SampleParams p;
    p.skip = 1000;
    p.warm = 100;
    p.measure = 200;
    const SimConfig cfg = SimConfig::dmt(2, 2);
    const Program prog = buildWorkload("compress");
    FunctionalCore core(prog);
    core.run(p.skip);
    const size_t ckpt_bytes =
        Checkpoint::capture(core).mem.numPages() * MainMemory::kPageSize;

    clearCheckpointCache();
    SampleParams one = p;
    one.max_intervals = 1;
    runWorkloadSampled(cfg, "compress", one); // warms the heap
    const auto heap_in_use = [] {
        const struct mallinfo2 mi = mallinfo2();
        return mi.uordblks + mi.hblkhd;
    };
    const size_t before = heap_in_use();
    const RunResult r = runWorkloadSampled(cfg, "compress", p);
    const size_t after = heap_in_use();
    clearCheckpointCache();

    ASSERT_TRUE(r.completed);
    ASSERT_GE(r.sampling.intervals, 200u);
    EXPECT_LT(after, before + 4 * ckpt_bytes)
        << "heap grew " << (after - before) << " bytes over "
        << r.sampling.intervals << " windows of " << ckpt_bytes
        << "-byte checkpoints";
#else
    GTEST_SKIP() << "needs glibc's mallinfo2()";
#endif
}

TEST(Sampled, CoversWholeProgramAndStopsAtHalt)
{
    SampleParams p;
    p.skip = 40000;
    p.warm = 500;
    p.measure = 1500;
    const SimConfig cfg = SimConfig::dmt(6, 2);

    clearCheckpointCache();
    const RunResult r = runWorkloadSampled(cfg, "compress", p);
    EXPECT_TRUE(r.completed);
    // compress runs ~282k instructions; coverage must reach HALT.
    EXPECT_GT(r.sampling.covered, 250000u);
    EXPECT_GT(r.sampling.intervals, 3u);
    EXPECT_DOUBLE_EQ(
        r.ipc,
        static_cast<double>(r.retired) / static_cast<double>(r.cycles));
    EXPECT_GT(r.sampling.cpi_mean, 0.0);
    EXPECT_GE(r.sampling.cpi_ci95, 0.0);
    clearCheckpointCache();
}

TEST(Sampled, RunThatMeasuresNothingFails)
{
    // gen:prodcons:3 HALTs after 450 instructions: before the first
    // uniform window at 20000, and inside the warm-up of the one phase
    // window at 0.  Neither run has a CPI to report.
    const SimConfig cfg = SimConfig::dmt(6, 2);
    for (const char *spec : {"20000:500:1500", "phase:20000:500:1500"}) {
        SampleParams p;
        std::string err;
        ASSERT_TRUE(SampleParams::parse(spec, &p, &err)) << err;
        clearCheckpointCache();
        try {
            runWorkloadSampled(cfg, "gen:prodcons:3", p);
            ADD_FAILURE() << spec << ": a run that measured nothing "
                                     "must fail";
        } catch (const SimError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("gen:prodcons:3"), std::string::npos)
                << what;
            EXPECT_NE(what.find("after 450 instructions"),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find(p.phaseMode() ? "(at 0)" : "(at 20000)"),
                      std::string::npos)
                << what;
        }
    }
    clearCheckpointCache();
}

TEST(Sampled, GoldenSignature)
{
    // Pin the whole sampled pipeline — functional fast-forward,
    // checkpoint capture, engine resume, warmup detach, stat merge —
    // to a checked-in canonical JSON document.  Regenerate with
    // DMT_UPDATE_GOLDEN=1 after intentional behaviour changes.
    SampleParams p;
    p.skip = 50000;
    p.warm = 500;
    p.measure = 1500;
    p.max_intervals = 5;

    clearCheckpointCache();
    const RunResult r =
        runWorkloadSampled(SimConfig::dmt(6, 2), "go", p);
    clearCheckpointCache();
    checkGoldenBytes(std::string(DMT_GOLDEN_DIR) + "/sampled_go.json",
                     r.jsonString() + "\n");
}

TEST(Sampled, GeneratedFamilyCpiBracketsFullDetail)
{
    // A long generated loop nest (~hundreds of thousands of
    // instructions) run twice: once full-detail, once interval
    // sampled.  The sampled CPI estimate must bracket the full-detail
    // CPI within its own 95% confidence interval (plus a small
    // absolute guard for the warmup-boundary bias of short windows) —
    // the agreement contract that makes sampled family sweeps
    // trustworthy.
    const std::string spec = "gen:loopnest:21:trips=200:units=48";
    const SimConfig cfg = SimConfig::dmt(6, 2);

    clearCheckpointCache();
    const RunResult full = runWorkloadJob(cfg, spec, 2000000, {});
    ASSERT_TRUE(full.completed);
    ASSERT_GT(full.retired, 200000u) << "workload too short to sample";
    const double full_cpi = static_cast<double>(full.cycles) /
                            static_cast<double>(full.retired);

    SampleParams p;
    p.skip = 20000;
    p.warm = 500;
    p.measure = 2000;

    clearCheckpointCache();
    const RunResult s = runWorkloadSampled(cfg, spec, p);
    clearCheckpointCache();
    ASSERT_TRUE(s.completed);
    EXPECT_GE(s.sampling.intervals, 5u);
    EXPECT_GE(s.sampling.covered, full.retired);
    ASSERT_GT(s.sampling.cpi_mean, 0.0);

    EXPECT_NEAR(s.sampling.cpi_mean, full_cpi,
                s.sampling.cpi_ci95 + 0.03)
        << "sampled CPI " << s.sampling.cpi_mean << " +- "
        << s.sampling.cpi_ci95 << " does not bracket full-detail CPI "
        << full_cpi;
}

TEST(Sampled, EnvKnobParsing)
{
    setenv("DMT_SAMPLE", "1000:200:300", 1);
    SampleParams p = sampleParamsFromEnv();
    EXPECT_TRUE(p.enabled());
    EXPECT_EQ(p.skip, 1000u);
    EXPECT_EQ(p.warm, 200u);
    EXPECT_EQ(p.measure, 300u);
    EXPECT_EQ(p.max_intervals, 0u);

    setenv("DMT_SAMPLE", "1000:200:300:7", 1);
    p = sampleParamsFromEnv();
    EXPECT_EQ(p.max_intervals, 7u);

    unsetenv("DMT_SAMPLE");
    EXPECT_FALSE(sampleParamsFromEnv().enabled());
}

} // namespace
} // namespace dmt
