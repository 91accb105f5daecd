/**
 * @file
 * Phase-aware sampling: BBV collection must be a pure function of the
 * architectural instruction stream (bit-identical to a functionalStep()
 * reference and across any run() chunking), seeded k-means must be
 * reproducible and well-defined on degenerate inputs, the phase-sampled
 * pipeline must be deterministic across cache states and must agree
 * with full-detail CPI, and a checked-in signature
 * (tests/golden/phase_go.json, regenerated with DMT_UPDATE_GOLDEN=1)
 * pins the whole thing.  A live daemon round-trip proves phase-spec
 * jobs inherit the serve layer's byte-identity contract.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "common/log.hh"
#include "exp/phase.hh"
#include "exp/runner.hh"
#include "exp/sampled.hh"
#include "exp/sweep.hh"
#include "golden_file.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/bbv.hh"
#include "sim/functional.hh"
#include "uarch/config.hh"
#include "workloads/workloads.hh"

namespace dmt
{
namespace
{

/** The phase spec used by the determinism/golden/daemon tests. */
SampleParams
phaseParams(const std::string &spec)
{
    SampleParams p;
    std::string err;
    EXPECT_TRUE(SampleParams::parse(spec, &p, &err)) << err;
    EXPECT_TRUE(p.phaseMode());
    return p;
}

void
clearAllCaches()
{
    clearCheckpointCache();
    clearPhaseCache();
}

// ---- BbvCollector unit contract ----------------------------------------

TEST(BbvCollector, SplitsRegionsAcrossIntervalBoundaries)
{
    // interval 10, text of 100 instructions.  Stream: 4 instructions
    // from entry (key 0), taken transfer to text index 10; 8 more under
    // key 10 (crossing the boundary at position 10); transfer to index
    // 2; 3 trailing instructions flushed at a budget stop.
    BbvCollector bbv(10, 100, Program::kTextBase);
    bbv.transfer(Program::kTextBase + 40, 4);
    bbv.transfer(Program::kTextBase + 8, 8);
    bbv.flush(3);
    bbv.finish();
    EXPECT_EQ(bbv.position(), 15u);

    const auto &ivs = bbv.intervals();
    ASSERT_EQ(ivs.size(), 2u);
    EXPECT_EQ(ivs[0].instrs, 10u);
    const std::vector<std::pair<u32, u64>> want0{{0, 4}, {10, 6}};
    EXPECT_EQ(ivs[0].counts, want0);
    // Trailing partial interval: 2 instructions finishing the key-10
    // region plus the 3 flushed under key 2, sorted by block index.
    EXPECT_EQ(ivs[1].instrs, 5u);
    const std::vector<std::pair<u32, u64>> want1{{2, 3}, {10, 2}};
    EXPECT_EQ(ivs[1].counts, want1);
}

TEST(BbvCollector, OffTextAndMisalignedTargetsShareTheSentinel)
{
    BbvCollector bbv(100, 50, Program::kTextBase);
    bbv.transfer(Program::kTextBase + 2, 5);      // misaligned
    bbv.flush(1);
    bbv.transfer(Program::kTextBase + 4 * 200, 2); // past the text
    bbv.flush(1);
    bbv.finish();

    const auto &ivs = bbv.intervals();
    ASSERT_EQ(ivs.size(), 1u);
    EXPECT_EQ(ivs[0].instrs, 9u);
    // Both bad targets land in the one sentinel bucket (== text size).
    const std::vector<std::pair<u32, u64>> want{{0, 5}, {50, 4}};
    EXPECT_EQ(ivs[0].counts, want);
}

TEST(BbvCollector, ChunkedReportingIsInvariant)
{
    // The same region reported as one flush or many partial flushes
    // must produce identical vectors — the property that makes run()
    // chunking and budget stops invisible.
    BbvCollector one(7, 20, Program::kTextBase);
    one.transfer(Program::kTextBase + 12, 9);
    one.flush(5);
    one.finish();

    BbvCollector many(7, 20, Program::kTextBase);
    many.transfer(Program::kTextBase + 12, 9);
    many.flush(2);
    many.flush(0);
    many.flush(3);
    many.finish();

    EXPECT_EQ(one.intervals(), many.intervals());
}

// ---- BBV collection on real workloads ----------------------------------

/** The sim/bbv.hh contract computed from the oracle: step
 *  functionalStep() and report every taken control transfer. */
std::vector<IntervalBbv>
referenceBbvs(const Program &prog, u64 interval_len, u64 budget,
              u64 *covered, bool *completed)
{
    ArchState st;
    MainMemory mem;
    st.reset(prog);
    mem.loadProgram(prog);
    BbvCollector bbv(interval_len, prog.text.size(), prog.entry);
    u64 done = 0;
    u64 since = 0; // instructions since the last region boundary
    while (done < budget && !st.halted) {
        if (!prog.validTextAddr(st.pc)) {
            functionalStep(st, mem, prog); // halts, executes nothing
            break;
        }
        const Instruction &inst = prog.fetch(st.pc);
        const bool taken = inst.isCondBranch()
            ? branchTaken(inst, st.reg(inst.rs), st.reg(inst.rt))
            : inst.isJump();
        const StepResult r = functionalStep(st, mem, prog);
        ++done;
        ++since;
        if (taken) {
            bbv.transfer(r.next_pc, since);
            since = 0;
        }
    }
    bbv.flush(since);
    bbv.finish();
    *covered = done;
    *completed = st.halted;
    return bbv.takeIntervals();
}

TEST(Bbv, CrossEngineBitIdentity)
{
    const Program prog = buildWorkload("go");
    constexpr u64 kInterval = 10000;
    constexpr u64 kBudget = 200000;

    u64 cov_t = 0, cov_r = 0;
    bool done_t = false, done_r = false;
    const std::vector<IntervalBbv> t =
        collectBbvs(prog, kInterval, kBudget, &cov_t, &done_t);
    const std::vector<IntervalBbv> r =
        referenceBbvs(prog, kInterval, kBudget, &cov_r, &done_r);

    EXPECT_EQ(cov_t, cov_r);
    EXPECT_EQ(done_t, done_r);
    ASSERT_EQ(t.size(), r.size());
    for (size_t n = 0; n < t.size(); ++n)
        EXPECT_TRUE(t[n] == r[n]) << "interval " << n
                                  << " differs from the reference";

    // Reruns are bit-identical too.
    EXPECT_TRUE(t == collectBbvs(prog, kInterval, kBudget));
}

TEST(Bbv, IntervalsPartitionTheStream)
{
    const Program prog = buildWorkload("go");
    // Deliberately odd interval length and budget: every interval but
    // the last must be exactly full, and the totals must tile the
    // covered stream with no gaps or double counting.
    u64 covered = 0;
    const std::vector<IntervalBbv> bbvs =
        collectBbvs(prog, 7321, 123457, &covered);
    ASSERT_FALSE(bbvs.empty());
    u64 sum = 0;
    for (size_t n = 0; n < bbvs.size(); ++n) {
        if (n + 1 < bbvs.size()) {
            EXPECT_EQ(bbvs[n].instrs, 7321u) << "interval " << n;
        }
        u64 iv_sum = 0;
        for (const auto &[block, count] : bbvs[n].counts) {
            EXPECT_LE(block, prog.text.size());
            EXPECT_GT(count, 0u);
            iv_sum += count;
        }
        EXPECT_EQ(iv_sum, bbvs[n].instrs);
        sum += bbvs[n].instrs;
    }
    EXPECT_EQ(sum, covered);
    EXPECT_EQ(covered, 123457u) << "go runs past this budget";
}

// ---- seeded clustering -------------------------------------------------

PhaseParams
params(u64 interval, u64 max_k = 8, u64 dims = 16, u64 seed = 42)
{
    PhaseParams p;
    p.interval = interval;
    p.max_k = max_k;
    p.dims = dims;
    p.seed = seed;
    return p;
}

TEST(PhaseCluster, SeededRunsAreReproducible)
{
    const Program prog = buildWorkload("go");
    const std::vector<IntervalBbv> bbvs =
        collectBbvs(prog, 10000, 200000);
    ASSERT_GE(bbvs.size(), 10u);

    const PhaseAnalysis a = clusterPhases(bbvs, params(10000));
    const PhaseAnalysis b = clusterPhases(bbvs, params(10000));
    EXPECT_EQ(a.k, b.k);
    EXPECT_EQ(a.assignment, b.assignment);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (size_t n = 0; n < a.phases.size(); ++n) {
        EXPECT_EQ(a.phases[n].rep, b.phases[n].rep);
        EXPECT_EQ(a.phases[n].members, b.phases[n].members);
        EXPECT_DOUBLE_EQ(a.phases[n].weight, b.phases[n].weight);
    }
}

TEST(PhaseCluster, ResultIsWellFormedForAnySeed)
{
    const Program prog = buildWorkload("go");
    const std::vector<IntervalBbv> bbvs =
        collectBbvs(prog, 10000, 200000);

    for (const u64 seed : {u64{7}, u64{42}, u64{12345}}) {
        const PhaseAnalysis pa =
            clusterPhases(bbvs, params(10000, 8, 16, seed));
        ASSERT_GE(pa.k, 1u);
        EXPECT_LE(pa.k, 8u);
        ASSERT_EQ(pa.assignment.size(), bbvs.size());
        ASSERT_EQ(pa.phases.size(), pa.k);
        double weight_sum = 0.0;
        u64 members_sum = 0;
        u64 prev_rep = 0;
        for (size_t n = 0; n < pa.phases.size(); ++n) {
            const PhaseInfo &ph = pa.phases[n];
            EXPECT_EQ(ph.id, n);
            if (n > 0) {
                EXPECT_GT(ph.rep, prev_rep)
                    << "ids must be dense in rep order";
            }
            prev_rep = ph.rep;
            ASSERT_LT(ph.rep, bbvs.size());
            EXPECT_EQ(pa.assignment[ph.rep], ph.id)
                << "a representative belongs to its own phase";
            EXPECT_GT(ph.members, 0u);
            weight_sum += ph.weight;
            members_sum += ph.members;
        }
        EXPECT_NEAR(weight_sum, 1.0, 1e-9);
        EXPECT_EQ(members_sum, bbvs.size());
    }
}

TEST(PhaseCluster, DegenerateInputsStayWellDefined)
{
    // Empty input: no phases at all.
    const PhaseAnalysis empty = clusterPhases({}, params(100));
    EXPECT_EQ(empty.k, 0u);
    EXPECT_TRUE(empty.phases.empty());

    // A single interval: one phase with the whole weight.
    IntervalBbv iv;
    iv.counts = {{0, 60}, {5, 40}};
    iv.instrs = 100;
    const PhaseAnalysis one = clusterPhases({iv}, params(100));
    ASSERT_EQ(one.k, 1u);
    EXPECT_EQ(one.phases[0].rep, 0u);
    EXPECT_EQ(one.phases[0].members, 1u);
    EXPECT_DOUBLE_EQ(one.phases[0].weight, 1.0);

    // All-identical vectors collapse to a single phase even when
    // max_k asks for more.
    const std::vector<IntervalBbv> same(5, iv);
    const PhaseAnalysis collapsed = clusterPhases(same, params(100, 8));
    ASSERT_EQ(collapsed.k, 1u);
    EXPECT_EQ(collapsed.phases[0].members, 5u);
    EXPECT_DOUBLE_EQ(collapsed.phases[0].weight, 1.0);

    // max_k beyond the interval count clamps to n.
    IntervalBbv other;
    other.counts = {{9, 100}};
    other.instrs = 100;
    const PhaseAnalysis few =
        clusterPhases({iv, other, iv}, params(100, 64));
    EXPECT_GE(few.k, 1u);
    EXPECT_LE(few.k, 3u);
}

TEST(PhaseCluster, AnalysisCacheSharesOneBuild)
{
    // Two phase-sampled runs with one plan key profile the program
    // once; the second (on another machine) reuses the plan.
    clearAllCaches();
    const SampleParams p = phaseParams("phase:20000:500:1500");
    runWorkloadSampled(SimConfig::dmt(6, 2), "go", p, 400000);
    runWorkloadSampled(SimConfig::dmt(2, 2), "go", p, 400000);
    const PhaseCacheCounters c = phaseCacheCounters();
    EXPECT_EQ(c.builds, 1u);
    EXPECT_EQ(c.hits, 1u) << "second run must share the build";

    // A different parameter set is a different cache cell.
    runWorkloadSampled(SimConfig::dmt(6, 2), "go",
                       phaseParams("phase:20000:500:1500:4"), 400000);
    EXPECT_EQ(phaseCacheCounters().builds, 2u);

    clearAllCaches();
    const PhaseCacheCounters z = phaseCacheCounters();
    EXPECT_EQ(z.builds + z.hits, 0u);
}

// ---- the phase-sampled pipeline ----------------------------------------

TEST(PhaseSampled, DeterministicAcrossCacheStatesAndEngines)
{
    const SampleParams p = phaseParams("phase:20000:500:1500");
    const SimConfig cfg = SimConfig::dmt(6, 2);
    constexpr u64 kBudget = 400000;

    clearAllCaches();
    const RunResult cold = runWorkloadSampled(cfg, "go", p, kBudget);
    const RunResult warm = runWorkloadSampled(cfg, "go", p, kBudget);
    EXPECT_EQ(cold.jsonString(), warm.jsonString())
        << "warm phase/checkpoint caches must not change a byte";

    // A second machine over the same plan resumes every phase window
    // from the checkpoints the first one captured.
    const CheckpointCacheCounters before = checkpointCacheCounters();
    const RunResult other =
        runWorkloadSampled(SimConfig::dmt(2, 2), "go", p, kBudget);
    const CheckpointCacheCounters after = checkpointCacheCounters();
    EXPECT_EQ(other.sampling.covered, cold.sampling.covered);
    EXPECT_EQ(after.mem_hits - before.mem_hits, cold.sampling.phase_k);
    EXPECT_EQ(after.builds - before.builds, 0u);

    EXPECT_EQ(cold.sampling.mode, "phase");
    EXPECT_GE(cold.sampling.phase_k, 1u);
    EXPECT_EQ(cold.sampling.phases.size(), cold.sampling.phase_k);
    EXPECT_EQ(cold.sampling.phase_intervals, 20u);
    EXPECT_GT(cold.sampling.covered, 0u);
    EXPECT_LT(cold.sampling.functional_instr, cold.sampling.covered);
    clearAllCaches();
}

TEST(PhaseSampled, CpiBracketsFullDetail)
{
    // Same agreement contract as the uniform sampler's bracket test:
    // on a long generated loop nest, the phase-weighted CPI estimate
    // must agree with the full-detail CPI within its own confidence
    // interval plus a small absolute guard for warmup-boundary bias.
    const std::string spec = "gen:loopnest:21:trips=200:units=48";
    const SimConfig cfg = SimConfig::dmt(6, 2);

    clearAllCaches();
    const RunResult full = runWorkloadJob(cfg, spec, 2000000, {});
    ASSERT_TRUE(full.completed);
    ASSERT_GT(full.retired, 200000u) << "workload too short to sample";
    const double full_cpi = static_cast<double>(full.cycles) /
                            static_cast<double>(full.retired);

    const SampleParams p = phaseParams("phase:20000:500:2000");
    clearAllCaches();
    const RunResult s = runWorkloadSampled(cfg, spec, p);
    ASSERT_TRUE(s.completed);
    ASSERT_GE(s.sampling.phase_k, 1u);
    ASSERT_GT(s.sampling.cpi_mean, 0.0);

    EXPECT_NEAR(s.sampling.cpi_mean, full_cpi,
                s.sampling.cpi_ci95 + 0.03)
        << "phase-sampled CPI " << s.sampling.cpi_mean << " +- "
        << s.sampling.cpi_ci95 << " does not bracket full-detail CPI "
        << full_cpi;

    // The economics that motivate the mode: one window per phase means
    // far fewer detailed instructions than one window per interval.
    const u64 detailed = s.sampling.covered - s.sampling.functional_instr;
    EXPECT_LT(detailed * 3, s.sampling.covered)
        << "phase sampling should leave most of the stream functional";
    clearAllCaches();
}

TEST(PhaseSampled, GoldenSignature)
{
    // Pin the whole phase pipeline — BBV profile, projection,
    // clustering, representative windows, weighted aggregation — to a
    // checked-in canonical JSON document.  Regenerate with
    // DMT_UPDATE_GOLDEN=1 after intentional behaviour changes.
    const SampleParams p = phaseParams("phase:20000:500:1500");

    clearAllCaches();
    const RunResult r =
        runWorkloadSampled(SimConfig::dmt(6, 2), "go", p, 400000);
    clearAllCaches();
    checkGoldenBytes(std::string(DMT_GOLDEN_DIR) + "/phase_go.json",
                     r.jsonString() + "\n");
}

TEST(PhaseSampled, OnePassProfilesOnTheRunsCursor)
{
    // The run that profiles walks to its representatives from the
    // trail checkpoints its profile laid down, not from instruction 0
    // again; a second machine resumes every window from the plan.
    const SampleParams p = phaseParams("phase:20000:500:1500");
    clearAllCaches();
    const RunResult cold = runWorkloadSampled(SimConfig::dmt(6, 2), "go", p);
    ASSERT_TRUE(cold.completed);
    ASSERT_GE(cold.sampling.phase_k, 2u);
    const u64 last_rep = cold.sampling.phases.back().pos;
    EXPECT_GE(cold.sampling.ff_instr, cold.sampling.covered)
        << "the profile runs the whole program";
    EXPECT_LT(cold.sampling.ff_instr, cold.sampling.covered + last_rep)
        << "a profile and a second walk to the last representative";

    const CheckpointCacheCounters before = checkpointCacheCounters();
    const RunResult warm = runWorkloadSampled(SimConfig::dmt(2, 2), "go", p);
    const CheckpointCacheCounters after = checkpointCacheCounters();
    EXPECT_EQ(warm.sampling.ff_instr, 0u);
    EXPECT_EQ(after.mem_hits - before.mem_hits, warm.sampling.phase_k);
    EXPECT_EQ(after.builds - before.builds, 0u);
    clearAllCaches();
}

TEST(PhaseSampled, ConcurrentMachinesShareOnePlan)
{
    // Two machines over one phase spec, run side by side: whichever
    // asks second waits for the first one's plan and resumes every
    // window from it, capturing no checkpoint of its own.
    const SampleParams p = phaseParams("phase:20000:500:1500");
    clearAllCaches();
    SweepRunner runner(2);
    for (const SimConfig &cfg : {SimConfig::dmt(6, 2), SimConfig::dmt(2, 2)})
        runner.add({"", "gen:loopnest:7:trips=20000", cfg, 0, p});
    const std::vector<SweepCell> &cells = runner.run();
    ASSERT_TRUE(cells[0].ok) << cells[0].error;
    ASSERT_TRUE(cells[1].ok) << cells[1].error;
    const u64 k = cells[0].result.sampling.phase_k;
    ASSERT_GE(k, 2u);
    EXPECT_EQ(cells[1].result.sampling.phase_k, k);

    const CheckpointCacheCounters ck = checkpointCacheCounters();
    EXPECT_EQ(ck.builds, k);
    EXPECT_EQ(ck.mem_hits, k);
    const PhaseCacheCounters ph = phaseCacheCounters();
    EXPECT_EQ(ph.builds, 1u);
    EXPECT_EQ(ph.hits, 1u);
    clearAllCaches();
}

TEST(PhaseSampled, ProfileStopsAtTheDeadline)
{
    // An expired deadline stops the profile itself, before k-means and
    // the windows.  The aborted profile leaves no analysis and no held
    // lock behind: the next run profiles again and matches a cold one.
    const std::string spec = "gen:loopnest:7:trips=20000";
    const SampleParams p = phaseParams("phase:20000:500:1500");
    const SimConfig cfg = SimConfig::dmt(6, 2);
    clearAllCaches();
    const RunResult cold = runWorkloadSampled(cfg, spec, p);
    clearAllCaches();

    SimConfig doomed = cfg;
    doomed.deadline =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);
    try {
        runWorkloadSampled(doomed, spec, p);
        ADD_FAILURE() << "an expired deadline must abort the profile";
    } catch (const SimError &e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind("deadline expired", 0), 0u) << what;
        EXPECT_NE(what.find("BBV profile"), std::string::npos) << what;
    }
    EXPECT_EQ(phaseCacheCounters().builds, 0u);

    const RunResult again = runWorkloadSampled(cfg, spec, p);
    EXPECT_EQ(phaseCacheCounters().builds, 1u);
    EXPECT_EQ(again.jsonString(), cold.jsonString());
    clearAllCaches();
}

// ---- daemon byte-identity ----------------------------------------------

class PhaseServe : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        clearAllCaches();
        ServeOptions opts;
        opts.port = 0; // ephemeral: tests never collide
        opts.pool = 2;
        opts.cache_entries = 64;
        opts.drain_s = 10.0;
        server = std::make_unique<Server>(opts);
        std::string err;
        ASSERT_TRUE(server->start(&err)) << err;
    }

    void
    TearDown() override
    {
        server.reset();
        clearAllCaches();
    }

    std::unique_ptr<Server> server;
};

TEST_F(PhaseServe, ColdCachedAndDirectAnswersAreByteIdentical)
{
    constexpr u64 kBudget = 60000;
    JobSpec job;
    job.workload = "go";
    job.cfg = SimConfig::dmt(2, 2);
    job.cfg.max_retired = kBudget;
    job.max_retired = kBudget;
    job.sample = phaseParams("phase:5000:200:600");

    ServeClient c;
    std::string err;
    ASSERT_TRUE(c.connect(server->port(), &err, 2.0)) << err;

    JsonValue cold_reply;
    std::string cold;
    ASSERT_TRUE(c.request(runRequestLine(1, job), &cold_reply, &err))
        << err;
    ASSERT_TRUE(cold_reply.find("ok") && cold_reply.find("ok")->asBool())
        << c.lastLine();
    ASSERT_TRUE(extractRawResult(c.lastLine(), &cold));
    EXPECT_FALSE(cold_reply.find("cached")->asBool());

    JsonValue warm_reply;
    std::string warm;
    ASSERT_TRUE(c.request(runRequestLine(2, job), &warm_reply, &err))
        << err;
    ASSERT_TRUE(extractRawResult(c.lastLine(), &warm));
    EXPECT_TRUE(warm_reply.find("cached")->asBool());

    const RunResult direct = runWorkloadJob(job.cfg, job.workload,
                                            job.max_retired, job.sample);
    EXPECT_EQ(direct.sampling.mode, "phase");
    EXPECT_EQ(cold, direct.jsonString())
        << "daemon-computed phase bytes must equal a direct local run";
    EXPECT_EQ(warm, direct.jsonString())
        << "cache replay must not alter a single byte";
    EXPECT_EQ(server->jobsSimulated(), 1u);
}

} // namespace
} // namespace dmt
