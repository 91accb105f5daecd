/**
 * @file
 * Differential conformance over the seeded workload generator: every
 * (family, seed) scenario emits a fresh program, runs it through the
 * functional core, the baseline superscalar, the dmt6 machine and a
 * fault-storm dmt6, and demands instruction-exact agreement of the
 * final architectural state (retired count, all registers, OUT
 * stream, memory pages) plus golden-clean recovery.  On top of the
 * state checks: canonical RunResult hashes must be stable across
 * reruns and across spec spellings, generated programs must survive
 * the ISA encode/decode round trip, and a gen: spec submitted to the
 * serve daemon must return bytes identical to a direct local run.
 *
 * Scenario count: all families x DMT_CONF_SEEDS seeds (default 15,
 * i.e. 105 scenarios; CI smoke uses 2).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "exp/conformance.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "exp/sampled.hh"
#include "isa/encoding.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

#include "scenarios.hh"

namespace dmt
{
namespace
{

// ---- the scenario sweep ------------------------------------------------

class GenConformance : public ::testing::TestWithParam<int>
{
};

TEST_P(GenConformance, FunctionalAndDetailedAgreeExactly)
{
    const int family_idx = GetParam() / seedsPerFamily();
    const u64 seed =
        static_cast<u64>(GetParam() % seedsPerFamily()) + 1;
    const GenParams p = scenarioParams(family_idx, seed);
    const std::string spec = p.canonicalSpec();

    ConformanceOptions opts;
    opts.fault_rate = 0.03;
    opts.fault_seed = 0xF00D + seed;
    const ConformanceReport rep = checkConformance(spec, opts);
    EXPECT_TRUE(rep.ok) << rep.detail;
    EXPECT_GT(rep.functional_steps, 0u) << spec;
}

INSTANTIATE_TEST_SUITE_P(
    Families, GenConformance,
    ::testing::Range(0, static_cast<int>(genFamilies().size())
                            * seedsPerFamily()),
    [](const ::testing::TestParamInfo<int> &param_info) {
        const int fam = param_info.param / seedsPerFamily();
        const int seed = param_info.param % seedsPerFamily() + 1;
        return std::string(
                   genFamilies()[static_cast<size_t>(fam)].name)
            + "_s" + std::to_string(seed);
    });

// ---- determinism and identity ------------------------------------------

class GenFamilyCase : public ::testing::TestWithParam<int>
{
  protected:
    GenParams
    params() const
    {
        GenParams p;
        p.family = genFamilies()[static_cast<size_t>(GetParam())].name;
        p.seed = 42;
        return p;
    }
};

TEST_P(GenFamilyCase, ProgramEmissionIsDeterministic)
{
    const GenParams p = params();
    const Program a = buildGenWorkload(p);
    const Program b = buildGenWorkload(p.canonicalSpec());
    ASSERT_EQ(a.text.size(), b.text.size());
    for (size_t i = 0; i < a.text.size(); ++i)
        ASSERT_EQ(a.text[i], b.text[i]) << "instruction " << i;
    EXPECT_EQ(a.data, b.data);
    EXPECT_EQ(a.entry, b.entry);
}

TEST_P(GenFamilyCase, ProgramsSurviveEncodeDecodeRoundTrip)
{
    const Program prog = buildGenWorkload(params());
    for (const Instruction &inst : prog.text) {
        u32 word = 0;
        std::string err;
        ASSERT_TRUE(encodeInst(inst, &word, &err)) << err;
        EXPECT_EQ(decodeInst(word), inst);
    }
}

TEST_P(GenFamilyCase, CanonicalHashesAreStableAcrossRerunsAndSpellings)
{
    const GenParams p = params();
    const SimConfig cfg = SimConfig::dmt(4, 2);
    const RunResult a =
        runWorkloadJob(cfg, p.canonicalSpec(), 20000, SampleParams{});
    const RunResult b =
        runWorkloadJob(cfg, p.canonicalSpec(), 20000, SampleParams{});
    EXPECT_EQ(a.jsonString(), b.jsonString());
    EXPECT_EQ(canonicalHash(a), canonicalHash(b));

    // A minimal spelling (defaulted knobs) is the same workload: the
    // runner canonicalizes, so the bytes — including the embedded
    // workload name — must be identical.
    const std::string minimal = "gen:" + p.family + ":42";
    const RunResult c =
        runWorkloadJob(cfg, minimal, 20000, SampleParams{});
    EXPECT_EQ(c.workload, p.canonicalSpec());
    EXPECT_EQ(a.jsonString(), c.jsonString());
}

INSTANTIATE_TEST_SUITE_P(
    Families, GenFamilyCase,
    ::testing::Range(0, static_cast<int>(genFamilies().size())),
    [](const ::testing::TestParamInfo<int> &param_info) {
        return std::string(
            genFamilies()[static_cast<size_t>(param_info.param)].name);
    });

// ---- suite workloads conform too ---------------------------------------

TEST(SuiteConformance, MicrokernelScaleSuiteMembersConform)
{
    // The full suite kernels run millions of instructions; the
    // conformance contract is cheap to prove on the go kernel, whose
    // full run fits the test budget comfortably.
    ConformanceOptions opts;
    opts.max_steps = 20'000'000;
    const ConformanceReport rep = checkConformance("go", opts);
    EXPECT_TRUE(rep.ok) << rep.detail;
}

// ---- serve daemon byte-identity ----------------------------------------

class GenServe : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ServeOptions opts;
        opts.port = 0; // ephemeral: tests never collide
        opts.pool = 2;
        opts.cache_entries = 64;
        opts.drain_s = 10.0;
        server = std::make_unique<Server>(opts);
        std::string err;
        ASSERT_TRUE(server->start(&err)) << err;
    }

    ServeClient
    makeClient()
    {
        ServeClient c;
        std::string err;
        EXPECT_TRUE(c.connect(server->port(), &err, 2.0)) << err;
        return c;
    }

    std::string
    runJob(ServeClient &c, const JobSpec &job, JsonValue *reply,
           i64 id = 1)
    {
        std::string err, raw;
        EXPECT_TRUE(c.request(runRequestLine(id, job), reply, &err))
            << err;
        const JsonValue *ok = reply->find("ok");
        EXPECT_TRUE(ok && ok->asBool())
            << "job failed: " << c.lastLine();
        EXPECT_TRUE(extractRawResult(c.lastLine(), &raw));
        return raw;
    }

    std::unique_ptr<Server> server;
};

TEST_F(GenServe, GenSpecThroughDaemonMatchesDirectRunByteForByte)
{
    constexpr u64 kBudget = 4000;
    JobSpec job;
    job.workload = "gen:loopnest:7:trips=20"; // non-canonical spelling
    job.cfg = SimConfig::dmt(2, 2);
    job.cfg.max_retired = kBudget;
    job.max_retired = kBudget;

    ServeClient c = makeClient();
    JsonValue reply;
    const std::string served = runJob(c, job, &reply);
    EXPECT_FALSE(reply.find("cached")->asBool());

    const RunResult direct = runWorkloadJob(job.cfg, job.workload,
                                            job.max_retired, job.sample);
    EXPECT_EQ(served, direct.jsonString())
        << "daemon-computed bytes must equal a direct local run";

    // The canonical spelling is the same workload — it must hit the
    // cache and return the very same bytes.
    JobSpec canon = job;
    canon.workload = canonicalWorkloadName(job.workload);
    EXPECT_NE(canon.workload, job.workload);
    JsonValue warm_reply;
    const std::string warm = runJob(c, canon, &warm_reply, 2);
    EXPECT_TRUE(warm_reply.find("cached")->asBool())
        << "two spellings of one gen workload must share one cache "
           "cell";
    EXPECT_EQ(served, warm);
}

TEST_F(GenServe, MalformedGenSpecsAreRejectedDaemonSurvives)
{
    ServeClient c = makeClient();
    std::string err;
    JsonValue reply;

    for (const char *bad :
         {"gen:nosuchfamily:1", "gen:loopnest:1:trips=0",
          "gen:loopnest:1:trips=999999999", "gen:loopnest:xyz",
          "gen:loopnest:1:depth=3junk", "gen:loopnest:1:trips",
          "gen:loopnest", "gen:loopnest:1:trips=4:trips=5",
          "gen::1", "gen:loopnest:1:"}) {
        JobSpec job;
        job.workload = bad;
        job.cfg = SimConfig::dmt(2, 2);
        job.cfg.max_retired = 2000;
        job.max_retired = 2000;
        ASSERT_TRUE(c.request(runRequestLine(1, job), &reply, &err))
            << err;
        const JsonValue *ok = reply.find("ok");
        ASSERT_TRUE(ok && !ok->asBool())
            << bad << " must be rejected, got: " << c.lastLine();
    }

    // The daemon survived every rejection and still serves good jobs.
    JobSpec good;
    good.workload = "gen:loopnest:1";
    good.cfg = SimConfig::dmt(2, 2);
    good.cfg.max_retired = 2000;
    good.max_retired = 2000;
    JsonValue good_reply;
    runJob(c, good, &good_reply, 99);
    EXPECT_TRUE(good_reply.find("ok")->asBool());
}

} // namespace
} // namespace dmt
