/**
 * @file
 * Checked environment-knob parsing: the strict numeric parsers behind
 * every DMT_* knob must reject trailing garbage and overflow instead
 * of silently truncating (the old strtoull/atoi behaviour), and the
 * env readers at the binary edge (cli/env.hh) must fatal() on
 * malformed values rather than quietly measuring the wrong
 * configuration.  The libraries themselves read no environment: runs
 * and daemon replies are byte-identical whatever the DMT_* knobs say.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "cli/env.hh"
#include "common/env.hh"
#include "exp/runner.hh"
#include "exp/sampled.hh"
#include "serve/client.hh"
#include "serve/faultnet.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

namespace dmt
{
namespace
{

TEST(ParseU64, AcceptsPlainDecimal)
{
    u64 v = 0;
    EXPECT_TRUE(parseU64("0", &v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseU64("60000", &v));
    EXPECT_EQ(v, 60000u);
    EXPECT_TRUE(parseU64("18446744073709551615", &v));
    EXPECT_EQ(v, ~u64{0});
    EXPECT_TRUE(parseU64("  42  ", &v)) << "surrounding whitespace ok";
    EXPECT_EQ(v, 42u);
}

TEST(ParseU64, RejectsTrailingGarbage)
{
    u64 v = 0;
    EXPECT_FALSE(parseU64("60k", &v));
    EXPECT_FALSE(parseU64("60 000", &v));
    EXPECT_FALSE(parseU64("1e6", &v));
    EXPECT_FALSE(parseU64("0x10", &v));
    EXPECT_FALSE(parseU64("12.5", &v));
    EXPECT_FALSE(parseU64("", &v));
    EXPECT_FALSE(parseU64("   ", &v));
    EXPECT_FALSE(parseU64("abc", &v));
}

TEST(ParseU64, RejectsSignAndOverflow)
{
    u64 v = 0;
    EXPECT_FALSE(parseU64("-1", &v));
    EXPECT_FALSE(parseU64("+1", &v));
    // One past 2^64 - 1.
    EXPECT_FALSE(parseU64("18446744073709551616", &v));
    EXPECT_FALSE(parseU64("99999999999999999999999", &v));
}

TEST(ParseF64, AcceptsAndRejects)
{
    double v = 0.0;
    EXPECT_TRUE(parseF64("0.01", &v));
    EXPECT_DOUBLE_EQ(v, 0.01);
    EXPECT_TRUE(parseF64("1e-3", &v));
    EXPECT_DOUBLE_EQ(v, 1e-3);
    EXPECT_TRUE(parseF64(" 2.5 ", &v));
    EXPECT_FALSE(parseF64("0.01x", &v));
    EXPECT_FALSE(parseF64("", &v));
    EXPECT_FALSE(parseF64("nan", &v)) << "must stay finite";
    EXPECT_FALSE(parseF64("inf", &v));
    EXPECT_FALSE(parseF64("1e999", &v)) << "overflows to inf";
}

TEST(ParseEnv, UnsetAndEmptyYieldDefault)
{
    unsetenv("DMT_TEST_KNOB");
    EXPECT_EQ(parseEnvU64("DMT_TEST_KNOB", 123), 123u);
    setenv("DMT_TEST_KNOB", "", 1);
    EXPECT_EQ(parseEnvU64("DMT_TEST_KNOB", 123), 123u);
    EXPECT_DOUBLE_EQ(parseEnvF64("DMT_TEST_KNOB", 0.5, 0.0, 1.0), 0.5);
    unsetenv("DMT_TEST_KNOB");
}

TEST(ParseEnv, ReadsValidValues)
{
    setenv("DMT_TEST_KNOB", "777", 1);
    EXPECT_EQ(parseEnvU64("DMT_TEST_KNOB", 1), 777u);
    setenv("DMT_TEST_KNOB", "0.25", 1);
    EXPECT_DOUBLE_EQ(parseEnvF64("DMT_TEST_KNOB", 0.0, 0.0, 1.0), 0.25);
    unsetenv("DMT_TEST_KNOB");
}

using ParseEnvDeath = ::testing::Test;

TEST(ParseEnvDeath, GarbageIsFatal)
{
    setenv("DMT_TEST_KNOB", "60k", 1);
    EXPECT_DEATH(parseEnvU64("DMT_TEST_KNOB", 1),
                 "not a valid unsigned integer");
    unsetenv("DMT_TEST_KNOB");
}

TEST(ParseEnvDeath, OverflowIsFatal)
{
    setenv("DMT_TEST_KNOB", "18446744073709551616", 1);
    EXPECT_DEATH(parseEnvU64("DMT_TEST_KNOB", 1),
                 "not a valid unsigned integer");
    unsetenv("DMT_TEST_KNOB");
}

TEST(ParseEnvDeath, RangeIsEnforced)
{
    setenv("DMT_TEST_KNOB", "2000", 1);
    EXPECT_DEATH(parseEnvU64("DMT_TEST_KNOB", 1, 1, 1024),
                 "out of range");
    setenv("DMT_TEST_KNOB", "1.5", 1);
    EXPECT_DEATH(parseEnvF64("DMT_TEST_KNOB", 0.0, 0.0, 1.0),
                 "out of range");
    unsetenv("DMT_TEST_KNOB");
}

TEST(BenchRunLength, ChecksItsKnob)
{
    setenv("DMT_BENCH_INSTR", "2000", 1);
    EXPECT_EQ(benchRunLength(), 2000u);
    setenv("DMT_BENCH_INSTR", "0", 1);
    EXPECT_EQ(benchRunLength(), 60000u) << "0 selects the default";
    unsetenv("DMT_BENCH_INSTR");
    EXPECT_EQ(benchRunLength(), 60000u);
}

TEST(BenchRunLengthDeath, TrailingGarbageIsFatal)
{
    setenv("DMT_BENCH_INSTR", "60000x", 1);
    EXPECT_DEATH(benchRunLength(), "DMT_BENCH_INSTR");
    unsetenv("DMT_BENCH_INSTR");
}

TEST(BenchQuietDeath, ZeroOrOneElseFatal)
{
    setenv("DMT_BENCH_QUIET", "1", 1);
    EXPECT_TRUE(benchQuiet());
    setenv("DMT_BENCH_QUIET", "0", 1);
    EXPECT_FALSE(benchQuiet());
    // A word is not a switch: "false" must not silently read as on.
    setenv("DMT_BENCH_QUIET", "false", 1);
    EXPECT_DEATH(benchQuiet(), "DMT_BENCH_QUIET");
    setenv("DMT_BENCH_QUIET", "2", 1);
    EXPECT_DEATH(benchQuiet(), "out of range");
    unsetenv("DMT_BENCH_QUIET");
}

namespace
{

void
clearServeEnv()
{
    unsetenv("DMT_SERVE_PORT");
    unsetenv("DMT_SERVE_JOBS");
    unsetenv("DMT_SERVE_CACHE");
    unsetenv("DMT_SERVE_DRAIN_S");
    unsetenv("DMT_SERVE_CACHE_DIR");
    unsetenv("DMT_SERVE_QUEUE");
    unsetenv("DMT_SERVE_DEADLINE_S");
}

void
clearFaultNetEnv()
{
    unsetenv("DMT_FAULTNET");
    unsetenv("DMT_FAULTNET_RATE");
    unsetenv("DMT_FAULTNET_SEED");
    unsetenv("DMT_FAULTNET_STALL_MS");
}

} // namespace

// ---------------------------------------------------------------------
// DMT_SAMPLE spec parsing: the strict non-fatal SampleParams::parse()
// layer the daemon relies on, the canonical rendering that feeds the
// serve cache key, and the fatal() edge reader.
// ---------------------------------------------------------------------

TEST(SampleSpec, PhaseParsesAndCanonicalizes)
{
    SampleParams p;
    std::string err;
    ASSERT_TRUE(SampleParams::parse("phase:20000:500:1500", &p, &err))
        << err;
    EXPECT_TRUE(p.phaseMode());
    EXPECT_TRUE(p.enabled());
    EXPECT_EQ(p.phase.interval, 20000u);
    EXPECT_EQ(p.warm, 500u);
    EXPECT_EQ(p.measure, 1500u);
    EXPECT_EQ(p.phase.max_k, 8u) << "documented default";
    EXPECT_EQ(p.phase.dims, 16u);
    EXPECT_EQ(p.phase.seed, 42u);
    // Canonical form is always fully explicit: two specs that behave
    // identically must render identical cache keys.
    EXPECT_EQ(p.canonicalSpec(), "phase:20000:500:1500:8:16:42");

    SampleParams q;
    ASSERT_TRUE(SampleParams::parse("phase:1:2:3:4:5:6", &q, &err))
        << err;
    EXPECT_EQ(q.phase.max_k, 4u);
    EXPECT_EQ(q.phase.dims, 5u);
    EXPECT_EQ(q.phase.seed, 6u);
    EXPECT_EQ(q.canonicalSpec(), "phase:1:2:3:4:5:6");

    // Canonical specs round-trip through parse unchanged.
    SampleParams r;
    ASSERT_TRUE(SampleParams::parse(p.canonicalSpec(), &r, &err)) << err;
    EXPECT_EQ(r.canonicalSpec(), p.canonicalSpec());

    // Uniform specs keep their own canonical shape, and disabled
    // renders as "off".
    SampleParams u;
    ASSERT_TRUE(SampleParams::parse("1000:200:300", &u, &err)) << err;
    EXPECT_FALSE(u.phaseMode());
    EXPECT_EQ(u.canonicalSpec(), "1000:200:300:0");
    EXPECT_EQ(SampleParams{}.canonicalSpec(), "off");
    SampleParams off;
    ASSERT_TRUE(SampleParams::parse("", &off, &err)) << err;
    EXPECT_FALSE(off.enabled());
}

TEST(SampleSpec, PhaseRejectionsAreStructuredErrors)
{
    const struct
    {
        const char *spec;
        const char *needle; ///< must appear in the error message
    } cases[] = {
        {"phase:1:2", "phase:interval:warm:measure"},
        {"phase:1:2:3:4:5:6:7", "phase:interval:warm:measure"},
        {"phase:1x:2:3", "bad sample spec field"},
        {"phase:1:2:3x", "bad sample spec field"},
        {"phase:0:2:3", "interval length must be > 0"},
        {"phase:100:5:0", "measure window must be > 0"},
        {"phase:100:5:10:0", "maxk must be 1..64"},
        {"phase:100:5:10:65", "maxk must be 1..64"},
        {"phase:100:5:10:8:0", "dims must be 1..256"},
        {"phase:100:5:10:8:257", "dims must be 1..256"},
    };
    for (const auto &c : cases) {
        SampleParams p;
        std::string err;
        EXPECT_FALSE(SampleParams::parse(c.spec, &p, &err)) << c.spec;
        EXPECT_NE(err.find(c.needle), std::string::npos)
            << c.spec << " -> \"" << err << "\"";
    }

    // A null err sink must be tolerated (callers that only branch).
    SampleParams p;
    EXPECT_FALSE(SampleParams::parse("phase:0:1:2", &p, nullptr));
}

TEST(SampleEnvDeath, PhaseGarbageAndRangeAreFatal)
{
    setenv("DMT_SAMPLE", "phase:abc:1:2", 1);
    EXPECT_DEATH(sampleParamsFromEnv(), "DMT_SAMPLE");
    setenv("DMT_SAMPLE", "phase:0:1:2", 1);
    EXPECT_DEATH(sampleParamsFromEnv(), "interval length");
    setenv("DMT_SAMPLE", "phase:100:5:10:99", 1);
    EXPECT_DEATH(sampleParamsFromEnv(), "maxk");
    unsetenv("DMT_SAMPLE");
}

TEST(ServeEnv, DefaultsWhenUnset)
{
    clearServeEnv();
    const ServeOptions o = serveOptionsFromEnv();
    EXPECT_EQ(o.port, 1998);
    EXPECT_EQ(o.pool, 0) << "0 = sweep pool width";
    EXPECT_EQ(o.cache_entries, 4096u);
    EXPECT_DOUBLE_EQ(o.drain_s, 30.0);
    EXPECT_TRUE(o.cache_dir.empty()) << "durable tier off by default";
    EXPECT_EQ(o.queue_max, 1024u);
    EXPECT_DOUBLE_EQ(o.deadline_s, 0.0) << "no deadline by default";
}

TEST(ServeEnv, ReadsValidValues)
{
    setenv("DMT_SERVE_PORT", "0", 1);
    setenv("DMT_SERVE_JOBS", "4", 1);
    setenv("DMT_SERVE_CACHE", "0", 1);
    setenv("DMT_SERVE_DRAIN_S", "1.5", 1);
    setenv("DMT_SERVE_QUEUE", "8", 1);
    setenv("DMT_SERVE_DEADLINE_S", "2.5", 1);
    const ServeOptions o = serveOptionsFromEnv();
    EXPECT_EQ(o.port, 0) << "0 = ephemeral port";
    EXPECT_EQ(o.pool, 4);
    EXPECT_EQ(o.cache_entries, 0u) << "0 = storage off, dedup on";
    EXPECT_DOUBLE_EQ(o.drain_s, 1.5);
    EXPECT_EQ(o.queue_max, 8u);
    EXPECT_DOUBLE_EQ(o.deadline_s, 2.5);
    clearServeEnv();
}

TEST(ServeEnv, CacheDirIsCreatedAndAccepted)
{
    clearServeEnv();
    const char *dir = "serve_env_cache_dir";
    ::rmdir(dir);
    setenv("DMT_SERVE_CACHE_DIR", dir, 1);
    const ServeOptions o = serveOptionsFromEnv();
    EXPECT_EQ(o.cache_dir, dir);
    struct stat st{};
    EXPECT_EQ(::stat(dir, &st), 0) << "the reader must create the dir";
    EXPECT_TRUE(S_ISDIR(st.st_mode));
    clearServeEnv();
    ::rmdir(dir);
}

TEST(ServeEnvDeath, GarbageIsFatal)
{
    clearServeEnv();
    setenv("DMT_SERVE_PORT", "http", 1);
    EXPECT_DEATH(serveOptionsFromEnv(), "DMT_SERVE_PORT");
    setenv("DMT_SERVE_PORT", "1998x", 1);
    EXPECT_DEATH(serveOptionsFromEnv(), "DMT_SERVE_PORT");
    unsetenv("DMT_SERVE_PORT");
    setenv("DMT_SERVE_DRAIN_S", "soon", 1);
    EXPECT_DEATH(serveOptionsFromEnv(), "DMT_SERVE_DRAIN_S");
    unsetenv("DMT_SERVE_DRAIN_S");
    setenv("DMT_SERVE_QUEUE", "many", 1);
    EXPECT_DEATH(serveOptionsFromEnv(), "DMT_SERVE_QUEUE");
    unsetenv("DMT_SERVE_QUEUE");
    setenv("DMT_SERVE_DEADLINE_S", "5s", 1);
    EXPECT_DEATH(serveOptionsFromEnv(), "DMT_SERVE_DEADLINE_S");
    clearServeEnv();
}

TEST(ServeEnvDeath, RangeIsEnforced)
{
    clearServeEnv();
    setenv("DMT_SERVE_PORT", "70000", 1);
    EXPECT_DEATH(serveOptionsFromEnv(), "out of range");
    unsetenv("DMT_SERVE_PORT");
    setenv("DMT_SERVE_JOBS", "5000", 1);
    EXPECT_DEATH(serveOptionsFromEnv(), "out of range");
    unsetenv("DMT_SERVE_JOBS");
    setenv("DMT_SERVE_DRAIN_S", "-1", 1);
    EXPECT_DEATH(serveOptionsFromEnv(), "out of range");
    unsetenv("DMT_SERVE_DRAIN_S");
    setenv("DMT_SERVE_DEADLINE_S", "-0.5", 1);
    EXPECT_DEATH(serveOptionsFromEnv(), "out of range");
    clearServeEnv();
}

TEST(ServeEnvDeath, CacheDirThatIsAFileIsFatal)
{
    clearServeEnv();
    const char *path = "serve_env_cache_file";
    std::FILE *f = std::fopen(path, "w");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    setenv("DMT_SERVE_CACHE_DIR", path, 1);
    EXPECT_DEATH(serveOptionsFromEnv(), "not a directory");
    clearServeEnv();
    std::remove(path);
}

TEST(FaultNetEnv, DefaultsWhenUnset)
{
    clearFaultNetEnv();
    const FaultNetOptions o = faultNetOptionsFromEnv(1998);
    EXPECT_EQ(o.upstream_port, 1998);
    EXPECT_EQ(o.listen_port, 0) << "proxy always picks an ephemeral "
                                   "port";
    EXPECT_DOUBLE_EQ(o.rate, 0.05);
    EXPECT_EQ(o.seed, 1998u);
    EXPECT_EQ(o.stall_ms, 100u);
}

TEST(FaultNetEnv, ReadsValidValues)
{
    clearFaultNetEnv();
    setenv("DMT_FAULTNET_RATE", "0.25", 1);
    setenv("DMT_FAULTNET_SEED", "42", 1);
    setenv("DMT_FAULTNET_STALL_MS", "7", 1);
    const FaultNetOptions o = faultNetOptionsFromEnv(1998);
    EXPECT_DOUBLE_EQ(o.rate, 0.25);
    EXPECT_EQ(o.seed, 42u);
    EXPECT_EQ(o.stall_ms, 7u);
    // The enable flag itself is strictly boolean.
    setenv("DMT_FAULTNET", "1", 1);
    EXPECT_EQ(parseEnvU64("DMT_FAULTNET", 0, 0, 1), 1u);
    clearFaultNetEnv();
}

// ---------------------------------------------------------------------
// gen:<family>:<seed> workload-spec parsing: parseGenSpec() is the
// strict non-fatal layer the daemon relies on; buildWorkload() and
// canonicalWorkloadName() wrap it with fatal() for the local CLI.
// ---------------------------------------------------------------------

TEST(GenSpec, CanonicalSpecRoundTripsThroughParse)
{
    for (const GenFamilyInfo &fam : genFamilies()) {
        GenParams p;
        p.family = fam.name;
        p.seed = 97;
        p.depth = 6;
        p.trips = 33;
        p.entropy = 12;
        p.alias = 88;
        p.units = 40;

        GenParams q;
        std::string err;
        ASSERT_TRUE(parseGenSpec(p.canonicalSpec(), &q, &err))
            << fam.name << ": " << err;
        EXPECT_EQ(q.family, p.family);
        EXPECT_EQ(q.seed, p.seed);
        EXPECT_EQ(q.depth, p.depth);
        EXPECT_EQ(q.trips, p.trips);
        EXPECT_EQ(q.entropy, p.entropy);
        EXPECT_EQ(q.alias, p.alias);
        EXPECT_EQ(q.units, p.units);
        EXPECT_EQ(q.canonicalSpec(), p.canonicalSpec());
    }

    // The minimal spelling parses to the documented knob defaults and
    // canonicalizes to the fully explicit form.
    GenParams q;
    std::string err;
    ASSERT_TRUE(parseGenSpec("gen:loopnest:5", &q, &err)) << err;
    EXPECT_EQ(q.canonicalSpec(),
              "gen:loopnest:5:alias=25:depth=4:entropy=50:trips=8:"
              "units=16");
}

TEST(GenSpec, IsGenSpecOnlyMatchesThePrefix)
{
    EXPECT_TRUE(isGenSpec("gen:loopnest:1"));
    EXPECT_TRUE(isGenSpec("  gen:branchy:7:trips=3  "));
    EXPECT_FALSE(isGenSpec("go"));
    EXPECT_FALSE(isGenSpec("general"));
    EXPECT_FALSE(isGenSpec(""));
}

TEST(GenSpec, EveryRejectionClassYieldsAStructuredError)
{
    const struct
    {
        const char *spec;
        const char *needle; ///< must appear in the error message
    } cases[] = {
        {"gen", "must be gen:<family>:<seed>"},
        {"gen:loopnest", "must be gen:<family>:<seed>"},
        {"gen:nosuchfamily:1", "unknown workload family"},
        {"gen:nosuchfamily:1", "loopnest"}, // lists the families
        {"gen::1", "unknown workload family"},
        {"gen:loopnest:xyz", "bad seed"},
        {"gen:loopnest:3junk", "bad seed"},
        {"gen:loopnest:1:trips", "need knob=value"},
        {"gen:loopnest:1:=5", "need knob=value"},
        {"gen:loopnest:1:speed=5", "unknown knob"},
        {"gen:loopnest:1:trips=4:trips=5", "duplicate knob"},
        {"gen:loopnest:1:trips=4x", "bad value"},
        {"gen:loopnest:1:trips=0", "out of range"},
        {"gen:loopnest:1:trips=999999999", "out of range"},
        {"gen:loopnest:1:", "need knob=value"}, // trailing colon
    };
    for (const auto &c : cases) {
        GenParams p;
        std::string err;
        EXPECT_FALSE(parseGenSpec(c.spec, &p, &err)) << c.spec;
        EXPECT_NE(err.find(c.needle), std::string::npos)
            << c.spec << " -> \"" << err << "\"";
    }

    // A null err sink must be tolerated (callers that only branch).
    GenParams p;
    EXPECT_FALSE(parseGenSpec("gen:loopnest:xyz", &p, nullptr));
}

TEST(GenSpecDeath, MalformedSpecsAreFatalInTheLocalCli)
{
    EXPECT_DEATH(buildWorkload("gen:nosuchfamily:1"),
                 "unknown workload family");
    EXPECT_DEATH(buildGenWorkload(std::string("gen:loopnest:1:trips=0")),
                 "out of range");
    EXPECT_DEATH(canonicalWorkloadName("gen:loopnest:xyz"), "bad seed");
}

TEST(FaultNetEnvDeath, GarbageAndRangeAreFatal)
{
    clearFaultNetEnv();
    setenv("DMT_FAULTNET_RATE", "lots", 1);
    EXPECT_DEATH(faultNetOptionsFromEnv(1998), "DMT_FAULTNET_RATE");
    setenv("DMT_FAULTNET_RATE", "1.5", 1);
    EXPECT_DEATH(faultNetOptionsFromEnv(1998), "out of range");
    unsetenv("DMT_FAULTNET_RATE");
    setenv("DMT_FAULTNET_SEED", "0x29", 1);
    EXPECT_DEATH(faultNetOptionsFromEnv(1998), "DMT_FAULTNET_SEED");
    unsetenv("DMT_FAULTNET_SEED");
    setenv("DMT_FAULTNET_STALL_MS", "90000", 1);
    EXPECT_DEATH(faultNetOptionsFromEnv(1998), "out of range");
    unsetenv("DMT_FAULTNET_STALL_MS");
    setenv("DMT_FAULTNET", "yes", 1);
    EXPECT_DEATH(parseEnvU64("DMT_FAULTNET", 0, 0, 1), "DMT_FAULTNET");
    setenv("DMT_FAULTNET", "2", 1);
    EXPECT_DEATH(parseEnvU64("DMT_FAULTNET", 0, 0, 1), "out of range");
    clearFaultNetEnv();
}

// ---------------------------------------------------------------------
// One input surface: the edge maps every engine knob into its
// SimConfig field, and nothing below the edge reads the environment.
// ---------------------------------------------------------------------

TEST(EngineEnv, MapsEachKnobIntoItsSimConfigField)
{
    const char *const knobs[][2] = {
        {"DMT_WATCHDOG", "77"},        {"DMT_AUDIT", "5"},
        {"DMT_CRASH_FILE", "pm.json"}, {"DMT_TRACE", "ring"},
        {"DMT_TRACE_FILE", "t.json"},  {"DMT_TRACE_COUNTERS_FILE", "c.json"},
        {"DMT_TRACE_SAMPLE", "64"},    {"DMT_TRACE_RING", "99"},
        {"DMT_FAULT", "all"},          {"DMT_FAULT_RATE", "0.25"},
        {"DMT_FAULT_SEED", "5"},
    };
    for (const auto &k : knobs)
        setenv(k[0], k[1], 1);
    const SimConfig c = simConfigFromEnv(SimConfig::dmt(6, 2));
    for (const auto &k : knobs)
        unsetenv(k[0]);

    EXPECT_EQ(c.watchdog_cycles, 77u);
    EXPECT_EQ(c.audit_period, 5);
    EXPECT_EQ(c.crash_file, "pm.json");
    EXPECT_TRUE(c.trace.enabled && c.trace.ring);
    EXPECT_EQ(c.trace.chrome_file, "t.json");
    EXPECT_EQ(c.trace.counters_file, "c.json");
    EXPECT_EQ(c.trace.sample_period, 64);
    EXPECT_EQ(c.trace.ring_capacity, 99);
    EXPECT_TRUE(c.fault.enabled);
    for (double rate : c.fault.rate)
        EXPECT_DOUBLE_EQ(rate, 0.25);
    EXPECT_EQ(c.fault.seed, 5u);
}

/** The canonical bytes of a direct go run and of an in-process
 *  daemon's reply to the same job. */
std::pair<std::string, std::string>
directAndServed()
{
    JobSpec job;
    job.workload = "go";
    job.cfg = SimConfig::dmt(6, 2);
    job.max_retired = 20000;
    const RunResult direct =
        runWorkloadJob(job.cfg, job.workload, job.max_retired, {});

    ServeOptions so;
    so.port = 0;
    so.pool = 1;
    Server srv(so);
    std::string err, raw;
    EXPECT_TRUE(srv.start(&err)) << err;
    ServeClient c;
    JsonValue reply;
    EXPECT_TRUE(c.connect(srv.port(), &err, 2.0)) << err;
    EXPECT_TRUE(c.request(runRequestLine(1, job), &reply, &err)) << err;
    EXPECT_TRUE(extractRawResult(c.lastLine(), &raw)) << c.lastLine();
    return {direct.jsonString(), raw};
}

TEST(Hermetic, RunsAndRepliesIgnoreTheEnvironment)
{
    // Each knob would change or abort the run if a library read it.
    const char *const knobs[][2] = {
        {"DMT_FAULT", "all"},       {"DMT_FAULT_RATE", "0.05"},
        {"DMT_WATCHDOG", "1"},      {"DMT_AUDIT", "1"},
        {"DMT_TRACE", "ring"},      {"DMT_SAMPLE", "1000:200:300"},
        {"DMT_BENCH_INSTR", "2000"},
    };
    const auto clean = directAndServed();
    EXPECT_EQ(clean.first, clean.second);
    for (const auto &k : knobs)
        setenv(k[0], k[1], 1);
    const auto dirty = directAndServed();
    for (const auto &k : knobs)
        unsetenv(k[0]);
    EXPECT_EQ(dirty.first, clean.first) << "runWorkloadJob read the env";
    EXPECT_EQ(dirty.second, clean.second) << "the daemon read the env";
}

} // namespace
} // namespace dmt
