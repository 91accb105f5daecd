/**
 * @file
 * The simulation service, bottom-up: canonical hashing (the cache-key
 * and identity-proof primitive), job-spec sample parsing, the wire
 * protocol's strict no-fatal() validation, the content-addressed
 * result cache with single-flight dedup, and finally a live daemon on
 * an ephemeral port proving the headline contract — cached, queued and
 * freshly computed answers are byte-identical to direct
 * runWorkloadJob() calls.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/strutil.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "exp/sampled.hh"
#include "serve/cache.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/checkpoint.hh"
#include "uarch/config.hh"
#include "workloads/workloads.hh"

namespace dmt
{
namespace
{

constexpr u64 kBudget = 2000; // instructions: keeps every run ~ms

SimConfig
smallDmt()
{
    SimConfig cfg = SimConfig::dmt(2, 2);
    cfg.max_retired = kBudget;
    return cfg;
}

JobSpec
smallJob(const std::string &workload = "go")
{
    JobSpec job;
    job.workload = workload;
    job.cfg = smallDmt();
    job.max_retired = kBudget;
    return job;
}

/** A fresh, empty durable-cache directory under the test cwd. */
std::string
tempCacheDir(const char *name)
{
    const std::string d = std::string("serve_test_") + name;
    std::filesystem::remove_all(d);
    std::filesystem::create_directory(d);
    return d;
}

std::string
readAll(const std::string &path)
{
    std::string out;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (!f)
        return out;
    char chunk[4096];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        out.append(chunk, n);
    std::fclose(f);
    return out;
}

void
writeAll(const std::string &path, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
}

// ---- canonical hashing -------------------------------------------------

TEST(CanonicalHash, FnvPrimitives)
{
    EXPECT_EQ(fnv1aHash(""), kFnvBasis);
    EXPECT_NE(fnv1aHash("a"), fnv1aHash("b"));
    EXPECT_NE(fnv1aHash("ab"), fnv1aHash("ba")) << "order matters";
    // Chaining two pieces equals hashing the concatenation.
    EXPECT_EQ(fnv1aHash("cd", fnv1aHash("ab")), fnv1aHash("abcd"));
    EXPECT_EQ(hashHex(0).size(), 16u);
    EXPECT_EQ(hashHex(0xdeadbeefull), "00000000deadbeef");
}

TEST(CanonicalHash, RunsAreReproducible)
{
    const RunResult a =
        runWorkloadJob(smallDmt(), "go", kBudget, SampleParams{});
    const RunResult b =
        runWorkloadJob(smallDmt(), "go", kBudget, SampleParams{});
    EXPECT_EQ(a.jsonString(), b.jsonString());
    EXPECT_EQ(canonicalHash(a), canonicalHash(b));
}

TEST(CanonicalHash, HostTimingIsExcluded)
{
    RunResult a =
        runWorkloadJob(smallDmt(), "go", kBudget, SampleParams{});
    RunResult b = a;
    b.wall_s = a.wall_s + 123.0;
    b.minstr_per_s = a.minstr_per_s + 9.0;
    b.sampling.func_wall_s = 77.0;
    EXPECT_EQ(canonicalHash(a), canonicalHash(b))
        << "nondeterministic host timing must not change the digest";
    b.cycles += 1;
    EXPECT_NE(canonicalHash(a), canonicalHash(b));
}

TEST(CanonicalHash, ConfigIdentity)
{
    EXPECT_EQ(canonicalHash(smallDmt()), canonicalHash(smallDmt()));
    SimConfig other = smallDmt();
    other.max_threads = 4;
    EXPECT_NE(canonicalHash(smallDmt()), canonicalHash(other));
    other = smallDmt();
    other.max_retired = kBudget + 1;
    EXPECT_NE(canonicalHash(smallDmt()), canonicalHash(other))
        << "the budget is part of the machine identity";
}

// ---- sample-spec parsing ----------------------------------------------

TEST(SampleSpec, ParsesAndCanonicalizes)
{
    SampleParams p;
    std::string err;
    ASSERT_TRUE(SampleParams::parse("1000:100:200", &p, &err)) << err;
    EXPECT_EQ(p.skip, 1000u);
    EXPECT_EQ(p.warm, 100u);
    EXPECT_EQ(p.measure, 200u);
    EXPECT_EQ(p.max_intervals, 0u);
    EXPECT_TRUE(p.enabled());
    EXPECT_EQ(p.canonicalSpec(), "1000:100:200:0");

    ASSERT_TRUE(SampleParams::parse("1000:100:200:5", &p, &err));
    EXPECT_EQ(p.max_intervals, 5u);
    EXPECT_EQ(p.canonicalSpec(), "1000:100:200:5");

    ASSERT_TRUE(SampleParams::parse("", &p, &err)) << "empty = off";
    EXPECT_FALSE(p.enabled());
    EXPECT_EQ(p.canonicalSpec(), "off");
}

TEST(SampleSpec, RejectsGarbage)
{
    SampleParams p;
    std::string err;
    EXPECT_FALSE(SampleParams::parse("1000:100", &p, &err));
    EXPECT_FALSE(SampleParams::parse("1:2:3:4:5", &p, &err));
    EXPECT_FALSE(SampleParams::parse("a:b:c", &p, &err));
    EXPECT_FALSE(SampleParams::parse("1000:100:0", &p, &err))
        << "a zero measure window samples nothing";
}

// ---- protocol ----------------------------------------------------------

TEST(Protocol, RunRequestRoundTrips)
{
    JobSpec job = smallJob();
    job.priority = 5;
    const std::string line = runRequestLine(7, job);

    Request req;
    std::string err;
    ASSERT_TRUE(parseRequest(line, &req, &err)) << err;
    EXPECT_EQ(req.op, Request::Op::Run);
    ASSERT_EQ(req.id.type(), JsonValue::Type::Number);
    EXPECT_EQ(req.id.asNumber(), 7.0);
    EXPECT_EQ(req.job.workload, "go");
    EXPECT_EQ(req.job.max_retired, kBudget);
    EXPECT_EQ(req.job.priority, 5);
    EXPECT_FALSE(req.job.sample.enabled());
    EXPECT_EQ(canonicalHash(req.job.cfg), canonicalHash(job.cfg))
        << "replaying a recorded config must rebuild the same machine";

    // Every job field off its default.
    JobSpec odd = smallJob();
    SimConfig &c = odd.cfg;
    c.max_threads = 5;
    c.spawn_on_call = false;
    c.spawn_on_loop = false;
    c.dataflow_prediction = false;
    c.dataflow_sync = true;
    c.memdep_sync = false;
    c.fetch_ports = 3;
    c.unlimited_fus = false;
    c.tb_size = 300;
    c.tb_latency = 7;
    c.tb_read_block = 6;
    c.recovery_fetch_stall = 1;
    c.recovery_dispatch_stall = 2;
    c.early_divergence_repair = false;
    c.mem.l1i_bytes = 512;
    c.mem.l2_bytes = 4 * 1024;
    c.max_retired = 3000;
    c.warmup_retired = 200;
    c.watchdog_cycles = 123456;
    c.audit_period = 1000;
    odd.max_retired = c.max_retired;
    ASSERT_TRUE(parseRequest(runRequestLine(8, odd), &req, &err)) << err;
    EXPECT_EQ(canonicalHash(req.job.cfg), canonicalHash(odd.cfg))
        << runRequestLine(8, odd);
    EXPECT_TRUE(req.job.cfg == odd.cfg)
        << "the document must name the whole machine: "
        << runRequestLine(8, odd);
}

TEST(Protocol, SimpleOpsParse)
{
    Request req;
    std::string err;
    ASSERT_TRUE(parseRequest(simpleRequestLine("ping", 1), &req, &err));
    EXPECT_EQ(req.op, Request::Op::Ping);
    ASSERT_TRUE(parseRequest(simpleRequestLine("stats", 2), &req, &err));
    EXPECT_EQ(req.op, Request::Op::Stats);
    ASSERT_TRUE(
        parseRequest(simpleRequestLine("shutdown", 3), &req, &err));
    EXPECT_EQ(req.op, Request::Op::Shutdown);
}

TEST(Protocol, RejectsWithoutExiting)
{
    Request req;
    std::string err;
    const char *bad[] = {
        "not json at all",
        "[1,2,3]",
        "{\"id\":1}",
        "{\"op\":\"frobnicate\",\"id\":1}",
        "{\"op\":\"run\",\"id\":1}",
        "{\"op\":\"run\",\"job\":{\"workload\":\"nosuch\"}}",
        "{\"op\":\"run\",\"job\":{\"workload\":\"go\","
        "\"config\":{\"bogus\":1}}}",
        "{\"op\":\"run\",\"job\":{\"workload\":\"go\","
        "\"config\":{\"max_threads\":0}}}",
        "{\"op\":\"run\",\"job\":{\"workload\":\"go\","
        "\"config\":{\"fault_enabled\":true}}}",
        "{\"op\":\"run\",\"job\":{\"workload\":\"go\","
        "\"max_retired\":\"lots\"}}",
        "{\"op\":\"run\",\"job\":{\"workload\":\"go\","
        "\"sample\":\"1:2\"}}",
        "{\"op\":\"run\",\"job\":{\"workload\":\"go\","
        "\"sample\":\"1000:100:200\","
        "\"config\":{\"warmup_retired\":100}}}",
    };
    for (const char *line : bad) {
        err.clear();
        EXPECT_FALSE(parseRequest(line, &req, &err)) << line;
        EXPECT_FALSE(err.empty()) << line;
    }
}

TEST(Protocol, RejectsWhatValidateRejects)
{
    // A rule no per-key range catches: the daemon rejects it with
    // SimConfig::validate()'s own message instead of letting the
    // DmtEngine constructor exit.
    Request req;
    std::string err;
    EXPECT_FALSE(parseRequest("{\"op\":\"run\",\"job\":{\"workload\":"
                              "\"go\",\"config\":{\"l1i_bytes\":768}}}",
                              &req, &err));
    EXPECT_EQ(err, "l1i_bytes not a power of two");
    SimConfig local = SimConfig::dmt(6, 2);
    local.mem.l1i_bytes = 768;
    EXPECT_EQ(err, local.validate());
}

TEST(Protocol, DaemonAndLocalShareOneValidator)
{
    // One validator: every value the daemon rejects for a range, a
    // local run rejects too, with the same words.
    const struct
    {
        const char *key;
        int SimConfig::*field;
        int value;
    } cases[] = {
        {"recovery_fetch_stall", &SimConfig::recovery_fetch_stall, 3},
        {"recovery_dispatch_stall", &SimConfig::recovery_dispatch_stall,
         -1},
        {"tb_latency", &SimConfig::tb_latency, 1 << 21},
        {"max_threads", &SimConfig::max_threads, 0},
        {"tb_size", &SimConfig::tb_size, 4},
    };
    for (const auto &k : cases) {
        const std::string line = strprintf(
            "{\"op\":\"run\",\"job\":{\"workload\":\"go\","
            "\"config\":{\"%s\":%d}}}",
            k.key, k.value);
        Request req;
        std::string err;
        EXPECT_FALSE(parseRequest(line, &req, &err)) << line;

        SimConfig local = SimConfig::dmt(6, 2);
        local.*k.field = k.value;
        EXPECT_FALSE(local.validate().empty()) << k.key;
        EXPECT_EQ(err, local.validate()) << k.key;
    }
}

TEST(Protocol, BudgetDefaultsMatchLocalRuns)
{
    constexpr u64 kDefault = 4321; // ServeOptions::default_budget
    Request req;
    std::string err;
    ASSERT_TRUE(parseRequest(
        "{\"op\":\"run\",\"job\":{\"workload\":\"go\"}}", &req, &err,
        kDefault))
        << err;
    EXPECT_EQ(req.job.max_retired, 4321u)
        << "detailed default is the daemon's default budget";
    EXPECT_EQ(req.job.cfg.max_retired, 4321u)
        << "the resolved budget must be folded into the cache identity";

    ASSERT_TRUE(parseRequest("{\"op\":\"run\",\"job\":{\"workload\":"
                             "\"go\",\"sample\":\"1000:100:200\"}}",
                             &req, &err, kDefault))
        << err;
    EXPECT_EQ(req.job.max_retired, 4321u)
        << "sampled default is the daemon's default budget";

    ASSERT_TRUE(parseRequest("{\"op\":\"run\",\"job\":{\"workload\":"
                             "\"go\",\"sample\":\"1000:100:200\"}}",
                             &req, &err));
    EXPECT_EQ(req.job.max_retired, 0u)
        << "sampled with no default budget = whole program";

    // A budget the job names, 0 included, wins over the daemon's
    // default and resolves as runWorkloadJob() resolves it.
    ASSERT_TRUE(parseRequest("{\"op\":\"run\",\"job\":{\"workload\":"
                             "\"go\",\"sample\":\"1000:100:200\","
                             "\"max_retired\":0}}",
                             &req, &err, kDefault))
        << err;
    EXPECT_EQ(req.job.max_retired, 0u)
        << "sampled with an explicit 0 = whole program";
    EXPECT_EQ(req.job.cfg.max_retired, 0u);

    ASSERT_TRUE(parseRequest("{\"op\":\"run\",\"job\":{\"workload\":"
                             "\"go\",\"max_retired\":0}}",
                             &req, &err, kDefault))
        << err;
    EXPECT_EQ(req.job.max_retired, kBenchRunLength)
        << "detailed with an explicit 0 = runWorkloadJob()'s default";
    EXPECT_EQ(req.job.cfg.max_retired, kBenchRunLength);

    ASSERT_TRUE(parseRequest("{\"op\":\"run\",\"job\":{\"workload\":"
                             "\"go\",\"max_retired\":3000}}",
                             &req, &err, kDefault))
        << err;
    EXPECT_EQ(req.job.max_retired, 3000u)
        << "an explicit budget wins over the daemon's default";
}

TEST(Protocol, ExtractRawResult)
{
    const std::string doc = "{\"cycles\":123,\"ipc\":1.5}";
    const std::string reply =
        okRunReply(JsonValue{}, doc, 0x1234, 0x5678, true);
    std::string raw;
    ASSERT_TRUE(extractRawResult(reply, &raw));
    EXPECT_EQ(raw, doc) << "the slice must be byte-exact";
    EXPECT_FALSE(extractRawResult(errorReply(JsonValue{}, "x"), &raw));
}

TEST(Protocol, CacheKeySeparatesComponents)
{
    const SimConfig cfg = smallDmt();
    const u64 base = resultCacheKey(cfg, "go", SampleParams{});
    EXPECT_EQ(base, resultCacheKey(cfg, "go", SampleParams{}));
    EXPECT_NE(base, resultCacheKey(cfg, "li", SampleParams{}))
        << "the RunResult embeds the workload name, so the key must too";
    SimConfig other = cfg;
    other.fetch_ports = 4;
    EXPECT_NE(base, resultCacheKey(other, "go", SampleParams{}));
    SampleParams sp;
    std::string err;
    ASSERT_TRUE(SampleParams::parse("1000:100:200", &sp, &err));
    EXPECT_NE(base, resultCacheKey(cfg, "go", sp));
}

// ---- result cache ------------------------------------------------------

ComputedResult
okResult(const std::string &json)
{
    ComputedResult r;
    r.ok = true;
    r.json = json;
    r.hash = fnv1aHash(json);
    return r;
}

TEST(ResultCache, MissThenHit)
{
    ResultCache cache(8);
    int calls = 0;
    auto out = cache.getOrCompute(1, [&] {
        ++calls;
        return okResult("one");
    });
    EXPECT_TRUE(out.ok);
    EXPECT_FALSE(out.cached);
    EXPECT_EQ(out.json, "one");

    out = cache.getOrCompute(1, [&] {
        ++calls;
        return okResult("never");
    });
    EXPECT_TRUE(out.ok);
    EXPECT_TRUE(out.cached);
    EXPECT_EQ(out.json, "one");
    EXPECT_EQ(calls, 1);

    const auto c = cache.counters();
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.entries, 1u);
}

TEST(ResultCache, LruEvictionKeepsRecentlyUsed)
{
    ResultCache cache(2);
    auto fill = [&](u64 key, const char *json) {
        cache.getOrCompute(key, [&] { return okResult(json); });
    };
    fill(1, "one");
    fill(2, "two");
    // Touch 1 so 2 becomes the eviction victim.
    cache.getOrCompute(1, [&] { return okResult("never"); });
    fill(3, "three");
    EXPECT_EQ(cache.counters().evictions, 1u);

    int recomputed = 0;
    auto out = cache.getOrCompute(1, [&] {
        ++recomputed;
        return okResult("one'");
    });
    EXPECT_TRUE(out.cached) << "1 was promoted, must have survived";
    out = cache.getOrCompute(2, [&] {
        ++recomputed;
        return okResult("two'");
    });
    EXPECT_FALSE(out.cached) << "2 was the LRU entry, must be gone";
    EXPECT_EQ(recomputed, 1);
}

TEST(ResultCache, ErrorsAreNotCached)
{
    ResultCache cache(8);
    int calls = 0;
    auto out = cache.getOrCompute(9, [&]() -> ComputedResult {
        ++calls;
        ComputedResult r;
        r.error = "boom";
        return r;
    });
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.error, "boom");
    out = cache.getOrCompute(9, [&] {
        ++calls;
        return okResult("recovered");
    });
    EXPECT_TRUE(out.ok);
    EXPECT_FALSE(out.cached) << "a failure must not poison the key";
    EXPECT_EQ(calls, 2);
}

TEST(ResultCache, SingleFlightDeduplicates)
{
    ResultCache cache(8);
    std::atomic<int> calls{0};
    auto compute = [&] {
        calls.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return okResult("shared");
    };
    ResultCache::Outcome a, b;
    std::thread t1([&] { a = cache.getOrCompute(5, compute); });
    // Give t1 a head start so t2 joins the in-flight computation.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::thread t2([&] { b = cache.getOrCompute(5, compute); });
    t1.join();
    t2.join();
    EXPECT_EQ(calls.load(), 1) << "one computation, two answers";
    EXPECT_TRUE(a.ok);
    EXPECT_TRUE(b.ok);
    EXPECT_EQ(a.json, "shared");
    EXPECT_EQ(b.json, "shared");
    EXPECT_TRUE(a.cached || b.cached);
    EXPECT_EQ(cache.counters().joins, 1u);
}

// ---- durable result cache ---------------------------------------------

TEST(DurableCache, SpillsAndRestoresAcrossInstances)
{
    const std::string dir = tempCacheDir("durable");
    const u64 key = 0x1998;
    {
        ResultCache cache(8, dir);
        const auto out =
            cache.getOrCompute(key, [] { return okResult("payload"); });
        EXPECT_TRUE(out.ok);
        EXPECT_FALSE(out.cached);
        EXPECT_EQ(cache.counters().spills, 1u);
    }

    // A brand-new instance (a restarted daemon) must answer from disk
    // without computing, and the disk hit must look like a cache hit.
    ResultCache fresh(8, dir);
    int calls = 0;
    auto out = fresh.getOrCompute(key, [&] {
        ++calls;
        return okResult("never");
    });
    EXPECT_TRUE(out.ok);
    EXPECT_TRUE(out.cached);
    EXPECT_EQ(out.json, "payload");
    EXPECT_EQ(out.hash, fnv1aHash("payload"));
    EXPECT_EQ(calls, 0);
    auto c = fresh.counters();
    EXPECT_EQ(c.disk_hits, 1u);
    EXPECT_EQ(c.misses, 0u);

    // The restored entry now lives in memory: no second disk probe.
    out = fresh.getOrCompute(key, [&] {
        ++calls;
        return okResult("never");
    });
    EXPECT_TRUE(out.cached);
    EXPECT_EQ(calls, 0);
    EXPECT_EQ(fresh.counters().disk_hits, 1u);
    EXPECT_EQ(fresh.counters().hits, 1u);
}

TEST(DurableCache, ErrorsAreNeverSpilled)
{
    const std::string dir = tempCacheDir("errspill");
    const u64 key = 0x7;
    ResultCache cache(8, dir);
    cache.getOrCompute(key, [] {
        ComputedResult r;
        r.error = "boom";
        return r;
    });
    const std::string path = cache.dir() + "/" + hashHex(key) + ".dmtres";
    struct stat st{};
    EXPECT_NE(::stat(path.c_str(), &st), 0)
        << "a failed compute must not leave a durable entry";
    EXPECT_EQ(cache.counters().spills, 0u);
}

TEST(DurableCache, RejectsTornCorruptAndMisplacedFiles)
{
    const std::string dir = tempCacheDir("corrupt");
    const std::string entries = ResultCache(0, dir).dir();
    const u64 key = 11;
    const std::string path = entries + "/" + hashHex(key) + ".dmtres";

    const auto spill = [&] {
        std::remove(path.c_str());
        ResultCache c(8, dir);
        c.getOrCompute(key,
                       [] { return okResult("the canonical bytes"); });
    };
    // Load through a fresh instance; returns (recomputed?, counters).
    const auto probe = [&](const char *label) {
        ResultCache c(8, dir);
        int calls = 0;
        const auto out = c.getOrCompute(key, [&] {
            ++calls;
            return okResult("recomputed");
        });
        EXPECT_TRUE(out.ok) << label;
        EXPECT_EQ(calls, 1) << label << ": corrupt file must be "
                            << "rejected and the result recomputed";
        EXPECT_EQ(out.json, "recomputed") << label;
        const auto ctr = c.counters();
        EXPECT_EQ(ctr.restore_rejected, 1u) << label;
        EXPECT_EQ(ctr.disk_hits, 0u) << label;
        EXPECT_EQ(ctr.spills, 1u)
            << label << ": the recompute must rewrite the entry";
    };

    // Torn write: the file ends mid-payload (no intact footer).
    spill();
    std::string bytes = readAll(path);
    ASSERT_GT(bytes.size(), 32u);
    writeAll(path, bytes.substr(0, bytes.size() - 5));
    probe("torn");

    // The rewrite left a healthy file behind: next instance disk-hits.
    {
        ResultCache c(8, dir);
        const auto out =
            c.getOrCompute(key, [] { return okResult("never"); });
        EXPECT_TRUE(out.cached);
        EXPECT_EQ(out.json, "recomputed");
        EXPECT_EQ(c.counters().disk_hits, 1u);
    }

    // Flipped payload bit: length intact, integrity footer mismatch.
    spill();
    bytes = readAll(path);
    bytes[26] = static_cast<char>(bytes[26] ^ 0x40);
    writeAll(path, bytes);
    probe("bitflip");

    // Wrong magic: a foreign or older-version file.
    spill();
    bytes = readAll(path);
    bytes[0] = 'X';
    writeAll(path, bytes);
    probe("magic");

    // A valid entry parked under the wrong key's filename (e.g. a
    // botched manual copy) must not be served as that key.
    spill();
    const u64 other = 12;
    const std::string other_path =
        entries + "/" + hashHex(other) + ".dmtres";
    writeAll(other_path, readAll(path));
    {
        ResultCache c(8, dir);
        int calls = 0;
        const auto out = c.getOrCompute(other, [&] {
            ++calls;
            return okResult("recomputed");
        });
        EXPECT_TRUE(out.ok);
        EXPECT_EQ(calls, 1);
        EXPECT_EQ(c.counters().restore_rejected, 1u);
    }
}

TEST(DurableCache, OpeningRemovesOtherBuildsEntries)
{
    const std::string dir = tempCacheDir("builds");
    const u64 key = 0x2024;
    std::string mine;
    {
        ResultCache cache(8, dir);
        mine = cache.dir();
        cache.getOrCompute(key, [] { return okResult("this build"); });
    }
    // What another build left: its identity subdirectory, and an entry
    // from before entries moved into one.  Other files stay.
    const std::string foreign = dir + "/0123456789abcdef";
    ASSERT_NE(mine, foreign);
    std::filesystem::create_directory(foreign);
    writeAll(foreign + "/" + hashHex(key) + ".dmtres", "old build");
    writeAll(dir + "/" + hashHex(key) + ".dmtres", "older layout");
    writeAll(dir + "/notes.txt", "not an entry");

    ResultCache fresh(8, dir);
    EXPECT_EQ(fresh.dir(), mine);
    EXPECT_FALSE(std::filesystem::exists(foreign))
        << "another build's entries are removed when the cache opens";
    EXPECT_FALSE(
        std::filesystem::exists(dir + "/" + hashHex(key) + ".dmtres"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/notes.txt"));
    int calls = 0;
    const auto out = fresh.getOrCompute(key, [&] {
        ++calls;
        return okResult("never");
    });
    EXPECT_TRUE(out.cached) << "this build's entries still restore";
    EXPECT_EQ(out.json, "this build");
    EXPECT_EQ(calls, 0);
}

// ---- wall-clock deadlines ----------------------------------------------

TEST(Deadline, ExpiredDeadlineAbortsDetailedRun)
{
    SimConfig cfg = smallDmt();
    cfg.max_retired = 50000; // long enough to cross a 4096-cycle granule
    cfg.deadline = std::chrono::steady_clock::now()
        - std::chrono::seconds(1);
    try {
        runWorkloadJob(cfg, "go", cfg.max_retired, SampleParams{});
        FAIL() << "an expired deadline must abort the run";
    } catch (const SimError &err) {
        EXPECT_NE(std::string(err.what()).find("deadline expired"),
                  std::string::npos)
            << err.what();
    }
}

TEST(Deadline, ExpiredDeadlineAbortsSampledRun)
{
    SampleParams p;
    std::string serr;
    ASSERT_TRUE(SampleParams::parse("20000:200:500:2", &p, &serr));
    SimConfig cfg = smallDmt();
    cfg.max_retired = 0;
    cfg.deadline = std::chrono::steady_clock::now()
        - std::chrono::seconds(1);
    clearCheckpointCache();
    try {
        runWorkloadJob(cfg, "go", 0, p);
        FAIL() << "an expired deadline must abort the sampled run";
    } catch (const SimError &err) {
        EXPECT_NE(std::string(err.what()).find("deadline expired"),
                  std::string::npos)
            << err.what();
    }
    clearCheckpointCache();
}

TEST(Deadline, DisarmedByDefaultAndExcludedFromIdentity)
{
    SimConfig cfg = smallDmt();
    EXPECT_FALSE(cfg.hasDeadline());
    SimConfig armed = cfg;
    armed.deadline = std::chrono::steady_clock::now()
        + std::chrono::hours(1);
    EXPECT_TRUE(armed.hasDeadline());
    EXPECT_EQ(canonicalHash(cfg), canonicalHash(armed))
        << "the deadline is scheduling state, not machine identity";
    EXPECT_EQ(resultCacheKey(cfg, "go", SampleParams{}),
              resultCacheKey(armed, "go", SampleParams{}))
        << "two budgets for the same cell must share one cache entry";
}

// ---- live daemon -------------------------------------------------------

class ServeEndToEnd : public ::testing::Test
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

    /** Submit @p job, expect success, return (raw result, reply). */
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

TEST_F(ServeEndToEnd, ColdCachedAndDirectAnswersAreByteIdentical)
{
    ServeClient c = makeClient();
    const JobSpec job = smallJob();

    JsonValue cold_reply;
    const std::string cold = runJob(c, job, &cold_reply);
    EXPECT_FALSE(cold_reply.find("cached")->asBool());

    JsonValue warm_reply;
    const std::string warm = runJob(c, job, &warm_reply, 2);
    EXPECT_TRUE(warm_reply.find("cached")->asBool());

    const RunResult direct = runWorkloadJob(job.cfg, job.workload,
                                            job.max_retired, job.sample);
    EXPECT_EQ(cold, direct.jsonString())
        << "daemon-computed bytes must equal a direct local run";
    EXPECT_EQ(warm, direct.jsonString())
        << "cache replay must not alter a single byte";
    EXPECT_EQ(cold_reply.find("result_hash")->asString(),
              hashHex(canonicalHash(direct)))
        << "the advertised digest must match the local digest";
    EXPECT_EQ(warm_reply.find("result_hash")->asString(),
              hashHex(canonicalHash(direct)));
    EXPECT_EQ(server->jobsSimulated(), 1u);
}

TEST_F(ServeEndToEnd, SpecsSharingAnImageAnswerWithTheirOwnBytes)
{
    // ptrchase ignores depth, so these two specs build one program
    // image; each RunResult still names its own spec.
    const char *const specs[] = {"gen:ptrchase:1", "gen:ptrchase:1:depth=5"};
    ASSERT_EQ(Checkpoint::programHash(buildWorkload(specs[0])),
              Checkpoint::programHash(buildWorkload(specs[1])));
    ServeClient c = makeClient();
    i64 id = 1;
    for (const char *spec : specs) {
        JobSpec job = smallJob(spec);
        JsonValue reply;
        const std::string raw = runJob(c, job, &reply, id++);
        const RunResult direct = runWorkloadJob(
            job.cfg, job.workload, job.max_retired, job.sample);
        EXPECT_EQ(raw, direct.jsonString()) << spec;
    }
}

TEST_F(ServeEndToEnd, ConcurrentIdenticalJobsSimulateOnce)
{
    constexpr int kClients = 4;
    std::vector<ServeClient> clients(kClients);
    for (auto &c : clients) {
        std::string err;
        ASSERT_TRUE(c.connect(server->port(), &err, 2.0)) << err;
    }
    const JobSpec job = smallJob("compress");
    const std::string line = runRequestLine(1, job);
    for (auto &c : clients) {
        std::string err;
        ASSERT_TRUE(c.sendLine(line, &err)) << err;
    }
    std::vector<std::string> raws;
    for (auto &c : clients) {
        JsonValue reply;
        std::string err, raw;
        ASSERT_TRUE(c.recvReply(&reply, &err)) << err;
        ASSERT_TRUE(reply.find("ok")->asBool()) << c.lastLine();
        ASSERT_TRUE(extractRawResult(c.lastLine(), &raw));
        raws.push_back(raw);
    }
    for (int i = 1; i < kClients; ++i)
        EXPECT_EQ(raws[0], raws[i]) << "all N replies identical";
    EXPECT_EQ(server->jobsSimulated(), 1u)
        << "N duplicate submissions, exactly one simulation";
}

TEST_F(ServeEndToEnd, BadJobsAreContainedGoodJobsStillRun)
{
    ServeClient c = makeClient();
    std::string err;
    JsonValue reply;

    // Malformed request: error reply, connection stays up.
    ASSERT_TRUE(c.request("this is not json", &reply, &err)) << err;
    EXPECT_FALSE(reply.find("ok")->asBool());

    // Valid JSON, invalid job: rejection with a reason.
    ASSERT_TRUE(c.request("{\"op\":\"run\",\"id\":9,\"job\":"
                          "{\"workload\":\"nosuch\"}}",
                          &reply, &err))
        << err;
    EXPECT_FALSE(reply.find("ok")->asBool());
    EXPECT_NE(reply.find("error")->asString().find("nosuch"),
              std::string::npos);

    // A SimError inside a job (watchdog trip) becomes an error reply,
    // not a daemon death.
    JobSpec doomed = smallJob();
    doomed.cfg.watchdog_cycles = 1;
    ASSERT_TRUE(c.request(runRequestLine(10, doomed), &reply, &err))
        << err;
    EXPECT_FALSE(reply.find("ok")->asBool()) << c.lastLine();

    // The daemon survived all of the above and still serves.
    JsonValue good_reply;
    runJob(c, smallJob(), &good_reply, 11);
    EXPECT_TRUE(good_reply.find("ok")->asBool());
}

TEST_F(ServeEndToEnd, SampledRunThatMeasuresNothingIsASimError)
{
    // gen:prodcons:3 HALTs after 450 instructions, before its first
    // window at 20000: the reply is a sim_error, nothing is cached (a
    // repeat simulates again) and the daemon still serves.
    ServeClient c = makeClient();
    JobSpec doomed = smallJob("gen:prodcons:3");
    std::string err;
    ASSERT_TRUE(SampleParams::parse("20000:500:1500", &doomed.sample, &err))
        << err;
    for (i64 id = 1; id <= 2; ++id) {
        JsonValue reply;
        ASSERT_TRUE(c.request(runRequestLine(id, doomed), &reply, &err))
            << err;
        EXPECT_FALSE(reply.find("ok")->asBool()) << c.lastLine();
        EXPECT_EQ(replyErrorKind(reply), errkind::kSimError)
            << c.lastLine();
        EXPECT_NE(reply.find("error")->asString().find(
                      "measured no window"),
                  std::string::npos)
            << c.lastLine();
    }
    EXPECT_EQ(server->jobsSimulated(), 2u) << "an error is never cached";

    JsonValue good_reply;
    runJob(c, smallJob(), &good_reply, 3);
    EXPECT_TRUE(good_reply.find("ok")->asBool());
}

TEST_F(ServeEndToEnd, StatsReportQueueAndCaches)
{
    ServeClient c = makeClient();
    JsonValue reply;
    runJob(c, smallJob(), &reply);
    runJob(c, smallJob(), &reply, 2);

    std::string err;
    ASSERT_TRUE(
        c.request(simpleRequestLine("stats", 3), &reply, &err))
        << err;
    const JsonValue *stats = reply.find("stats");
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->find("jobs_simulated")->asNumber(), 1.0);
    EXPECT_EQ(stats->find("queue_depth")->asNumber(), 0.0);
    const JsonValue *cache = stats->find("cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->find("hits")->asNumber(), 1.0);
    EXPECT_EQ(cache->find("misses")->asNumber(), 1.0);
    ASSERT_NE(stats->find("ckpt_cache"), nullptr)
        << "checkpoint-cache counters ride along in stats";
}

TEST_F(ServeEndToEnd, ShutdownDrainsCleanly)
{
    ServeClient c = makeClient();
    JsonValue reply;
    runJob(c, smallJob(), &reply);

    std::string err;
    ASSERT_TRUE(
        c.request(simpleRequestLine("shutdown", 2), &reply, &err))
        << err;
    EXPECT_TRUE(reply.find("ok")->asBool());
    EXPECT_TRUE(server->draining());
    server->join();

    ServeClient late;
    EXPECT_FALSE(late.connect(server->port(), &err, 0.0))
        << "a drained daemon must not accept new connections";
}

TEST_F(ServeEndToEnd, FinishedReadersDoNotKeepTheirStacks)
{
    // Every connection gets a reader thread.  Once its client hangs up
    // the acceptor must join it, or each finished reader keeps its
    // stack and guard page mapped for the daemon's lifetime.
    const auto mappings = [] {
        std::ifstream maps("/proc/self/maps");
        size_t n = 0;
        for (std::string line; std::getline(maps, line);)
            ++n;
        return n;
    };
    const auto ping = [&](i64 id) {
        ServeClient c = makeClient();
        JsonValue reply;
        std::string err;
        ASSERT_TRUE(c.request(simpleRequestLine("ping", id), &reply, &err))
            << err;
    };
    for (i64 id = 0; id < 8; ++id) // warm the thread-stack cache
        ping(id);
    const size_t before = mappings();
    constexpr i64 kConnections = 240;
    for (i64 id = 0; id < kConnections; ++id)
        ping(id);
    EXPECT_LT(mappings(), before + 50)
        << kConnections << " closed connections left their readers mapped";
}

// ---- crash-safe durable service ---------------------------------------

TEST(CrashRestart, RestartedDaemonRepliesFromDiskSimulatingNothing)
{
    const std::string dir = tempCacheDir("restart");
    ServeOptions opts;
    opts.port = 0;
    opts.pool = 2;
    opts.cache_entries = 64;
    opts.drain_s = 10.0;
    opts.cache_dir = dir;

    const std::vector<std::string> workloads = {"go", "compress", "li"};
    std::vector<std::string> first_raws;
    {
        Server server(opts);
        std::string err;
        ASSERT_TRUE(server.start(&err)) << err;
        ServeClient c;
        ASSERT_TRUE(c.connect(server.port(), &err, 2.0)) << err;
        for (size_t i = 0; i < workloads.size(); ++i) {
            JsonValue reply;
            std::string raw;
            ASSERT_TRUE(c.request(
                runRequestLine(static_cast<i64>(i),
                               smallJob(workloads[i])),
                &reply, &err))
                << err;
            ASSERT_TRUE(reply.find("ok")->asBool()) << c.lastLine();
            ASSERT_TRUE(extractRawResult(c.lastLine(), &raw));
            first_raws.push_back(raw);
        }
        EXPECT_EQ(server.jobsSimulated(), workloads.size());
        // The daemon dies here.  Every result was spilled at compute
        // time with an atomic rename, so even a kill -9 at any point
        // (the CI smoke does the real one) loses at most the job that
        // was mid-flight — never an answered one.
    }

    Server revived(opts);
    std::string err;
    ASSERT_TRUE(revived.start(&err)) << err;
    ServeClient c;
    ASSERT_TRUE(c.connect(revived.port(), &err, 2.0)) << err;
    for (size_t i = 0; i < workloads.size(); ++i) {
        JsonValue reply;
        std::string raw;
        ASSERT_TRUE(c.request(
            runRequestLine(static_cast<i64>(i), smallJob(workloads[i])),
            &reply, &err))
            << err;
        ASSERT_TRUE(reply.find("ok")->asBool()) << c.lastLine();
        EXPECT_TRUE(reply.find("cached")->asBool())
            << "a replayed cell must be served, not re-simulated";
        ASSERT_TRUE(extractRawResult(c.lastLine(), &raw));
        EXPECT_EQ(raw, first_raws[i])
            << "disk replay must not alter a single byte";
    }
    EXPECT_EQ(revived.jobsSimulated(), 0u)
        << "the whole replayed grid must come from disk";

    JsonValue reply;
    ASSERT_TRUE(c.request(simpleRequestLine("stats", 99), &reply, &err))
        << err;
    const JsonValue *cache = reply.find("stats")->find("cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->find("disk_hits")->asNumber(),
              static_cast<double>(workloads.size()));
    EXPECT_EQ(cache->find("misses")->asNumber(), 0.0);
}

TEST(Backpressure, FullQueueRepliesOverloadedAndDaemonSurvives)
{
    ServeOptions opts;
    opts.port = 0;
    opts.pool = 1;
    opts.cache_entries = 64;
    opts.drain_s = 10.0;
    opts.queue_max = 1;
    Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    ServeClient c;
    ASSERT_TRUE(c.connect(server.port(), &err, 2.0)) << err;

    // 24 distinct cells fired in one burst at a single worker with a
    // one-deep queue: the worker cannot possibly drain 24 cold
    // simulations while the burst is being parsed, so some requests
    // must bounce with a structured "overloaded" reply.
    constexpr int kJobs = 24;
    for (int i = 0; i < kJobs; ++i) {
        JobSpec job = smallJob();
        job.cfg.max_retired = kBudget + static_cast<u64>(i);
        job.max_retired = job.cfg.max_retired;
        ASSERT_TRUE(
            c.sendLine(runRequestLine(i, job), &err))
            << err;
    }
    int ok = 0, overloaded = 0;
    for (int i = 0; i < kJobs; ++i) {
        JsonValue reply;
        ASSERT_TRUE(c.recvReply(&reply, &err)) << err;
        if (reply.find("ok")->asBool()) {
            ++ok;
            continue;
        }
        EXPECT_EQ(replyErrorKind(reply), errkind::kOverloaded)
            << c.lastLine();
        ++overloaded;
    }
    EXPECT_EQ(ok + overloaded, kJobs);
    EXPECT_GT(ok, 0) << "an empty queue must accept work";
    EXPECT_GT(overloaded, 0) << "a full queue must shed work";

    // Rejection is per-request, not per-daemon: the service still
    // answers, and the stats account for every rejection.
    JsonValue reply;
    ASSERT_TRUE(
        c.request(simpleRequestLine("stats", 1000), &reply, &err))
        << err;
    EXPECT_EQ(reply.find("stats")->find("rejected_overload")->asNumber(),
              static_cast<double>(overloaded));
    JobSpec again = smallJob();
    again.cfg.max_retired = kBudget;
    ASSERT_TRUE(
        c.request(runRequestLine(2000, again), &reply, &err))
        << err;
    EXPECT_TRUE(reply.find("ok")->asBool()) << c.lastLine();
}

TEST(DeadlineService, ExpiredJobsFailAloneWithDeadlineKind)
{
    ServeOptions opts;
    opts.port = 0;
    opts.pool = 1;
    opts.cache_entries = 64;
    opts.drain_s = 10.0;
    Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    ServeClient c;
    ASSERT_TRUE(c.connect(server.port(), &err, 2.0)) << err;

    // Eight cold cells occupy the single worker for many milliseconds;
    // the ninth job's 1 ms budget expires while it waits in queue (or,
    // at worst, a few thousand cycles into its run — either way the
    // reply kind is "deadline" and only that job fails).
    constexpr int kBlockers = 8;
    for (int i = 0; i < kBlockers; ++i) {
        JobSpec job = smallJob("compress");
        job.cfg.max_retired = kBudget + 100 + static_cast<u64>(i);
        job.max_retired = job.cfg.max_retired;
        ASSERT_TRUE(c.sendLine(runRequestLine(i, job), &err)) << err;
    }
    JobSpec doomed = smallJob("li");
    doomed.cfg.max_retired = 50000;
    doomed.max_retired = 50000;
    doomed.deadline_ms = 1;
    ASSERT_TRUE(c.sendLine(runRequestLine(100, doomed), &err)) << err;

    int blockers_ok = 0;
    bool doomed_failed = false;
    for (int i = 0; i < kBlockers + 1; ++i) {
        JsonValue reply;
        ASSERT_TRUE(c.recvReply(&reply, &err)) << err;
        const i64 id =
            static_cast<i64>(reply.find("id")->asNumber());
        if (id == 100) {
            EXPECT_FALSE(reply.find("ok")->asBool());
            EXPECT_EQ(replyErrorKind(reply), errkind::kDeadline)
                << c.lastLine();
            EXPECT_NE(reply.find("error")->asString().find(
                          "deadline expired"),
                      std::string::npos);
            doomed_failed = true;
        } else if (reply.find("ok")->asBool()) {
            ++blockers_ok;
        }
    }
    EXPECT_TRUE(doomed_failed);
    EXPECT_EQ(blockers_ok, kBlockers)
        << "a deadline kills one job, never its queue-mates";

    JsonValue reply;
    ASSERT_TRUE(
        c.request(simpleRequestLine("stats", 101), &reply, &err))
        << err;
    EXPECT_GE(reply.find("stats")->find("deadline_expired")->asNumber(),
              1.0);
}

TEST(DeadlineService, ProtocolCarriesDeadlineMs)
{
    JobSpec job = smallJob();
    job.deadline_ms = 2500;
    const std::string line = runRequestLine(1, job);
    Request req;
    std::string err;
    ASSERT_TRUE(parseRequest(line, &req, &err)) << err;
    EXPECT_EQ(req.job.deadline_ms, 2500u);

    // Not part of the job identity: same cell, different budget.
    JobSpec other = smallJob();
    other.deadline_ms = 9000;
    EXPECT_EQ(resultCacheKey(req.job.cfg, "go", req.job.sample),
              resultCacheKey(other.cfg, "go", other.sample));
}

// ---- client resilience -------------------------------------------------

TEST(ClientTimeout, SilentServerSurfacesDistinctTimeout)
{
    // A listener that accepts and then never speaks.
    const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(lfd, 4), 0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr *>(&addr),
                            &len),
              0);
    const int port = ntohs(addr.sin_port);

    ServeClient c;
    std::string err;
    ASSERT_TRUE(c.connect(port, &err, 1.0)) << err;
    c.setTimeout(0.1);
    std::string line;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(c.recvLine(&line, &err));
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - t0)
            .count();
    EXPECT_TRUE(c.timedOut()) << err;
    EXPECT_NE(err.find("timeout"), std::string::npos) << err;
    EXPECT_LT(waited, 2.0) << "the wait must be bounded";
    ::close(lfd);
}

TEST(ClientRetry, GivesUpAgainstDeadPortAfterBoundedAttempts)
{
    // Grab an ephemeral port and close it so nothing listens there.
    const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    ::getsockname(lfd, reinterpret_cast<sockaddr *>(&addr), &len);
    const int dead_port = ntohs(addr.sin_port);
    ::close(lfd);

    ServeClient c;
    RetryPolicy pol;
    pol.attempts = 3;
    pol.base_s = 0.01;
    pol.max_s = 0.02;
    JsonValue reply;
    std::string err;
    EXPECT_FALSE(c.requestWithRetry(dead_port,
                                    simpleRequestLine("ping", 1), 1,
                                    pol, &reply, &err));
    EXPECT_NE(err.find("3 attempts"), std::string::npos) << err;
}

TEST_F(ServeEndToEnd, RetryAnswersFirstTimeAndAfterConnectionLoss)
{
    ServeClient c;
    RetryPolicy pol;
    pol.attempts = 5;
    pol.base_s = 0.01;
    pol.max_s = 0.05;
    pol.op_timeout_s = 5.0;
    JsonValue reply;
    std::string err;
    // Never connected: requestWithRetry owns the connection.
    ASSERT_TRUE(c.requestWithRetry(server->port(),
                                   runRequestLine(3, smallJob()), 3,
                                   pol, &reply, &err))
        << err;
    EXPECT_TRUE(reply.find("ok")->asBool());

    // Sever the connection behind the client's back; the next request
    // must transparently reconnect and still verify result_hash.
    c.close();
    ASSERT_TRUE(c.requestWithRetry(server->port(),
                                   runRequestLine(4, smallJob()), 4,
                                   pol, &reply, &err))
        << err;
    EXPECT_TRUE(reply.find("ok")->asBool());
    EXPECT_TRUE(reply.find("cached")->asBool());
}

// ---- protocol fuzz -----------------------------------------------------

TEST_F(ServeEndToEnd, SeededGarbageNeverKillsTheDaemon)
{
    ServeClient c = makeClient();
    std::string err;
    Rng rng(20260808);
    constexpr int kLines = 300;
    const std::string valid = runRequestLine(1, smallJob());
    for (int i = 0; i < kLines; ++i) {
        std::string junk;
        if (rng.chance(0.3)) {
            // Truncated prefix of a well-formed request: the torn-line
            // shape a crashed client or fault injector produces.
            junk = valid.substr(0, 1 + rng.below(valid.size() - 1));
        } else {
            const u64 n = 1 + rng.below(120);
            for (u64 j = 0; j < n; ++j) {
                char ch = static_cast<char>(rng.below(256));
                if (ch == '\n' || ch == '\r' || ch == '\0')
                    ch = '?';
                junk.push_back(ch);
            }
        }
        ASSERT_TRUE(c.sendLine(junk, &err)) << err;
    }
    // Every junk line gets exactly one structured rejection, in order.
    for (int i = 0; i < kLines; ++i) {
        JsonValue reply;
        ASSERT_TRUE(c.recvReply(&reply, &err)) << err << " line " << i;
        EXPECT_FALSE(reply.find("ok")->asBool());
        EXPECT_EQ(replyErrorKind(reply), errkind::kBadRequest)
            << c.lastLine();
    }

    // An oversized line (no newline within the 1 MiB cap) costs that
    // connection only.
    ServeClient big = makeClient();
    ASSERT_TRUE(big.sendLine(std::string(2u << 20, 'x'), &err)) << err;
    JsonValue reply;
    if (big.recvReply(&reply, &err)) {
        EXPECT_FALSE(reply.find("ok")->asBool());
        EXPECT_EQ(replyErrorKind(reply), errkind::kBadRequest);
    }

    // After all of it, a well-formed request on the original
    // connection still gets a correct answer.
    runJob(c, smallJob(), &reply, 9999);
    EXPECT_TRUE(reply.find("ok")->asBool());
}

} // namespace
} // namespace dmt
