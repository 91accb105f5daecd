/**
 * @file
 * serve_grid: an in-process daemon on an ephemeral loopback port,
 * replayed by a closed loop of client connections.  The seeded stream
 * repeats every unique job several times: a Figure-4 grid (eight
 * kernels on the baseline and 2/4/6-thread DMT, detailed, small
 * budget) and distinct phase-sampled generated programs, each on two
 * machines.  That exercises protocol parsing, result-cache hits beside
 * misses that simulate and spill, hits queued behind misses (each
 * connection keeps two requests in flight, so the two workers always
 * have a queue), and reuse and growth of the process-wide checkpoint
 * and phase caches.  Every replay starts cold: a fresh daemon, a fresh
 * durable cache directory and cleared process-wide caches.
 */

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "common/strutil.hh"
#include "exp/experiments.hh"
#include "exp/phase.hh"
#include "exp/runner.hh"
#include "exp/sampled.hh"
#include "layers.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "workloads.hh"
#include "workloads/workloads.hh"

namespace dmtbench
{

using namespace dmt;

namespace
{

constexpr int kPool = 2;    ///< daemon workers
constexpr int kClients = 2; ///< connections; pool + connections <= nproc
constexpr size_t kDepth = 2; ///< requests each connection keeps in flight
constexpr size_t kRepeats = 5; ///< appearances of every unique job
/** Most of a replay's work is seed-independent Figure-4 cells; the
 *  sampled programs' phase count (hence window count) moves with the
 *  seed, so their windows are kept short. */
constexpr u64 kGridBudget = 20000;
constexpr const char *kSampleSpec = "phase:20000:2000:2000:4:16:42";
constexpr u64 kWholeProgram = 1'000'000'000;
constexpr double kReplyTimeoutS = 60.0;

/** One unique job of the stream. */
struct Job
{
    JobSpec asked;   ///< as the client builds it
    JobSpec spec;    ///< as the daemon parses it: the spec of record
    bool sampled = false;
    RunResult ref;   ///< direct runWorkloadJob of the same spec
    std::string ref_json;
};

struct Reply
{
    size_t job = 0;
    double latency = 0.0;
    bool ok = false;
    bool cached = false;
    std::string error;
    std::string result;
};

struct Replay
{
    std::vector<std::string> lines; ///< request lines, id = stream position
    double setup_s = 0.0;
    double wall_s = 0.0;
    double peak_rss_mb = 0.0; ///< from daemon start to its exit
    std::vector<Reply> replies;
    JsonValue stats;
    CheckpointCacheCounters ckc;
    PhaseCacheCounters phc;
    std::vector<double> idle_hits; ///< lock-step hits after the replay
};

std::vector<Job>
makeJobs(u64 seed)
{
    std::vector<std::pair<SimConfig, std::string>> specs;
    for (const WorkloadInfo &w : workloadSuite()) {
        specs.emplace_back(exp::baseline(), w.name);
        for (int t : {2, 4, 6})
            specs.emplace_back(exp::fig4Dmt(t), w.name);
    }
    const size_t grid = specs.size();
    // Distinct generated programs, seeded from the workload seed, each
    // requested on two machines so the second reuses the first's
    // phase analysis and checkpoints.
    const char *const gen[] = {"gen:loopnest:%llu:trips=8000",
                               "gen:calltree:%llu:units=8192",
                               "gen:branchy:%llu:trips=8000",
                               "gen:alias:%llu:trips=8000"};
    for (size_t i = 0; i < 4; ++i) {
        const unsigned long long s = mix64(seed * 7 + i) % 1000000;
        for (int t : {2, 6})
            specs.emplace_back(exp::fig4Dmt(t), strprintf(gen[i], s));
    }

    SampleParams sampled;
    std::string err;
    if (!SampleParams::parse(kSampleSpec, &sampled, &err))
        panic("bad sample spec %s: %s", kSampleSpec, err.c_str());
    std::vector<Job> jobs;
    for (size_t j = 0; j < specs.size(); ++j) {
        Job job;
        job.sampled = j >= grid;
        job.asked.cfg = specs[j].first;
        job.asked.workload = specs[j].second;
        job.asked.sample = job.sampled ? sampled : SampleParams{};
        job.asked.max_retired = job.sampled ? kWholeProgram : kGridBudget;
        Request req;
        if (!parseRequest(runRequestLine(0, job.asked), &req, &err))
            panic("job %zu rejected: %s", j, err.c_str());
        job.spec = req.job;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

/**
 * One connection's closed loop over the shared stream: keep kDepth
 * requests in flight, send the next one as each reply arrives.
 * Request ids are stream positions, so replies may come back in any
 * order.  Spans are recorded whole, because pipelined requests
 * overlap: the request, its send, and the receive that got its reply.
 */
void
clientLoop(ServeClient &cl, const std::vector<std::string> &lines,
           const std::vector<size_t> &stream, std::atomic<size_t> &next,
           Spans &sp, std::vector<Reply> &out)
{
    struct InFlight
    {
        size_t i;
        u64 op;
        double t0, sent;
    };
    std::vector<InFlight> inflight;
    std::string err;
    const auto failAll = [&](const std::string &why) {
        for (const InFlight &f : inflight) {
            Reply r;
            r.job = stream[f.i];
            r.error = why;
            out.push_back(std::move(r));
        }
    };
    for (;;) {
        while (inflight.size() < kDepth) {
            const size_t i = next.fetch_add(1);
            if (i >= stream.size())
                break;
            InFlight f{i, sp.beginOp(), nowS(), 0.0};
            const bool sent = cl.sendLine(lines[i], &err);
            f.sent = nowS();
            inflight.push_back(f);
            if (!sent) {
                failAll("send: " + err);
                return;
            }
        }
        if (inflight.empty())
            return;
        std::string line;
        const double r0 = nowS();
        if (!cl.recvLine(&line, &err)) {
            // A timed-out or broken connection cannot be reused; the
            // other connection drains the rest of the stream.
            failAll(err);
            return;
        }
        const double r1 = nowS();
        JsonValue v;
        std::string perr;
        if (!JsonValue::parse(line, &v, &perr)) {
            failAll("unparsable reply: " + perr);
            return;
        }
        const JsonValue *id = v.find("id");
        const auto it = std::find_if(
            inflight.begin(), inflight.end(), [&](const InFlight &f) {
                return id && id->asNumber() == static_cast<double>(f.i);
            });
        if (it == inflight.end()) {
            failAll("reply for no request in flight: " + line);
            return;
        }
        const InFlight f = *it;
        inflight.erase(it);
        const long root = sp.record("op.serve_request", f.op, -1, f.t0, r1);
        sp.record("serve.ServeClient.sendLine", f.op, root, f.t0, f.sent);
        sp.record("serve.ServeClient.recvLine", f.op, root, r0, r1);

        Reply r;
        r.job = stream[f.i];
        r.latency = r1 - f.t0;
        if (const JsonValue *ok = v.find("ok"); !ok || !ok->asBool()) {
            const JsonValue *e = v.find("error");
            r.error = "error reply: "
                + (e ? e->asString() : std::string("(none)"));
        } else if (!extractRawResult(line, &r.result)) {
            r.error = "reply without a result";
        } else {
            const JsonValue *cached = v.find("cached");
            r.ok = true;
            r.cached = cached && cached->asBool();
        }
        out.push_back(std::move(r));
    }
}

Replay
replayOnce(const std::vector<Job> &jobs, const std::vector<size_t> &stream,
           const std::string &cache_dir, bool tracing, int pass,
           bool probe_idle, Spans &sp, Tally &tally)
{
    Replay out;
    clearCheckpointCache();
    clearPhaseCache();
    std::filesystem::remove_all(cache_dir);
    std::filesystem::create_directories(cache_dir);
    resetPeakRss();

    ServeOptions so;
    so.port = 0;
    so.pool = kPool;
    so.cache_entries = 4096;
    so.drain_s = 30.0;
    so.cache_dir = cache_dir;
    so.queue_max = 1024;
    so.deadline_s = 0.0;

    // Set-up: the clients write their requests, the daemon starts, and
    // every connection is up once the daemon has answered a ping.
    const double s0 = nowS();
    for (size_t i = 0; i < stream.size(); ++i)
        out.lines.push_back(
            runRequestLine(static_cast<i64>(i), jobs[stream[i]].asked));
    const std::vector<std::string> &lines = out.lines;
    Server srv(so);
    std::string err;
    if (!srv.start(&err)) {
        tally.fail("daemon start: " + err);
        return out;
    }
    std::vector<ServeClient> clients(kClients);
    for (ServeClient &cl : clients) {
        JsonValue pong;
        if (!cl.connect(srv.port(), &err, 5.0)) {
            tally.fail("connect: " + err);
            return out;
        }
        cl.setTimeout(kReplyTimeoutS);
        if (!cl.request(simpleRequestLine("ping", -1), &pong, &err)) {
            tally.fail("ping: " + err);
            return out;
        }
    }
    out.setup_s = nowS() - s0;

    std::atomic<size_t> next{0};
    std::vector<std::vector<Reply>> replies(kClients);
    std::vector<Spans> client_spans(kClients);
    const double r0 = nowS();
    {
        std::vector<std::thread> threads;
        for (int c = 0; c < kClients; ++c) {
            client_spans[c].setRecording(tracing);
            client_spans[c].setPass(pass);
            threads.emplace_back(clientLoop, std::ref(clients[c]),
                                 std::cref(lines), std::cref(stream),
                                 std::ref(next), std::ref(client_spans[c]),
                                 std::ref(replies[c]));
        }
        for (std::thread &t : threads)
            t.join();
    }
    out.wall_s = nowS() - r0;
    for (int c = 0; c < kClients; ++c) {
        sp.absorb(client_spans[c]);
        for (Reply &r : replies[c])
            out.replies.push_back(std::move(r));
    }

    std::string perr;
    if (!JsonValue::parse(srv.statsJson(), &out.stats, &perr))
        tally.fail("unparsable daemon stats: " + perr);
    out.ckc = checkpointCacheCounters();
    out.phc = phaseCacheCounters();

    if (probe_idle && clients[0].connected()) {
        // Every job is cached now: lock-step requests on an idle daemon
        // give the hit latency without queueing.
        for (int rep = 0; rep < 3; ++rep) {
            for (const std::string &req : lines) {
                std::string line;
                const double t0 = nowS();
                if (!clients[0].sendLine(req, &err)
                    || !clients[0].recvLine(&line, &err)) {
                    tally.fail("idle hit probe: " + err);
                    break;
                }
                out.idle_hits.push_back(nowS() - t0);
            }
        }
    }

    for (ServeClient &cl : clients)
        cl.close();
    srv.requestDrain();
    srv.join();
    out.peak_rss_mb = peakRssMb();
    std::filesystem::remove_all(cache_dir);
    return out;
}

double
statNumber(const JsonValue &stats, const char *group, const char *key)
{
    const JsonValue *g = group ? stats.find(group) : &stats;
    const JsonValue *v = g ? g->find(key) : nullptr;
    return v ? v->asNumber() : 0.0;
}

} // namespace

Report
runServeGrid(const Options &o, Spans &sp)
{
    Report rep;
    std::vector<Job> jobs = makeJobs(o.seed);
    const std::vector<size_t> stream =
        requestStream(o.seed, jobs.size(), kRepeats);

    // Untimed direct references: every reply must carry exactly these
    // bytes, cold or cached.
    for (Job &j : jobs) {
        rep.tally.attempt();
        try {
            j.ref = runWorkloadJob(j.spec.cfg, j.spec.workload,
                                   j.spec.max_retired, j.spec.sample);
            j.ref_json = j.ref.jsonString();
        } catch (const SimError &e) {
            rep.tally.fail(j.spec.workload + ": " + e.what());
        }
    }

    const std::string cache_dir = o.scratch + "/serve-cache";
    // Miss latencies are kept per request class, so no percentile
    // straddles the boundary between detailed and sampled misses.
    std::vector<double> setup, walls, traced_walls, rss, hits, misses,
        sampled_misses, idle;
    double answered_instr = 0.0;
    for (size_t i : stream) {
        const RunResult &r = jobs[i].ref;
        answered_instr += static_cast<double>(
            jobs[i].sampled ? r.sampling.covered : r.retired);
    }
    Replay last;
    HostSpeed host;
    const double t_end = nowS() + o.seconds;
    for (int pass = 0; pass < 3 || nowS() < t_end; ++pass) {
        const bool tracing = o.trace && pass % 2 == 1;
        const bool probe = o.trace && pass == 0;
        for (int k = 0; k < 5; ++k)
            host.sample();
        Replay r = replayOnce(jobs, stream, cache_dir, tracing, pass, probe,
                              sp, rep.tally);
        for (size_t k = 0; k < stream.size(); ++k)
            rep.tally.attempt();
        for (size_t k = r.replies.size(); k < stream.size(); ++k)
            rep.tally.fail("request never answered");
        for (const Reply &reply : r.replies) {
            const Job &job = jobs[reply.job];
            if (!reply.ok) {
                rep.tally.fail(job.spec.workload + ": " + reply.error);
                continue;
            }
            rep.tally.expectSame(job.spec.workload, job.ref_json,
                                 reply.result);
            if (tracing)
                continue;
            if (reply.cached)
                hits.push_back(reply.latency);
            else
                (job.sampled ? sampled_misses : misses)
                    .push_back(reply.latency);
        }
        setup.push_back(r.setup_s);
        (tracing ? traced_walls : walls).push_back(r.wall_s);
        idle.insert(idle.end(), r.idle_hits.begin(), r.idle_hits.end());
        if (!tracing) {
            rss.push_back(r.peak_rss_mb);
            last = std::move(r);
        }
    }

    const double wall = median(walls);
    rep.note("%zu unique jobs x %zu = %zu requests per replay, %zu replays",
             jobs.size(), kRepeats, stream.size(), walls.size());
    reportHostTimes(host, median(setup), wall, answered_instr, &rep);
    reportPeakRss(rss, &rep);
    const Tail miss_tail = supportedTail(misses);
    const double req_per_s = static_cast<double>(stream.size()) / wall;
    const double hit_p50 = median(hits) * 1e3;
    const double miss_p50 = median(misses) * 1e3;
    const double miss_p90 = percentile(misses, 90.0) * 1e3;
    rep.note("req_per_s %.3f req/s", req_per_s);
    rep.note("hit_p50_ms %.4f ms (n=%zu)", hit_p50, hits.size());
    rep.note("Figure-4 misses: miss_p50_ms %.4f ms, miss_p90_ms %.4f ms "
             "(n=%zu; highest supported p%g)",
             miss_p50, miss_p90, misses.size(), miss_tail.pct);
    rep.note("sampled misses: p50 %.4f ms (n=%zu)",
             median(sampled_misses) * 1e3, sampled_misses.size());

    if (o.trace) {
        rep.set("serve.req_per_s", req_per_s);
        rep.set("serve.hit_p50_ms", hit_p50);
        rep.set("serve.miss_p50_ms", miss_p50);
        rep.set("serve.miss_p90_ms", miss_p90);
        double hit_mean = 0.0, idle_mean = 0.0;
        for (double h : hits)
            hit_mean += h / static_cast<double>(hits.size());
        for (double h : idle)
            idle_mean += h / static_cast<double>(idle.size());
        rep.set("serve.hit_wait_ms", (hit_mean - idle_mean) * 1e3);

        // The replay's request lines through the daemon's parser.
        std::vector<double> parse_s;
        for (int k = 0; k < 5; ++k) {
            Request req;
            std::string err;
            const double t0 = nowS();
            for (const std::string &line : last.lines)
                if (!parseRequest(line, &req, &err))
                    rep.tally.fail("parseRequest: " + err);
            parse_s.push_back((nowS() - t0)
                              / static_cast<double>(last.lines.size()));
        }
        rep.set("serve.parse_us", median(parse_s) * 1e6);

        const JsonValue &st = last.stats;
        rep.set("serve.cache_hit_ratio", statNumber(st, "cache", "hit_rate"));
        rep.set("serve.cache_joins", statNumber(st, "cache", "joins"));
        rep.set("serve.spills", statNumber(st, "cache", "spills"));
        rep.set("serve.jobs_simulated",
                statNumber(st, nullptr, "jobs_simulated"));
        rep.set("serve.worker_util",
                statNumber(st, nullptr, "busy_s") / (last.wall_s * kPool));
        rep.set("serve.errors",
                statNumber(st, nullptr, "jobs_failed")
                    + statNumber(st, nullptr, "bad_requests")
                    + statNumber(st, nullptr, "rejected_overload")
                    + statNumber(st, nullptr, "deadline_expired"));
        reportCacheReuse(last.ckc, last.phc, &rep);

        // The daemon hides its layers; split the first job of each
        // class into its public calls on the same spec instead.
        size_t first_sampled = 0;
        while (first_sampled < jobs.size() && !jobs[first_sampled].sampled)
            ++first_sampled;
        LayerCounts counts;
        sp.setRecording(true);
        sp.setPass(-1);
        for (size_t k : {size_t{0}, first_sampled}) {
            const Job &j = jobs[k];
            rep.tally.attempt();
            clearCheckpointCache();
            clearPhaseCache();
            try {
                sp.beginOp();
                Spans::Scope root(sp, "probe.serve_job");
                bool same;
                if (j.sampled) {
                    same = sampledByLayer(sp, j.spec.cfg, j.spec.workload,
                                          j.spec.sample, j.spec.max_retired,
                                          &counts)
                        == sampledWindows(j.ref);
                } else {
                    same = detailedByLayer(sp, j.spec.cfg, j.spec.workload,
                                           j.spec.max_retired, &counts)
                        == Window{j.ref.cycles, j.ref.retired};
                    oracleByLayer(sp, buildWorkload(j.spec.workload),
                                  j.spec.max_retired, &counts);
                }
                if (!same)
                    rep.tally.fail(j.spec.workload + ": split run differs");
            } catch (const SimError &e) {
                rep.tally.fail(j.spec.workload + ": " + e.what());
            }
        }
        sp.setRecording(false);
        clearCheckpointCache();
        clearPhaseCache();
        reportLayers(sp, counts, &rep);
        reportTraceOverhead(wall, median(traced_walls), &rep);
    }
    return rep;
}

} // namespace dmtbench
