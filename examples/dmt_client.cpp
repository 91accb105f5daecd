/**
 * @file
 * CLI client for the simulation daemon (dmt_served).
 *
 *     dmt_client [--port P] [--wait S] [--retries N] [--timeout S]
 *                [--deadline MS] <command> ...
 *
 *     ping                      round-trip check (exit 0 iff alive)
 *     stats                     print the daemon's stats object
 *     shutdown                  ask the daemon to drain and exit
 *     run <workload> [k=v ...]  submit one job, print the RunResult
 *     spec <job.json>           submit the job object from a file
 *     batch <grid.json>         pipeline a whole grid, print a summary
 *
 * `run` key=value pairs: `max_retired`, `sample` (skip:warm:measure
 * spec string) and `priority` are job-level; every other key is a
 * config override: `machine=dmt|baseline` or a
 * SimConfig::forEachJobField() key, the list of every setting that
 * changes a result, such as `tb_size`, the ablation policies
 * (`memdep_sync`, `recovery_fetch_stall`, ...) or Figure 9's
 * `l1i_bytes` and `l2_bytes`.  Values `true`/`false` are booleans,
 * anything else must be a number.
 *
 * `batch` grid files hold {"jobs":[{...job...},...]} (or a bare
 * array).  All jobs are pipelined on one connection; the summary line
 *
 *     batch: jobs=N ok=N failed=0 hits=H simulated=S
 *
 * is stable for scripting — a second pass over the same grid must show
 * simulated=0 when the daemon's result cache is on.
 *
 * --wait S retries the initial connect for S seconds, the idiom for
 * "the daemon was just started in the background".  Flag values are
 * strict: P, N and MS are decimal integers, S a decimal number of
 * seconds; anything else ("5s", "1e3" for an integer) prints the usage
 * line and exits 1.
 *
 * Resilience: --retries N drives run/spec/batch jobs through
 * ServeClient::requestWithRetry() (reconnect + seeded backoff through
 * refusals, timeouts, overloaded/draining replies and corrupted
 * transport); --timeout S bounds each reply wait; --deadline MS
 * attaches a wall-clock budget to `run` jobs (spec/batch jobs carry
 * their own "deadline_ms").  With retries on, batch runs lock-step
 * instead of pipelined so each job can be retried independently.
 *
 * Fault drills: DMT_FAULTNET=1 interposes an in-process fault-
 * injecting proxy (serve/faultnet.hh; DMT_FAULTNET_RATE/_SEED/
 * _STALL_MS) between this client and the daemon, forces retries on,
 * and prints the injected-fault tally on stderr at exit — the CI storm
 * harness asserts results through the proxy are byte-identical to
 * direct ones.
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cli/env.hh"
#include "common/env.hh"
#include "common/json.hh"
#include "serve/client.hh"
#include "serve/faultnet.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace
{

using namespace dmt;

/** Lock-step request/reply options shared by every command. */
struct ClientOptions
{
    int port = 0;       ///< the daemon (or proxy) port to talk to
    int retries = 0;    ///< >0 enables requestWithRetry with N attempts
    double timeout_s = 0.0;
    u64 deadline_ms = 0;
    RetryPolicy policy;
};

/** One lock-step request honoring the retry/timeout options. */
bool
doRequest(ServeClient &client, const ClientOptions &opt,
          const std::string &line, i64 id, JsonValue *reply,
          std::string *err)
{
    if (opt.retries > 0)
        return client.requestWithRetry(opt.port, line, id, opt.policy,
                                       reply, err);
    client.setTimeout(opt.timeout_s);
    return client.request(line, reply, err);
}

constexpr const char *kUsage =
    "usage: dmt_client [--port P] [--wait S] [--retries N] "
    "[--timeout S] [--deadline MS] ping|stats|shutdown|run|spec|batch ...";

int
die(const std::string &msg)
{
    std::fprintf(stderr, "dmt_client: %s\n", msg.c_str());
    return 1;
}

bool
readFile(const std::string &path, std::string *out, std::string *err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *err = "cannot read " + path;
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

/** true/false become booleans, everything else must parse as a
 *  number — mirroring the types the protocol accepts. */
bool
writeScalar(JsonWriter &w, const std::string &value, std::string *err)
{
    if (value == "true" || value == "false") {
        w.value(value == "true");
        return true;
    }
    char *end = nullptr;
    const double d = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') {
        *err = "value \"" + value + "\" is neither a boolean nor "
            "a number";
        return false;
    }
    w.value(d);
    return true;
}

/** Build a job object from `run <workload> [k=v ...]` arguments. */
bool
buildJobJson(const std::vector<std::string> &args, u64 deadline_ms,
             std::string *out, std::string *err)
{
    JsonWriter w;
    w.beginObject();
    w.key("workload").value(std::string_view(args[0]));
    if (deadline_ms > 0)
        w.key("deadline_ms").value(deadline_ms);
    std::vector<std::pair<std::string, std::string>> config;
    for (size_t i = 1; i < args.size(); ++i) {
        const size_t eq = args[i].find('=');
        if (eq == std::string::npos) {
            *err = "expected key=value, got \"" + args[i] + "\"";
            return false;
        }
        const std::string key = args[i].substr(0, eq);
        const std::string value = args[i].substr(eq + 1);
        if (key == "sample") {
            w.key("sample").value(std::string_view(value));
        } else if (key == "max_retired" || key == "priority") {
            w.key(key);
            if (!writeScalar(w, value, err))
                return false;
        } else {
            config.emplace_back(key, value);
        }
    }
    if (!config.empty()) {
        w.key("config").beginObject();
        for (const auto &[key, value] : config) {
            w.key(key);
            if (key == "machine")
                w.value(std::string_view(value));
            else if (!writeScalar(w, value, err))
                return false;
        }
        w.endObject();
    }
    w.endObject();
    *out = w.str();
    return true;
}

std::string
requestLineForJob(i64 id, const std::string &job_json)
{
    JsonWriter w;
    w.beginObject();
    w.key("op").value("run");
    w.key("id").value(id);
    w.key("job").rawValue(job_json);
    w.endObject();
    return w.str();
}

/** Print one run reply: the byte-exact canonical result (sliced from
 *  the wire line, never re-serialized) on stdout, provenance
 *  (cached/key/result_hash) on stderr.  Returns the exit status. */
int
printRunReply(const JsonValue &reply, const std::string &wire_line)
{
    const JsonValue *ok = reply.find("ok");
    if (!ok || ok->type() != JsonValue::Type::Bool || !ok->asBool()) {
        const JsonValue *e = reply.find("error");
        return die("job failed: "
                   + (e && e->type() == JsonValue::Type::String
                          ? e->asString()
                          : std::string("malformed reply")));
    }
    std::string raw;
    if (!extractRawResult(wire_line, &raw))
        return die("reply carries no result document");
    std::printf("%s\n", raw.c_str());
    const JsonValue *cached = reply.find("cached");
    const JsonValue *key = reply.find("key");
    const JsonValue *rh = reply.find("result_hash");
    std::fprintf(stderr, "dmt_client: %s key=%s result_hash=%s\n",
                 cached && cached->asBool() ? "cached" : "simulated",
                 key ? key->asString().c_str() : "?",
                 rh ? rh->asString().c_str() : "?");
    return 0;
}

int
runBatch(ServeClient &client, const ClientOptions &opt,
         const std::string &path)
{
    std::string text, err;
    if (!readFile(path, &text, &err))
        return die(err);
    JsonValue root;
    if (!JsonValue::parse(text, &root, &err))
        return die(path + ": " + err);
    const JsonValue *jobs = &root;
    if (root.type() == JsonValue::Type::Object) {
        jobs = root.find("jobs");
        if (!jobs)
            return die(path + ": no \"jobs\" array");
    }
    if (jobs->type() != JsonValue::Type::Array)
        return die(path + ": jobs must be an array");
    const auto &items = jobs->elements();
    if (items.empty())
        return die(path + ": empty grid");

    // Pipeline everything on the one connection, then collect replies
    // (completion order) and match them back to jobs by id.  With
    // retries on, run lock-step instead: each job is driven to a
    // definitive reply on its own, so one lost reply cannot strand the
    // rest of the pipeline.
    std::map<i64, std::string> labels;
    std::vector<std::string> lines(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
        JsonWriter jw;
        items[i].writeTo(jw);
        const i64 id = static_cast<i64>(i);
        const JsonValue *w = items[i].find("workload");
        labels[id] = w && w->type() == JsonValue::Type::String
            ? w->asString()
            : "job" + std::to_string(i);
        lines[i] = requestLineForJob(id, jw.str());
        if (opt.retries == 0 && !client.sendLine(lines[i], &err))
            return die(err);
    }

    u64 ok_n = 0, failed = 0, hits = 0, simulated = 0;
    for (size_t i = 0; i < items.size(); ++i) {
        JsonValue reply;
        if (opt.retries > 0) {
            if (!client.requestWithRetry(opt.port, lines[i],
                                         static_cast<i64>(i),
                                         opt.policy, &reply, &err))
                return die(err);
        } else {
            client.setTimeout(opt.timeout_s);
            if (!client.recvReply(&reply, &err))
                return die(err);
        }
        const JsonValue *idv = reply.find("id");
        const i64 id = idv && idv->type() == JsonValue::Type::Number
            ? static_cast<i64>(idv->asNumber())
            : -1;
        const std::string &label = labels.count(id) ? labels[id] : "?";
        const JsonValue *okv = reply.find("ok");
        if (!okv || okv->type() != JsonValue::Type::Bool
            || !okv->asBool()) {
            const JsonValue *e = reply.find("error");
            std::fprintf(stderr, "  %-10s FAILED: %s\n", label.c_str(),
                         e && e->type() == JsonValue::Type::String
                             ? e->asString().c_str()
                             : "malformed reply");
            ++failed;
            continue;
        }
        const JsonValue *cached = reply.find("cached");
        const bool hit = cached && cached->asBool();
        hit ? ++hits : ++simulated;
        ++ok_n;
        const JsonValue *res = reply.find("result");
        const JsonValue *ipc = res ? res->find("ipc") : nullptr;
        const JsonValue *cyc = res ? res->find("cycles") : nullptr;
        std::printf("  %-10s %-9s ipc %.3f  %llu cycles\n",
                    label.c_str(), hit ? "cached" : "simulated",
                    ipc ? ipc->asNumber() : 0.0,
                    static_cast<unsigned long long>(
                        cyc ? cyc->asNumber() : 0.0));
    }
    std::printf("batch: jobs=%zu ok=%llu failed=%llu hits=%llu "
                "simulated=%llu\n",
                items.size(), static_cast<unsigned long long>(ok_n),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(simulated));
    return failed == 0 ? 0 : 1;
}

int
runCommand(ServeClient &client, const ClientOptions &opt,
           const std::string &cmd, int arg, int argc, char **argv)
{
    std::string err;
    if (cmd == "ping" || cmd == "stats" || cmd == "shutdown") {
        JsonValue reply;
        if (!doRequest(client, opt, simpleRequestLine(cmd.c_str(), 0),
                       0, &reply, &err))
            return die(err);
        JsonWriter w;
        if (cmd == "stats") {
            const JsonValue *stats = reply.find("stats");
            if (!stats)
                return die("malformed stats reply");
            stats->writeTo(w);
        } else {
            reply.writeTo(w);
        }
        std::printf("%s\n", w.str().c_str());
        return 0;
    }

    if (cmd == "run") {
        std::vector<std::string> args(argv + arg, argv + argc);
        if (args.empty())
            return die("run needs a workload name");
        std::string job_json;
        if (!buildJobJson(args, opt.deadline_ms, &job_json, &err))
            return die(err);
        JsonValue reply;
        if (!doRequest(client, opt, requestLineForJob(0, job_json), 0,
                       &reply, &err))
            return die(err);
        return printRunReply(reply, client.lastLine());
    }

    if (cmd == "spec") {
        if (arg >= argc)
            return die("spec needs a file");
        std::string text;
        if (!readFile(argv[arg], &text, &err))
            return die(err);
        JsonValue job;
        if (!JsonValue::parse(text, &job, &err))
            return die(std::string(argv[arg]) + ": " + err);
        JsonWriter jw;
        job.writeTo(jw); // newline-free re-serialization for the wire
        JsonValue reply;
        if (!doRequest(client, opt, requestLineForJob(0, jw.str()), 0,
                       &reply, &err))
            return die(err);
        return printRunReply(reply, client.lastLine());
    }

    if (cmd == "batch") {
        if (arg >= argc)
            return die("batch needs a grid file");
        return runBatch(client, opt, argv[arg]);
    }

    return die("unknown command \"" + cmd + "\"");
}

} // namespace

int
main(int argc, char **argv)
{
    int port = serveOptionsFromEnv().port;
    double wait_s = 0.0;
    ClientOptions opt;

    int arg = 1;
    while (arg < argc && argv[arg][0] == '-') {
        const std::string flag = argv[arg];
        const char *value = arg + 1 < argc ? argv[arg + 1] : nullptr;
        u64 n = 0;
        bool ok = false;
        if (flag == "--port" && value) {
            ok = parseU64(value, &n) && n <= 65535;
            port = static_cast<int>(n);
        } else if (flag == "--wait" && value) {
            ok = parseF64(value, &wait_s) && wait_s >= 0.0;
        } else if (flag == "--retries" && value) {
            ok = parseU64(value, &n) && n <= INT_MAX;
            opt.retries = static_cast<int>(n);
        } else if (flag == "--timeout" && value) {
            ok = parseF64(value, &opt.timeout_s) && opt.timeout_s >= 0.0;
        } else if (flag == "--deadline" && value) {
            ok = parseU64(value, &opt.deadline_ms);
        } else {
            return die("unknown flag \"" + flag + "\" (see the file "
                       "header for usage)");
        }
        if (!ok) {
            die("bad " + flag + " value \"" + value + "\"");
            return die(kUsage);
        }
        arg += 2;
    }
    if (arg >= argc)
        return die(kUsage);
    const std::string cmd = argv[arg++];

    // DMT_FAULTNET=1: interpose the fault-injecting proxy and talk to
    // it instead; retries become mandatory — that is the drill.
    std::unique_ptr<FaultNetProxy> proxy;
    if (parseEnvU64("DMT_FAULTNET", 0, 0, 1) != 0) {
        proxy = std::make_unique<FaultNetProxy>(
            faultNetOptionsFromEnv(port));
        std::string perr;
        if (!proxy->start(&perr))
            return die("faultnet: " + perr);
        port = proxy->port();
        if (opt.retries <= 0)
            opt.retries = 10;
        if (opt.timeout_s <= 0)
            opt.timeout_s = 30.0;
    }
    opt.port = port;
    opt.policy.attempts = opt.retries > 0 ? opt.retries : 1;
    opt.policy.op_timeout_s = opt.timeout_s;

    int rc;
    {
        ServeClient client;
        std::string err;
        if (!client.connect(port, &err, wait_s)) {
            // With retries on, let requestWithRetry own connecting —
            // the first accept may be a deliberate refusal.
            if (opt.retries == 0)
                return die(err);
        }
        rc = runCommand(client, opt, cmd, arg, argc, argv);
    }

    if (proxy) {
        const FaultNetProxy::Counters c = proxy->counters();
        proxy->stop();
        std::fprintf(stderr,
                     "dmt_client: faultnet connections=%llu "
                     "refused=%llu chunks=%llu garbled=%llu torn=%llu "
                     "dropped=%llu stalled=%llu\n",
                     static_cast<unsigned long long>(c.connections),
                     static_cast<unsigned long long>(c.refused),
                     static_cast<unsigned long long>(c.chunks),
                     static_cast<unsigned long long>(c.garbled),
                     static_cast<unsigned long long>(c.torn),
                     static_cast<unsigned long long>(c.dropped),
                     static_cast<unsigned long long>(c.stalled));
    }
    return rc;
}
