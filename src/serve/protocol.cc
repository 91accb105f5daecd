#include "serve/protocol.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

#include "exp/report.hh"
#include "exp/runner.hh"
#include "workloads/workloads.hh"

namespace dmt
{

namespace
{

/**
 * Read a JSON integer into @p out.  JSON numbers arrive as doubles,
 * exact through 2^53, so the value must be integral and lie in
 * [lo, hi]; by default that is whatever T holds, capped at 2^53.
 */
template <typename T>
bool
readInt(const JsonValue &v, const std::string &key, T *out,
        std::string &e,
        double lo = std::max<double>(std::numeric_limits<T>::lowest(),
                                     -0x1p53),
        double hi = std::min<double>(std::numeric_limits<T>::max(),
                                     0x1p53))
{
    if (v.type() != JsonValue::Type::Number) {
        e = key + " must be a number";
        return false;
    }
    const double d = v.asNumber();
    if (!(d >= lo && d <= hi) || d != std::floor(d)) {
        e = key + " out of range";
        return false;
    }
    *out = static_cast<T>(d);
    return true;
}

/**
 * Apply a job's "config" override object onto @p cfg: "machine"
 * selects a template, then every other member names a
 * SimConfig::forEachJobField() field, so a recorded config document
 * replays as the machine it names.  Only JSON types are checked here;
 * ranges are SimConfig::validate()'s, which checkJobSpec() applies.
 */
bool
applyConfigOverrides(SimConfig *cfg, const JsonValue &obj,
                     std::string &e)
{
    if (obj.type() != JsonValue::Type::Object) {
        e = "config must be an object";
        return false;
    }

    // The machine template applies first regardless of key order, so
    // later keys override template values, never the other way around.
    if (const JsonValue *m = obj.find("machine")) {
        if (m->type() != JsonValue::Type::String) {
            e = "machine must be a string";
            return false;
        }
        // "dmt" names the template parseRequest() starts from.
        if (m->asString() == "baseline") {
            *cfg = SimConfig::baseline();
        } else if (m->asString() != "dmt") {
            e = "machine must be \"dmt\" or \"baseline\"";
            return false;
        }
    }

    for (const auto &[key, v] : obj.members()) {
        if (key == "machine")
            continue; // applied above
        bool found = false;
        bool ok = true;
        SimConfig::forEachJobField(
            *cfg, [&](const char *name, auto &field, auto...) {
                if (found || key != name)
                    return;
                found = true;
                using T = std::remove_reference_t<decltype(field)>;
                if constexpr (std::is_same_v<T, bool>) {
                    ok = v.type() == JsonValue::Type::Bool;
                    if (ok)
                        field = v.asBool();
                    else
                        e = key + " must be a boolean";
                } else {
                    ok = readInt(v, key, &field, e);
                }
            });
        if (!found) {
            e = "unknown config key \"" + key + "\"";
            return false;
        }
        if (!ok)
            return false;
    }
    return true;
}

/**
 * The job-level rule on top of SimConfig::validate(): no
 * warmup_retired alongside sampling.  Every job must pass this before
 * it can reach a DmtEngine constructor.
 */
bool
checkJobSpec(const JobSpec &job, std::string &e)
{
    const SimConfig &c = job.cfg;
    if (std::string bad = c.validate(); !bad.empty()) {
        e = std::move(bad);
        return false;
    }
    if (job.sample.enabled() && c.warmup_retired > 0) {
        e = "warmup_retired conflicts with sampling (the sample spec "
            "owns warmup)";
        return false;
    }
    return true;
}

} // namespace

bool
parseRequest(std::string_view line, Request *out, std::string *err,
             u64 default_budget)
{
    std::string scratch;
    std::string &e = err ? *err : scratch;
    *out = Request{};

    JsonValue root;
    std::string perr;
    if (!JsonValue::parse(line, &root, &perr)) {
        e = "bad JSON: " + perr;
        return false;
    }
    if (root.type() != JsonValue::Type::Object) {
        e = "request must be an object";
        return false;
    }
    if (const JsonValue *id = root.find("id"))
        out->id = *id;

    const JsonValue *op = root.find("op");
    if (!op || op->type() != JsonValue::Type::String) {
        e = "missing op";
        return false;
    }
    const std::string &name = op->asString();
    if (name == "ping") {
        out->op = Request::Op::Ping;
        return true;
    }
    if (name == "stats") {
        out->op = Request::Op::Stats;
        return true;
    }
    if (name == "shutdown") {
        out->op = Request::Op::Shutdown;
        return true;
    }
    if (name != "run") {
        e = "unknown op \"" + name + "\"";
        return false;
    }

    out->op = Request::Op::Run;
    const JsonValue *jobv = root.find("job");
    if (!jobv || jobv->type() != JsonValue::Type::Object) {
        e = "run needs a job object";
        return false;
    }

    JobSpec &job = out->job;
    job.cfg = SimConfig::dmt(6, 2);
    if (const JsonValue *cfgv = jobv->find("config")) {
        if (!applyConfigOverrides(&job.cfg, *cfgv, e))
            return false;
    }

    const JsonValue *w = jobv->find("workload");
    if (!w || w->type() != JsonValue::Type::String) {
        e = "job needs a workload name";
        return false;
    }
    // Resolve to the canonical spelling before anything keys on the
    // name: the result cache stores RunResult bytes (which embed the
    // workload string), so two spellings of one gen workload must
    // collapse to one identity here, not later.
    if (!resolveWorkload(w->asString(), &job.workload, &e))
        return false;

    if (const JsonValue *s = jobv->find("sample")) {
        if (s->type() != JsonValue::Type::String) {
            e = "sample must be a spec string";
            return false;
        }
        if (!SampleParams::parse(s->asString(), &job.sample, &e))
            return false;
    }

    // A budget the job names, 0 included, wins over the daemon's
    // default: an explicit 0 resolves as runWorkloadJob() resolves it
    // (the whole program when sampled, kBenchRunLength when detailed).
    u64 budget = job.cfg.max_retired; // config override as fallback
    u64 fallback = default_budget;
    if (const JsonValue *m = jobv->find("max_retired")) {
        if (!readInt(*m, "max_retired", &budget, e))
            return false;
        fallback = 0;
    }
    job.max_retired =
        effectiveBudget(job.sample.enabled(), budget, fallback);
    // The budget is part of the machine's canonical identity, so the
    // cache key derived from cfg covers it.
    job.cfg.max_retired = job.max_retired;

    if (const JsonValue *p = jobv->find("priority")) {
        if (!readInt(*p, "priority", &job.priority, e, -1e6, 1e6))
            return false;
    }

    if (const JsonValue *d = jobv->find("deadline_ms")) {
        // Cap at one day: a longer "deadline" is a typo, not a budget.
        if (!readInt(*d, "deadline_ms", &job.deadline_ms, e, 0, 864e5))
            return false;
    }

    return checkJobSpec(job, e);
}

void
jobSpecJsonOn(JsonWriter &w, const JobSpec &job)
{
    w.beginObject();
    w.key("workload").value(std::string_view(job.workload));
    w.key("max_retired").value(job.max_retired);
    if (job.sample.enabled())
        w.key("sample").value(
            std::string_view(job.sample.canonicalSpec()));
    if (job.priority != 0)
        w.key("priority").value(job.priority);
    if (job.deadline_ms != 0)
        w.key("deadline_ms").value(job.deadline_ms);
    w.key("config");
    job.cfg.jsonOn(w);
    w.endObject();
}

std::string
runRequestLine(i64 id, const JobSpec &job)
{
    JsonWriter w;
    w.beginObject();
    w.key("op").value("run");
    w.key("id").value(id);
    w.key("job");
    jobSpecJsonOn(w, job);
    w.endObject();
    return w.str();
}

std::string
simpleRequestLine(const char *op, i64 id)
{
    JsonWriter w;
    w.beginObject();
    w.key("op").value(op);
    w.key("id").value(id);
    w.endObject();
    return w.str();
}

std::string
errorReply(const JsonValue &id, const std::string &message,
           const char *kind, u64 req_hash)
{
    JsonWriter w;
    w.beginObject();
    w.key("id");
    id.writeTo(w);
    w.key("ok").value(false);
    w.key("kind").value(kind);
    if (req_hash != 0)
        w.key("req").value(std::string_view(hashHex(req_hash)));
    w.key("error").value(std::string_view(message));
    w.endObject();
    return w.str();
}

std::string
replyErrorKind(const JsonValue &reply)
{
    if (reply.type() != JsonValue::Type::Object)
        return "";
    const JsonValue *ok = reply.find("ok");
    if (!ok || ok->type() != JsonValue::Type::Bool || ok->asBool())
        return "";
    const JsonValue *kind = reply.find("kind");
    if (kind && kind->type() == JsonValue::Type::String)
        return kind->asString();
    return errkind::kGeneric;
}

std::string
okRunReply(const JsonValue &id, std::string_view result_json, u64 key,
           u64 result_hash, bool cached, u64 req_hash)
{
    JsonWriter w;
    w.beginObject();
    w.key("id");
    id.writeTo(w);
    w.key("ok").value(true);
    w.key("cached").value(cached);
    w.key("key").value(std::string_view(hashHex(key)));
    w.key("result_hash").value(std::string_view(hashHex(result_hash)));
    if (req_hash != 0)
        w.key("req").value(std::string_view(hashHex(req_hash)));
    // "result" stays the final member — extractRawResult() depends on
    // slicing up to the envelope's closing brace.
    w.key("result").rawValue(result_json);
    w.endObject();
    return w.str();
}

bool
extractRawResult(std::string_view reply_line, std::string *out)
{
    const std::string_view marker = "\"result\":";
    const size_t at = reply_line.find(marker);
    if (at == std::string_view::npos || reply_line.empty()
        || reply_line.back() != '}')
        return false;
    const size_t begin = at + marker.size();
    // Drop the closing brace of the reply envelope itself.
    *out = std::string(
        reply_line.substr(begin, reply_line.size() - 1 - begin));
    return true;
}

std::string
pongReply(const JsonValue &id, u64 req_hash)
{
    JsonWriter w;
    w.beginObject();
    w.key("id");
    id.writeTo(w);
    w.key("ok").value(true);
    if (req_hash != 0)
        w.key("req").value(std::string_view(hashHex(req_hash)));
    w.key("pong").value(true);
    w.endObject();
    return w.str();
}

} // namespace dmt
