#include "serve/protocol.hh"

#include <cmath>

#include "common/strutil.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

namespace dmt
{

namespace
{

/** JSON numbers arrive as doubles; budgets and sizes must be exact
 *  non-negative integers.  (Doubles are exact through 2^53 — far past
 *  any budget worth simulating.) */
bool
numAsU64(const JsonValue &v, u64 max_value, u64 *out, std::string *err,
         const char *what)
{
    if (v.type() != JsonValue::Type::Number) {
        *err = std::string(what) + " must be a number";
        return false;
    }
    const double d = v.asNumber();
    if (!(d >= 0.0) || d != std::floor(d)
        || d > static_cast<double>(max_value)) {
        *err = std::string(what) + " out of range";
        return false;
    }
    *out = static_cast<u64>(d);
    return true;
}

bool
numAsInt(const JsonValue &v, i64 min_value, i64 max_value, int *out,
         std::string *err, const char *what)
{
    if (v.type() != JsonValue::Type::Number) {
        *err = std::string(what) + " must be a number";
        return false;
    }
    const double d = v.asNumber();
    if (d != std::floor(d) || d < static_cast<double>(min_value)
        || d > static_cast<double>(max_value)) {
        *err = std::string(what) + " out of range";
        return false;
    }
    *out = static_cast<int>(d);
    return true;
}

bool
asBool(const JsonValue &v, bool *out, std::string *err, const char *what)
{
    if (v.type() != JsonValue::Type::Bool) {
        *err = std::string(what) + " must be a boolean";
        return false;
    }
    *out = v.asBool();
    return true;
}

/**
 * Strict, never-fatal() workload-name validation: suite names must be
 * known, gen: specs must fully parse (unknown families, malformed or
 * out-of-range knobs, trailing garbage all reject with the parser's
 * structured message).
 */
bool
validWorkload(const std::string &name, std::string *e)
{
    if (isGenSpec(name)) {
        GenParams p;
        std::string gerr;
        if (!parseGenSpec(name, &p, &gerr)) {
            *e = "workload spec \"" + name + "\": " + gerr;
            return false;
        }
        return true;
    }
    for (const WorkloadInfo &w : workloadSuite()) {
        if (name == w.name)
            return true;
    }
    *e = "unknown workload \"" + name + "\"";
    return false;
}

} // namespace

bool
applyConfigOverrides(SimConfig *cfg, const JsonValue &obj,
                     std::string *err)
{
    std::string scratch;
    std::string &e = err ? *err : scratch;
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
        if (m->asString() == "baseline")
            *cfg = SimConfig::baseline();
        else if (m->asString() == "dmt")
            *cfg = SimConfig::dmt(cfg->max_threads > 1
                                      ? cfg->max_threads : 6,
                                  cfg->fetch_ports);
        else {
            e = "machine must be \"dmt\" or \"baseline\"";
            return false;
        }
    }

    for (const auto &[key, v] : obj.members()) {
        bool ok = true;
        if (key == "machine") {
            continue; // handled above
        } else if (key == "max_threads") {
            ok = numAsInt(v, 1, 64, &cfg->max_threads, &e, "max_threads");
        } else if (key == "spawn_on_call") {
            ok = asBool(v, &cfg->spawn_on_call, &e, "spawn_on_call");
        } else if (key == "spawn_on_loop") {
            ok = asBool(v, &cfg->spawn_on_loop, &e, "spawn_on_loop");
        } else if (key == "value_prediction") {
            ok = asBool(v, &cfg->value_prediction, &e,
                        "value_prediction");
        } else if (key == "dataflow_prediction") {
            ok = asBool(v, &cfg->dataflow_prediction, &e,
                        "dataflow_prediction");
        } else if (key == "fetch_ports") {
            ok = numAsInt(v, 1, 64, &cfg->fetch_ports, &e, "fetch_ports");
        } else if (key == "fetch_block") {
            ok = numAsInt(v, 1, 1024, &cfg->fetch_block, &e,
                          "fetch_block");
        } else if (key == "window_size") {
            ok = numAsInt(v, 1, 1 << 20, &cfg->window_size, &e,
                          "window_size");
        } else if (key == "retire_width") {
            ok = numAsInt(v, 1, 1024, &cfg->retire_width, &e,
                          "retire_width");
        } else if (key == "unlimited_fus") {
            ok = asBool(v, &cfg->unlimited_fus, &e, "unlimited_fus");
        } else if (key == "phys_regs") {
            ok = numAsInt(v, 0, 1 << 22, &cfg->phys_regs, &e,
                          "phys_regs");
        } else if (key == "tb_size") {
            ok = numAsInt(v, 8, 1 << 22, &cfg->tb_size, &e, "tb_size");
        } else if (key == "tb_latency") {
            ok = numAsInt(v, 0, 1 << 20, &cfg->tb_latency, &e,
                          "tb_latency");
        } else if (key == "tb_read_block") {
            ok = numAsInt(v, 0, 1 << 20, &cfg->tb_read_block, &e,
                          "tb_read_block");
        } else if (key == "lq_size") {
            ok = numAsInt(v, 0, 1 << 22, &cfg->lq_size, &e, "lq_size");
        } else if (key == "sq_size") {
            ok = numAsInt(v, 0, 1 << 22, &cfg->sq_size, &e, "sq_size");
        } else if (key == "lat_mem") {
            ok = numAsInt(v, 1, 10000, &cfg->lat_mem, &e, "lat_mem");
        } else if (key == "max_retired") {
            ok = numAsU64(v, ~u64{0} >> 11, &cfg->max_retired, &e,
                          "max_retired");
        } else if (key == "warmup_retired") {
            ok = numAsU64(v, ~u64{0} >> 11, &cfg->warmup_retired, &e,
                          "warmup_retired");
        } else if (key == "watchdog_cycles") {
            ok = numAsU64(v, ~u64{0} >> 11, &cfg->watchdog_cycles, &e,
                          "watchdog_cycles");
        } else if (key == "audit_period") {
            ok = numAsInt(v, 0, 1 << 30, &cfg->audit_period, &e,
                          "audit_period");
        } else if (key == "fault_enabled") {
            bool fe = false;
            ok = asBool(v, &fe, &e, "fault_enabled");
            if (ok && fe) {
                e = "fault injection is not servable";
                ok = false;
            }
        } else {
            e = "unknown config key \"" + key + "\"";
            ok = false;
        }
        if (!ok)
            return false;
    }
    return true;
}

bool
checkJobSpec(const JobSpec &job, std::string *err)
{
    std::string scratch;
    std::string &e = err ? *err : scratch;
    const SimConfig &c = job.cfg;

    if (!validWorkload(job.workload, &e))
        return false;
    // The config rules are SimConfig::validate()'s; only the job-level
    // rules live here.
    if (std::string bad = c.validate(); !bad.empty()) {
        e = std::move(bad);
        return false;
    }
    if (c.fault.enabled) {
        e = "fault injection is not servable";
        return false;
    }
    if (job.sample.enabled() && c.warmup_retired > 0) {
        e = "warmup_retired conflicts with sampling (the sample spec "
            "owns warmup)";
        return false;
    }
    return true;
}

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
        if (!applyConfigOverrides(&job.cfg, *cfgv, &e))
            return false;
    }

    const JsonValue *w = jobv->find("workload");
    if (!w || w->type() != JsonValue::Type::String) {
        e = "job needs a workload name";
        return false;
    }
    job.workload = w->asString();
    if (isGenSpec(job.workload)) {
        // Normalize to the canonical spelling before anything keys on
        // the name: the result cache stores RunResult bytes (which
        // embed the workload string), so two spellings of one gen
        // workload must collapse to one identity here, not later.
        GenParams gp;
        std::string gerr;
        if (!parseGenSpec(job.workload, &gp, &gerr)) {
            e = "workload spec \"" + job.workload + "\": " + gerr;
            return false;
        }
        job.workload = gp.canonicalSpec();
    }

    if (const JsonValue *s = jobv->find("sample")) {
        if (s->type() != JsonValue::Type::String) {
            e = "sample must be a spec string";
            return false;
        }
        if (!SampleParams::parse(s->asString(), &job.sample, &e))
            return false;
    }

    u64 budget = job.cfg.max_retired; // config override as fallback
    if (const JsonValue *m = jobv->find("max_retired")) {
        if (!numAsU64(*m, ~u64{0} >> 11, &budget, &e, "max_retired"))
            return false;
    }
    job.max_retired =
        effectiveBudget(job.sample.enabled(), budget, default_budget);
    // The budget is part of the machine's canonical identity, so the
    // cache key derived from cfg covers it.
    job.cfg.max_retired = job.max_retired;

    if (const JsonValue *p = jobv->find("priority")) {
        int prio = 0;
        if (!numAsInt(*p, -1000000, 1000000, &prio, &e, "priority"))
            return false;
        job.priority = prio;
    }

    if (const JsonValue *d = jobv->find("deadline_ms")) {
        // Cap at one day: a longer "deadline" is a typo, not a budget.
        if (!numAsU64(*d, 86400000, &job.deadline_ms, &e,
                      "deadline_ms"))
            return false;
    }

    return checkJobSpec(job, &e);
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
