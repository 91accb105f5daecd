#include "cli/env.hh"

#include <sys/stat.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/env.hh"
#include "common/log.hh"
#include "common/strutil.hh"
#include "exp/sweep.hh"

namespace dmt
{

u64
parseEnvU64(const char *name, u64 def, u64 min_value, u64 max_value)
{
    const char *env = std::getenv(name);
    if (!env || !*env)
        return def;
    u64 v = 0;
    if (!parseU64(env, &v))
        fatal("%s: '%s' is not a valid unsigned integer", name, env);
    if (v < min_value || v > max_value) {
        fatal("%s: %llu out of range [%llu, %llu]", name,
              static_cast<unsigned long long>(v),
              static_cast<unsigned long long>(min_value),
              static_cast<unsigned long long>(max_value));
    }
    return v;
}

double
parseEnvF64(const char *name, double def, double min_value,
            double max_value)
{
    const char *env = std::getenv(name);
    if (!env || !*env)
        return def;
    double v = 0.0;
    if (!parseF64(env, &v))
        fatal("%s: '%s' is not a valid number", name, env);
    if (v < min_value || v > max_value)
        fatal("%s: %g out of range [%g, %g]", name, v, min_value,
              max_value);
    return v;
}

TraceOptions
traceOptionsFromEnv(TraceOptions base)
{
    const char *spec = std::getenv("DMT_TRACE");
    if (spec && *spec) {
        std::string s(spec);
        if (s == "0" || s == "off") {
            base.enabled = false;
        } else {
            base.enabled = true;
            // "1" keeps whatever the config selected (default: ring).
            for (const std::string &tok : splitFields(s, ",")) {
                if (tok == "1" || tok == "on")
                    continue;
                if (tok == "ring")
                    base.ring = true;
                else if (tok == "chrome")
                    base.chrome = true;
                else if (tok == "counters")
                    base.counters = true;
                else if (tok == "insts")
                    base.insts = true;
                else
                    fatal("DMT_TRACE: unknown sink '%s'", tok.c_str());
            }
        }
    }

    if (const char *file = std::getenv("DMT_TRACE_FILE"); file && *file)
        base.chrome_file = file;
    if (const char *file = std::getenv("DMT_TRACE_COUNTERS_FILE");
        file && *file) {
        base.counters_file = file;
    }
    base.sample_period = static_cast<int>(
        parseEnvU64("DMT_TRACE_SAMPLE",
                    static_cast<u64>(base.sample_period), 1, 1u << 30));
    const u64 cap = parseEnvU64(
        "DMT_TRACE_RING", static_cast<u64>(base.ring_capacity), 1,
        1u << 30);
    if (cap != static_cast<u64>(base.ring_capacity)) {
        base.ring_capacity = static_cast<int>(cap);
        base.ring = true;
    }
    return base;
}

FaultOptions
faultOptionsFromEnv(FaultOptions base)
{
    const char *spec = std::getenv("DMT_FAULT");
    const double env_rate = parseEnvF64("DMT_FAULT_RATE", 0.01, 0.0, 1.0);

    if (spec && *spec) {
        std::string s(spec);
        if (s == "0" || s == "off") {
            base.enabled = false;
        } else {
            base.enabled = true;
            for (const std::string &tok : splitFields(s, ",")) {
                const bool all = tok == "1" || tok == "on" || tok == "all";
                bool known = false;
                for (int i = 0; i < kNumFaultSites; ++i) {
                    if (all
                        || tok == faultSiteName(static_cast<FaultSite>(i))) {
                        if (base.rate[i] <= 0.0)
                            base.rate[i] = env_rate;
                        known = true;
                    }
                }
                if (!known)
                    fatal("DMT_FAULT: unknown site '%s'", tok.c_str());
            }
        }
    }

    base.seed = parseEnvU64("DMT_FAULT_SEED", base.seed);
    return base;
}

SimConfig
simConfigFromEnv(SimConfig base)
{
    base.watchdog_cycles =
        parseEnvU64("DMT_WATCHDOG", base.watchdog_cycles);
    base.audit_period = static_cast<int>(
        parseEnvU64("DMT_AUDIT", static_cast<u64>(base.audit_period), 0,
                    static_cast<u64>(INT32_MAX)));
    if (const char *crash = std::getenv("DMT_CRASH_FILE"))
        base.crash_file = crash;
    base.trace = traceOptionsFromEnv(base.trace);
    base.fault = faultOptionsFromEnv(base.fault);
    return base;
}

SampleParams
sampleParamsFromEnv()
{
    SampleParams p;
    const char *raw = std::getenv("DMT_SAMPLE");
    if (!raw || !*raw)
        return p;
    std::string err;
    if (!SampleParams::parse(raw, &p, &err))
        fatal("DMT_SAMPLE=\"%s\": %s", raw, err.c_str());
    return p;
}

u64
benchInstrFromEnv()
{
    return parseEnvU64("DMT_BENCH_INSTR", 0);
}

u64
benchRunLength()
{
    // 0 (like unset) selects the default length.
    const u64 v = benchInstrFromEnv();
    return v > 0 ? v : kBenchRunLength;
}

bool
benchQuiet()
{
    return parseEnvU64("DMT_BENCH_QUIET", 0, 0, 1) != 0;
}

int
sweepJobs()
{
    const u64 env = parseEnvU64("DMT_JOBS", 0, 0, 1024);
    return env > 0 ? static_cast<int>(env) : hardwareJobs();
}

ServeOptions
serveOptionsFromEnv()
{
    ServeOptions o;
    o.port = static_cast<int>(
        parseEnvU64("DMT_SERVE_PORT", 1998, 0, 65535));
    o.pool = static_cast<int>(parseEnvU64("DMT_SERVE_JOBS", 0, 0, 1024));
    o.cache_entries = parseEnvU64("DMT_SERVE_CACHE", 4096, 0, 1u << 20);
    o.drain_s = parseEnvF64("DMT_SERVE_DRAIN_S", 30.0, 0.0, 86400.0);
    o.queue_max = parseEnvU64("DMT_SERVE_QUEUE", 1024, 0, 1u << 20);
    o.deadline_s =
        parseEnvF64("DMT_SERVE_DEADLINE_S", 0.0, 0.0, 86400.0);
    if (const char *dir = std::getenv("DMT_SERVE_CACHE_DIR");
        dir && *dir) {
        // A misconfigured durable tier must fail loudly at startup,
        // not degrade every later request into a spill warning.
        if (::mkdir(dir, 0755) != 0 && errno != EEXIST)
            fatal("DMT_SERVE_CACHE_DIR=\"%s\": cannot create: %s", dir,
                  std::strerror(errno));
        struct stat st{};
        if (::stat(dir, &st) != 0 || !S_ISDIR(st.st_mode))
            fatal("DMT_SERVE_CACHE_DIR=\"%s\": not a directory", dir);
        o.cache_dir = dir;
    }
    return o;
}

FaultNetOptions
faultNetOptionsFromEnv(int upstream_port)
{
    FaultNetOptions o;
    o.upstream_port = upstream_port;
    o.rate = parseEnvF64("DMT_FAULTNET_RATE", 0.05, 0.0, 1.0);
    o.seed = parseEnvU64("DMT_FAULTNET_SEED", 1998);
    o.stall_ms = parseEnvU64("DMT_FAULTNET_STALL_MS", 100, 0, 60000);
    return o;
}

} // namespace dmt
