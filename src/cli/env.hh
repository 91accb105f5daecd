/**
 * @file
 * The environment edge: the only code that reads DMT_* variables.
 * Binaries (benches, examples, test mains, the daemon and its client)
 * call these once per configuration they build and pass the result
 * down explicitly; the libraries under src/ read no environment.
 * Built as CMake target dmt_cli, which no src/ library links.
 *
 * An unset or empty variable yields the caller's default.  A malformed
 * or out-of-range value is a *user* error, so it reports via fatal()
 * (clean exit), never a silent fallback that would make a sweep
 * quietly measure the wrong thing.
 */

#ifndef DMT_CLI_ENV_HH
#define DMT_CLI_ENV_HH

#include "exp/sampled.hh"
#include "serve/faultnet.hh"
#include "serve/server.hh"
#include "uarch/config.hh"

namespace dmt
{

/** Read @p name as a u64 in [@p min_value, @p max_value]. */
u64 parseEnvU64(const char *name, u64 def, u64 min_value = 0,
                u64 max_value = ~u64{0});

/** Read @p name as a finite double in [@p min_value, @p max_value]. */
double parseEnvF64(const char *name, double def, double min_value,
                   double max_value);

/**
 * Telemetry knobs on top of @p base.  DMT_TRACE: comma-separated sinks
 * ("chrome", "ring", "counters", "insts"; "1" keeps the configured
 * ones, default ring; "0"/"off" forces tracing off).  DMT_TRACE_FILE,
 * DMT_TRACE_COUNTERS_FILE: output paths.  DMT_TRACE_SAMPLE: cycles
 * between counter samples.  DMT_TRACE_RING: ring capacity (events).
 */
TraceOptions traceOptionsFromEnv(TraceOptions base);

/**
 * Fault-injection knobs on top of @p base.  DMT_FAULT: comma-separated
 * sites ("spawn-input", "dataflow-value", "load-value",
 * "spawn-decision", "branch-prediction"), "1"/"all" for every site,
 * "0"/"off" forces injection off; selected sites get DMT_FAULT_RATE
 * (default 0.01) unless the config already set a nonzero rate.
 * DMT_FAULT_SEED: deterministic stream seed.
 */
FaultOptions faultOptionsFromEnv(FaultOptions base);

/** Every engine knob on top of @p base: DMT_WATCHDOG, DMT_AUDIT,
 *  DMT_CRASH_FILE, DMT_TRACE* and DMT_FAULT*. */
SimConfig simConfigFromEnv(SimConfig base);

/** DMT_SAMPLE in SampleParams::parse() grammar; unset = disabled. */
SampleParams sampleParamsFromEnv();

/** DMT_BENCH_INSTR, 0 when unset: a budget for runWorkloadJob() or
 *  ServeOptions::default_budget, where 0 keeps their default. */
u64 benchInstrFromEnv();

/** The detailed run length: DMT_BENCH_INSTR, else kBenchRunLength. */
u64 benchRunLength();

/** DMT_BENCH_QUIET (0 or 1): 1 silences bench progress on stderr. */
bool benchQuiet();

/** Sweep pool width: DMT_JOBS, else hardwareJobs(). */
int sweepJobs();

/** DMT_SERVE_PORT / _JOBS / _CACHE / _DRAIN_S / _CACHE_DIR / _QUEUE /
 *  _DEADLINE_S; a cache directory that cannot be created (or is not a
 *  directory) is fatal() too. */
ServeOptions serveOptionsFromEnv();

/** DMT_FAULTNET_RATE / _SEED / _STALL_MS for a proxy in front of
 *  @p upstream_port. */
FaultNetOptions faultNetOptionsFromEnv(int upstream_port);

} // namespace dmt

#endif // DMT_CLI_ENV_HH
