/**
 * @file
 * Telemetry configuration embedded in SimConfig (the `trace` member).
 * A plain aggregate so the config layer does not depend on the trace
 * subsystem's machinery; kept in src/trace because it is the trace
 * subsystem's contract.  The engine uses exactly what its config
 * carries; binaries map DMT_TRACE et al. onto it at their edge
 * (cli/env.hh).
 */

#ifndef DMT_TRACE_OPTIONS_HH
#define DMT_TRACE_OPTIONS_HH

#include <string>

namespace dmt
{

/** Which sinks a simulation run feeds, and their parameters. */
struct TraceOptions
{
    /** Master gate.  False compiles every hook down to one predictable
     *  branch on a cold bool — the disabled path costs nothing
     *  measurable. */
    bool enabled = false;

    /** Keep the last ring_capacity events in memory (tests, REPL-style
     *  inspection). */
    bool ring = false;
    int ring_capacity = 4096;

    /** Write a Chrome trace-event JSON file (chrome://tracing or
     *  Perfetto), one track per hardware thread context. */
    bool chrome = false;
    std::string chrome_file = "dmt_trace.json";

    /** Also render per-instruction lifetime slices (fetch -> final
     *  retirement) in the Chrome trace.  Large outputs; off unless
     *  explicitly requested. */
    bool insts = false;

    /** Record a counters time series (DmtStats snapshot every
     *  sample_period cycles) as machine-readable JSON. */
    bool counters = false;
    std::string counters_file = "dmt_counters.json";

    /** Cycles between counter samples (Chrome counter tracks and the
     *  counters sink). */
    int sample_period = 128;

    bool operator==(const TraceOptions &) const = default;
};

} // namespace dmt

#endif // DMT_TRACE_OPTIONS_HH
