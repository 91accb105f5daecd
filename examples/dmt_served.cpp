/**
 * @file
 * The simulation daemon.  Binds 127.0.0.1 (DMT_SERVE_PORT, default
 * 1998; 0 picks an ephemeral port), serves the line-delimited JSON
 * protocol from src/serve/protocol.hh, and drains gracefully on
 * SIGTERM/SIGINT or a client "shutdown" request: queued jobs run to
 * completion and reply before the process exits.
 *
 *     DMT_SERVE_PORT=1998 DMT_SERVE_JOBS=4 dmt_served
 *
 * Every knob is read once, here, at startup (cli/env.hh); the Server
 * itself reads no environment.  Scale/caching knobs: DMT_SERVE_JOBS
 * (pool width, else DMT_JOBS, else the host's cores), DMT_BENCH_INSTR
 * (budget of jobs that name none), DMT_SERVE_CACHE; see DESIGN.md §13.
 * Sampled jobs keep their checkpoints in memory only.  The engine
 * knobs (DMT_FAULT*, DMT_TRACE*, DMT_WATCHDOG, DMT_AUDIT,
 * DMT_CRASH_FILE) and DMT_SAMPLE do not apply to jobs: each job
 * carries its own machine config and sample spec, and everything that
 * can change a result's bytes is in its cache key.
 *
 * Robustness knobs (DESIGN.md §14): DMT_SERVE_CACHE_DIR spills every
 * computed result to disk so a crashed daemon restarted on the same
 * directory replays answered cells with simulated=0; DMT_SERVE_QUEUE
 * bounds the job queue (excess requests get structured "overloaded"
 * replies); DMT_SERVE_DEADLINE_S gives every job a default wall-clock
 * budget, enforced in queue and mid-simulation.
 */

#include <csignal>
#include <cstdio>

#include <chrono>
#include <string>
#include <thread>

#include "cli/env.hh"
#include "serve/server.hh"

namespace
{

volatile std::sig_atomic_t g_signal = 0;

void
onSignal(int sig)
{
    g_signal = sig;
}

} // namespace

int
main()
{
    using namespace dmt;

    ServeOptions opts = serveOptionsFromEnv();
    if (opts.pool == 0)
        opts.pool = sweepJobs();
    opts.default_budget = benchInstrFromEnv();
    Server server(opts);
    std::string err;
    if (!server.start(&err)) {
        std::fprintf(stderr, "dmt_served: %s\n", err.c_str());
        return 1;
    }

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);

    std::printf("dmt_served: listening on 127.0.0.1:%d\n",
                server.port());
    std::fflush(stdout);

    // The acceptor/readers/workers poll their own shutdown flags; this
    // thread only watches for a signal or a client-initiated drain.
    while (g_signal == 0 && !server.draining())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    if (g_signal != 0)
        std::fprintf(stderr, "dmt_served: signal %d, draining\n",
                     static_cast<int>(g_signal));
    server.requestDrain();
    server.join();

    std::fprintf(stderr, "dmt_served: drained; final stats %s\n",
                 server.statsJson().c_str());
    return 0;
}
