/**
 * @file
 * Command-line workload runner: pick a suite benchmark, a thread
 * count, fetch ports and a retirement budget; prints the full
 * statistics block.  The closest thing to the paper's simulator
 * command line.
 *
 *     run_workload [workload] [threads] [ports] [max_retired]
 *     run_workload gcc 6 2 100000
 *
 * The three numbers are decimal integers (defaults 6, 2, 100000);
 * anything else ("1e5", "six") prints the usage line and exits 1.
 *
 * `run_workload all ...` sweeps the entire suite through the parallel
 * scheduler (DMT_JOBS workers) and prints one summary line per
 * workload plus the sweep's throughput accounting.
 *
 * The engine knobs (DMT_WATCHDOG, DMT_AUDIT, DMT_CRASH_FILE,
 * DMT_TRACE*, DMT_FAULT*) and DMT_SAMPLE are read once here
 * (cli/env.hh) and applied to the configuration built below.  Sampled
 * runs keep their checkpoints in memory only.
 */

#include <climits>
#include <cstdio>
#include <memory>
#include <string>

#include "cli/env.hh"
#include "common/env.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "dmt/engine.hh"
#include "exp/phase.hh"
#include "exp/sampled.hh"
#include "exp/sweep.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

namespace
{

constexpr const char *kUsage =
    "usage: run_workload [workload|all|list] [threads] [ports] "
    "[max_retired]\n";

/** argv[@p i] as a decimal integer no larger than @p max, or @p def
 *  when absent.  @return false on anything else. */
bool
numberArg(int argc, char **argv, int i, dmt::u64 def, dmt::u64 max,
          dmt::u64 *out)
{
    *out = def;
    return i >= argc || (dmt::parseU64(argv[i], out) && *out <= max);
}

/** Sampled runs reuse fast-forward checkpoints across jobs; show how
 *  well that worked.  Silent in detailed mode (all counters zero). */
void
reportCheckpointCache()
{
    const dmt::CheckpointCacheCounters c = dmt::checkpointCacheCounters();
    if (c.mem_hits + c.builds == 0)
        return;
    std::fprintf(stderr, "checkpoint cache: %llu mem hit(s), %llu built\n",
                 static_cast<unsigned long long>(c.mem_hits),
                 static_cast<unsigned long long>(c.builds));
}

/** Companion to the checkpoint-cache line: how often the (expensive)
 *  BBV profile pass was reused.  Silent unless phase sampling ran. */
void
reportPhaseCache()
{
    const dmt::PhaseCacheCounters c = dmt::phaseCacheCounters();
    if (c.hits + c.builds == 0)
        return;
    std::fprintf(stderr, "phase cache: %llu hit(s), %llu built\n",
                 static_cast<unsigned long long>(c.hits),
                 static_cast<unsigned long long>(c.builds));
}

/** Phase table for one phase-sampled result, mirroring the cache
 *  summary lines: one row per phase with its weight, representative
 *  interval and measured CPI. */
void
printPhaseTable(const dmt::RunResult &r)
{
    if (r.sampling.mode != "phase")
        return;
    std::fprintf(stderr,
                 "%s phases: k=%llu of %llu interval(s) x %llu instr "
                 "(weighted cpi %.4f +- %.4f)\n",
                 r.workload.c_str(),
                 static_cast<unsigned long long>(r.sampling.phase_k),
                 static_cast<unsigned long long>(
                     r.sampling.phase_intervals),
                 static_cast<unsigned long long>(
                     r.sampling.phase_interval),
                 r.sampling.cpi_mean, r.sampling.cpi_ci95);
    for (const dmt::PhaseCpi &ph : r.sampling.phases) {
        if (ph.measured) {
            std::fprintf(stderr,
                         "  phase %2u  weight %.4f  rep %6llu  "
                         "(pos %10llu)  cpi %.4f\n",
                         ph.id, ph.weight,
                         static_cast<unsigned long long>(ph.rep),
                         static_cast<unsigned long long>(ph.pos),
                         ph.cpi);
        } else {
            std::fprintf(stderr,
                         "  phase %2u  weight %.4f  rep %6llu  "
                         "(pos %10llu)  unmeasured\n",
                         ph.id, ph.weight,
                         static_cast<unsigned long long>(ph.rep),
                         static_cast<unsigned long long>(ph.pos));
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace dmt;

    const std::string name = argc > 1 ? argv[1] : "go";
    if (name == "list" || name == "--help") {
        std::printf("workloads:\n");
        for (const WorkloadInfo &w : workloadSuite())
            std::printf("  %-10s mimics %-12s %s\n", w.name, w.mimics,
                        w.character);
        std::printf("generated families "
                    "(gen:<family>:<seed>[:knob=value...]):\n");
        for (const GenFamilyInfo &f : genFamilies())
            std::printf("  %-10s %-25s %s\n", f.name, f.knobs,
                        f.character);
        std::printf("  knobs: alias depth entropy trips units, e.g. "
                    "gen:loopnest:7:trips=40:units=24\n");
        return 0;
    }

    u64 threads = 0, ports = 0, budget = 0;
    if (!numberArg(argc, argv, 2, 6, INT_MAX, &threads)
        || !numberArg(argc, argv, 3, 2, INT_MAX, &ports)
        || !numberArg(argc, argv, 4, 100000, ~u64{0}, &budget)) {
        std::fputs(kUsage, stderr);
        return 1;
    }
    SimConfig cfg = simConfigFromEnv(
        threads > 1 ? SimConfig::dmt(static_cast<int>(threads),
                                     static_cast<int>(ports))
                    : SimConfig::baseline());
    cfg.max_retired = budget;
    const SampleParams sample = sampleParamsFromEnv();

    if (name == "all") {
        SweepRunner pool(sweepJobs());
        for (const WorkloadInfo &w : workloadSuite())
            pool.add({w.name, w.name, cfg, budget, sample});
        std::printf("sweeping %zu workloads on %s (%d worker(s))\n",
                    pool.size(), cfg.summary().c_str(),
                    pool.poolWidth());
        const auto &cells = pool.run();
        const auto &suite = workloadSuite();
        bool all_ok = true;
        for (size_t i = 0; i < cells.size(); ++i) {
            if (!cells[i].ok) {
                std::printf("  %-10s FAILED: %s\n", suite[i].name,
                            cells[i].error.c_str());
                all_ok = false;
                continue;
            }
            const RunResult &r = cells[i].result;
            std::printf("  %-10s %10llu cycles %10llu retired "
                        "ipc %.3f  %6.3fs %6.3f Minstr/s\n",
                        suite[i].name,
                        static_cast<unsigned long long>(r.cycles),
                        static_cast<unsigned long long>(r.retired),
                        r.ipc, r.wall_s, r.minstr_per_s);
        }
        const SweepStats &st = pool.stats();
        std::printf("sweep: %.2fs wall, %.2fs busy (%.2fx), "
                    "%.2f Minstr/s\n",
                    st.wall_seconds, st.busy_seconds,
                    st.parallelism(), st.throughput() / 1e6);
        for (size_t i = 0; i < cells.size(); ++i)
            if (cells[i].ok)
                printPhaseTable(cells[i].result);
        reportCheckpointCache();
        reportPhaseCache();
        return all_ok ? 0 : 1;
    }

    if (sample.enabled()) {
        // Sampled single run: go through the runner funnel instead of
        // a raw engine, so the sampled summary — and in phase mode the
        // phase table — is visible from the command line.
        std::printf("running %s (sampled, DMT_SAMPLE=%s) on %s ...\n",
                    name.c_str(), sample.canonicalSpec().c_str(),
                    cfg.summary().c_str());
        RunResult r;
        try {
            r = runWorkloadJob(cfg, name, budget, sample);
        } catch (const SimError &err) {
            std::fprintf(stderr, "run aborted: %s\n", err.what());
            return 1;
        }
        StatGroup group(name);
        r.stats.registerAll(group);
        std::fputs(group.dump().c_str(), stdout);
        std::printf("%s.cpi_mean %34.4f\n", name.c_str(),
                    r.sampling.cpi_mean);
        std::printf("%s.cpi_ci95 %34.4f\n", name.c_str(),
                    r.sampling.cpi_ci95);
        std::printf("sampled: %llu window(s), %llu of %llu instr "
                    "detailed\n",
                    static_cast<unsigned long long>(
                        r.sampling.intervals),
                    static_cast<unsigned long long>(
                        r.sampling.covered
                        - r.sampling.functional_instr),
                    static_cast<unsigned long long>(
                        r.sampling.covered));
        printPhaseTable(r);
        reportCheckpointCache();
        reportPhaseCache();
        return 0;
    }

    std::printf("running %s on %s ...\n", name.c_str(),
                cfg.summary().c_str());
    const Program prog = buildWorkload(name);
    std::unique_ptr<DmtEngine> engine;
    try {
        engine = std::make_unique<DmtEngine>(cfg, prog);
        engine->run();
    } catch (const SimError &err) {
        // A rejected config, or a watchdog or invariant-audit panic
        // (the post-mortem JSON has already been written): exit
        // cleanly with the diagnostic.
        std::fprintf(stderr, "run aborted: %s\n", err.what());
        return 1;
    }

    if (!engine->goldenOk()) {
        std::fprintf(stderr, "GOLDEN MISMATCH: %s\n",
                     engine->goldenError().c_str());
        return 1;
    }

    StatGroup group(name);
    engine->stats().registerAll(group);
    std::fputs(group.dump().c_str(), stdout);
    std::printf("%s.ipc %38.3f\n", name.c_str(), engine->stats().ipc());
    std::printf("golden check: PASS (%llu instructions verified)\n",
                static_cast<unsigned long long>(
                    engine->stats().retired.value()));
    return 0;
}
