#include "dmt/stats.hh"

namespace dmt
{

namespace
{

/**
 * Every stat, in report order: name, member, description.  Both
 * registerAll() and merge() walk this one list, so no stat can be
 * reported without being merged across sampled windows.
 */
template <typename Visit>
void
forEachStat(Visit &&v)
{
    v("cycles", &DmtStats::cycles, "simulated cycles");
    v("retired", &DmtStats::retired, "finally retired instructions");
    v("early_retired", &DmtStats::early_retired,
      "instructions cleared from the pipeline");
    v("dispatched", &DmtStats::dispatched,
      "instructions dispatched (normal path)");
    v("issued", &DmtStats::issued, "instructions issued to FUs");
    v("squashed_insts", &DmtStats::squashed_insts,
      "dispatched instructions squashed");

    v("threads_spawned", &DmtStats::threads_spawned,
      "speculative threads created");
    v("threads_squashed", &DmtStats::threads_squashed,
      "speculative threads squashed");
    v("threads_joined", &DmtStats::threads_joined,
      "threads that retired after joining");
    v("spawns_suppressed", &DmtStats::spawns_suppressed,
      "spawns vetoed by the selection predictor");
    v("thread_size", &DmtStats::thread_size,
      "retired instructions per spawned thread");
    v("thread_overlap", &DmtStats::thread_overlap,
      "fraction executed while speculative");
    v("active_threads", &DmtStats::active_threads,
      "thread contexts active per cycle");
    v("thread_size_hist", &DmtStats::thread_size_hist,
      "retired instructions per thread");

    v("cond_branches", &DmtStats::cond_branches,
      "conditional branches resolved");
    v("cond_mispredicts", &DmtStats::cond_mispredicts,
      "conditional branches mispredicted");
    v("indirect_jumps", &DmtStats::indirect_jumps, "indirect jumps resolved");
    v("indirect_mispredicts", &DmtStats::indirect_mispredicts,
      "indirect jumps mispredicted");
    v("late_divergences", &DmtStats::late_divergences,
      "recovery-time branch direction flips");

    v("loads_issued", &DmtStats::loads_issued, "loads executed");
    v("stores_issued", &DmtStats::stores_issued, "stores executed");
    v("fwd_same_thread", &DmtStats::fwd_same_thread,
      "store-to-load forwards within a thread");
    v("fwd_cross_thread", &DmtStats::fwd_cross_thread,
      "store-to-load forwards across threads");
    v("load_stalls_partial", &DmtStats::load_stalls_partial,
      "loads stalled on partial store overlap");
    v("lsq_violations", &DmtStats::lsq_violations,
      "memory-order violations detected");

    v("recoveries", &DmtStats::recoveries, "selective recovery walks");
    v("recovery_dispatches", &DmtStats::recovery_dispatches,
      "instructions re-dispatched by recovery");
    v("recovery_walk_hist", &DmtStats::recovery_walk_hist,
      "trace-buffer entries read per recovery walk");
    v("df_corrections", &DmtStats::df_corrections,
      "dataflow-predicted input corrections");
    v("df_matches", &DmtStats::df_matches,
      "last-modifier watch matches at dispatch");
    v("df_deliveries", &DmtStats::df_deliveries,
      "input values delivered via dataflow prediction");
    v("inputs_used", &DmtStats::inputs_used, "live thread input registers");
    v("inputs_valid_at_spawn", &DmtStats::inputs_valid_at_spawn,
      "inputs available at the spawn point");
    v("inputs_same_later", &DmtStats::inputs_same_later,
      "inputs written after spawn with the same value");
    v("inputs_df_correct", &DmtStats::inputs_df_correct,
      "inputs corrected by dataflow prediction");
    v("inputs_hit", &DmtStats::inputs_hit,
      "inputs needing no final-check recovery");

    v("la_fetch_beyond_mispredict", &DmtStats::la_fetch_beyond_mispredict,
      "retired instructions fetched beyond an unresolved mispredicted branch");
    v("la_exec_beyond_mispredict", &DmtStats::la_exec_beyond_mispredict,
      "retired instructions executed beyond an unresolved mispredicted "
      "branch");
    v("la_fetch_beyond_imiss", &DmtStats::la_fetch_beyond_imiss,
      "retired instructions fetched during an earlier thread's ICache miss");
    v("la_exec_beyond_imiss", &DmtStats::la_exec_beyond_imiss,
      "retired instructions executed during an earlier thread's ICache miss");

    v("st_headswitch", &DmtStats::st_headswitch,
      "cycles stalled on head-switch validation");
    v("st_recovery", &DmtStats::st_recovery,
      "cycles stalled on head recovery");
    v("st_incomplete", &DmtStats::st_incomplete,
      "cycles stalled on an unexecuted oldest entry");
    v("st_empty", &DmtStats::st_empty,
      "cycles with an empty head trace buffer");

    v("icache_misses", &DmtStats::icache_misses, "L1I misses");
    v("icache_accesses", &DmtStats::icache_accesses, "L1I accesses");
    v("dcache_misses", &DmtStats::dcache_misses, "L1D misses");
    v("dcache_accesses", &DmtStats::dcache_accesses, "L1D accesses");
}

} // namespace

void
DmtStats::merge(const DmtStats &other)
{
    forEachStat([&](const char *, auto member, const char *) {
        (this->*member).merge(other.*member);
    });
}

void
DmtStats::registerAll(StatGroup &group) const
{
    forEachStat([&](const char *name, auto member, const char *desc) {
        group.add(name, &(this->*member), desc);
    });
}

} // namespace dmt
