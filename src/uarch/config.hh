/**
 * @file
 * Full machine configuration for the DMT engine.  A max_threads == 1
 * configuration with spawning disabled *is* the paper's baseline
 * superscalar: same pipeline, one retire stage (early retirement and
 * final retirement coincide because nothing is value-speculated).
 */

#ifndef DMT_UARCH_CONFIG_HH
#define DMT_UARCH_CONFIG_HH

#include <chrono>
#include <string>

#include "fault/options.hh"
#include "memory/hierarchy.hh"
#include "trace/options.hh"

namespace dmt
{

class JsonWriter;

/** Complete machine description. */
struct SimConfig
{
    // ---- the paper's fixed machine --------------------------------------
    /** Instructions per fetch block (per port per cycle). */
    static constexpr int kFetchBlock = 4;
    /** Active instructions in the execution pipeline (level-1 window). */
    static constexpr int kWindowSize = 128;
    /** Early/final retirement width (per cycle). */
    static constexpr int kRetireWidth = 4;
    /** Load-to-use latency including address calculation (DCache hit).
     *  The ALU, multiply and divide latencies are FuPool constants. */
    static constexpr Cycle kLoadLatency = 3;

    // ---- threading ----------------------------------------------------
    /** Hardware thread contexts; 1 disables DMT entirely. */
    int max_threads = 1;
    /** Spawn at procedure calls (after-return threads). */
    bool spawn_on_call = true;
    /** Spawn at backward branches (after-loop threads). */
    bool spawn_on_loop = true;
    /** Last-modifier dataflow prediction (paper Section 3.4). */
    bool dataflow_prediction = true;
    /** When a dataflow watch is armed for an input (history says it
     *  will be rewritten by the predecessor), make consumers wait for
     *  the predicted modifier's writeback instead of speculating on a
     *  value known to be stale.  Extension over the paper's
     *  update-and-recover behaviour. */
    bool dataflow_sync = false;
    /** Memory dependence throttle (store-set flavoured extension; the
     *  paper speculates all loads aggressively): loads whose PC keeps
     *  getting violated wait until all earlier stores have executed. */
    bool memdep_sync = true;

    // ---- fetch and execute --------------------------------------------
    int fetch_ports = 1;
    /** Unlimited execution units (Figures 4 and 5); false gives the
     *  paper's Figure 6 units (FuPool). */
    bool unlimited_fus = true;

    // ---- trace buffer ---------------------------------------------------
    /** Trace buffer capacity per thread (instructions); the load and
     *  store queues hold a quarter of it each (paper Section 3.5). */
    int tb_size = 500;
    /** Recovery pipeline startup latency (trace buffer access). */
    int tb_latency = 4;
    /** Instructions read per cycle during recovery walk; 0 = ideal. */
    int tb_read_block = 4;
    /** 0: fetch never stalls for recovery; 1: stalls during an active
     *  walk; 2: stalls whenever recovery work is queued. */
    int recovery_fetch_stall = 0;
    /** Same policy levels for dispatch (trace-buffer write port). */
    int recovery_dispatch_stall = 0;
    /**
     * When a branch re-executed by recovery changes direction, repair
     * the thread's trace immediately (true) instead of deferring the
     * flush to the branch's final retirement as the paper describes
     * (false).  Early repair redirects the thread onto the corrected
     * path while it is still speculative.
     */
    bool early_divergence_repair = true;

    // ---- memory ---------------------------------------------------------
    /** The two cache sizes Figure 9 varies; the rest of the geometry,
     *  the miss penalties and the predictor tables are constants. */
    HierarchyParams mem;

    // ---- run control ------------------------------------------------------
    /** Stop after this many finally-retired instructions (0 = none). */
    u64 max_retired = 0;
    /**
     * Statistics warmup window for checkpoint-resumed runs: the stat
     * block (and the cache-hierarchy snapshot baseline) is zeroed once
     * this many instructions have finally retired, so caches,
     * predictors and spawn tables warm up before measurement begins.
     * The boundary is evaluated between cycles, so up to
     * kRetireWidth-1 instructions of the crossing cycle count toward
     * warmup rather than measurement.  0 measures from cycle zero (the
     * full-run behaviour).
     */
    u64 warmup_retired = 0;
    /** Hard cycle bound (0 = none): the run stops (done() turns
     *  true) once this many cycles have elapsed. */
    u64 max_cycles = 0;
    /** Deadlock watchdog: panic (SimError + post-mortem) when no
     *  instruction finally retires for this many cycles (0 = off;
     *  binaries map DMT_WATCHDOG here, cli/env.hh). */
    u64 watchdog_cycles = 500000;
    /**
     * Absolute wall-clock deadline for this run (steady clock); a
     * default-constructed (epoch) value disables the check.  Checked
     * alongside the watchdog in DmtEngine::run() and in the sampled
     * fast-forward loop; expiry panics ("deadline expired ...",
     * SimError) so a caller — notably a serve-layer worker — fails one
     * run, not the process.  Runtime scheduling state, not machine
     * identity: excluded from jsonOn(), canonical hashes and cache
     * keys.
     */
    std::chrono::steady_clock::time_point deadline{};

    /** True when a wall-clock deadline is armed. */
    bool
    hasDeadline() const
    {
        return deadline.time_since_epoch().count() != 0;
    }

    // ---- robustness --------------------------------------------------------
    /** Run the invariant auditor every this many cycles (0 = off;
     *  binaries map DMT_AUDIT here). */
    int audit_period = 0;
    /** Where watchdog/audit failures write their JSON post-mortem
     *  (empty = no file; binaries map DMT_CRASH_FILE here). */
    std::string crash_file = "dmt_crash.json";
    /** Fault injection configuration (binaries map DMT_FAULT et al.
     *  here). */
    FaultOptions fault;

    // ---- telemetry ---------------------------------------------------------
    /** Trace subsystem configuration (binaries map DMT_TRACE et al.
     *  here). */
    TraceOptions trace;

    /** True when this machine runs DMT (more than one context). */
    bool isDmt() const { return max_threads > 1; }

    /** Physical registers: the window plus per-thread headroom. */
    int physRegCount() const;

    /** Per-thread load queue capacity: a quarter of the trace buffer. */
    int lqSize() const;

    /** Per-thread store queue capacity: a quarter of the trace buffer. */
    int sqSize() const;

    /**
     * Check invariants: the range of every job field, then the rules
     * no single range expresses.  This is the one validator; the
     * daemon's job parser (serve/protocol.cc) checks only JSON types
     * and leaves ranges to it.  @return the first violated rule as a
     * message, or an empty string for a valid config.
     */
    std::string validate() const;

    /** The paper's baseline: 4-wide superscalar, 128-entry window. */
    static SimConfig baseline();

    /** DMT machine with @p threads contexts and @p ports fetch ports. */
    static SimConfig dmt(int threads, int ports);

    /** Human-readable one-line summary. */
    std::string summary() const;

    /** Serialize "machine" and then every job field, in list order,
     *  as a JSON object: the canonical config document. */
    void jsonOn(JsonWriter &w) const;

    bool operator==(const SimConfig &) const = default;

    /**
     * The job fields: every setting that can change a result, in
     * canonical JSON order.  Calls @p v (key, field, lo, hi) for an
     * integer field and @p v (key, field) for a flag.  This one list
     * drives jsonOn(), the range checks of validate(), the daemon's
     * config parser and so the result cache key: a config document
     * names its whole machine and replays as that machine.  Outside
     * it: max_cycles (no job sets it), the fault options (no job may
     * inject) and runtime state (deadline, crash_file, trace).  The
     * paper's fixed machine (window, widths, latencies, FU counts,
     * predictor tables, the rest of the cache geometry and the miss
     * penalties) is constants, not fields.
     */
    template <typename Config, typename Visit>
    static void
    forEachJobField(Config &c, Visit &&v)
    {
        // JSON numbers are doubles: counts stay exact below 2^53.
        constexpr u64 kMaxCount = (u64{1} << 53) - 1;
        v("max_threads", c.max_threads, 1, 64);
        v("spawn_on_call", c.spawn_on_call);
        v("spawn_on_loop", c.spawn_on_loop);
        v("dataflow_prediction", c.dataflow_prediction);
        v("dataflow_sync", c.dataflow_sync);
        v("memdep_sync", c.memdep_sync);
        v("fetch_ports", c.fetch_ports, 1, 64);
        v("unlimited_fus", c.unlimited_fus);
        v("tb_size", c.tb_size, 8, 1 << 22);
        v("tb_latency", c.tb_latency, 0, 1 << 20);
        v("tb_read_block", c.tb_read_block, 0, 1 << 20);
        v("recovery_fetch_stall", c.recovery_fetch_stall, 0, 2);
        v("recovery_dispatch_stall", c.recovery_dispatch_stall, 0, 2);
        v("early_divergence_repair", c.early_divergence_repair);
        // At least one set: the L1I is 2 x 32 B, the L2 4 x 64 B.
        v("l1i_bytes", c.mem.l1i_bytes, u32{64}, u32{1} << 30);
        v("l2_bytes", c.mem.l2_bytes, u32{256}, u32{1} << 30);
        v("max_retired", c.max_retired, u64{0}, kMaxCount);
        v("warmup_retired", c.warmup_retired, u64{0}, kMaxCount);
        v("watchdog_cycles", c.watchdog_cycles, u64{0}, kMaxCount);
        v("audit_period", c.audit_period, 0, 1 << 30);
    }
};

} // namespace dmt

#endif // DMT_UARCH_CONFIG_HH
