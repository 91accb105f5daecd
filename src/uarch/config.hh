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
    // ---- threading ----------------------------------------------------
    /** Hardware thread contexts; 1 disables DMT entirely. */
    int max_threads = 1;
    /** Spawn at procedure calls (after-return threads). */
    bool spawn_on_call = true;
    /** Spawn at backward branches (after-loop threads). */
    bool spawn_on_loop = true;
    /** Predict thread inputs as the parent context (always on in the
     *  paper; exposed for ablation). */
    bool value_prediction = true;
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

    // ---- fetch --------------------------------------------------------
    int fetch_ports = 1;
    /** Instructions per fetch block (per port per cycle). */
    int fetch_block = 4;

    // ---- pipeline -----------------------------------------------------
    /** Active instructions in the execution pipeline (level-1 window). */
    int window_size = 128;
    /** Early/final retirement width (per cycle). */
    int retire_width = 4;
    /** Unlimited execution units (Figures 4 and 5); false gives the
     *  paper's Figure 6 units (FuPool). */
    bool unlimited_fus = true;
    /** Physical registers; 0 derives a generous default. */
    int phys_regs = 0;

    // ---- latencies ----------------------------------------------------
    /** Load-to-use latency including address calculation (DCache hit).
     *  The ALU, multiply and divide latencies are FuPool constants. */
    int lat_mem = 3;

    // ---- trace buffer ---------------------------------------------------
    /** Trace buffer capacity per thread (instructions). */
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

    // ---- load/store queues --------------------------------------------
    /** Per-thread load queue entries; 0 derives tb_size/4 (paper). */
    int lq_size = 0;
    /** Per-thread store queue entries; 0 derives tb_size/4 (paper). */
    int sq_size = 0;

    // ---- memory ---------------------------------------------------------
    /** Cache geometry; the miss penalties are MemHierarchy constants
     *  and the predictor tables BranchPredictorUnit constants. */
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
     * retire_width-1 instructions of the crossing cycle count toward
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

    /** Effective physical register count. */
    int physRegCount() const;

    /** Effective per-thread load queue capacity. */
    int lqSize() const;

    /** Effective per-thread store queue capacity. */
    int sqSize() const;

    /**
     * Check invariants: the range of every job field, then the rules
     * that span fields.  This is the one validator; the daemon's job
     * parser (serve/protocol.cc) checks only JSON types and leaves
     * ranges to it.  @return the first violated rule as a message, or
     * an empty string for a valid config.
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

    /**
     * The job fields: the knobs a serve job may set, in canonical JSON
     * order.  Calls @p v (key, field, lo, hi) for an integer field and
     * @p v (key, field) for a flag.  This one list drives jsonOn(), the
     * range checks of validate() and the daemon's config parser.  The
     * fields no job can set (cache geometry, the ablation policies,
     * max_cycles) stay out of it, and so out of the canonical JSON; the
     * paper's fixed machine parameters (FU counts and latencies,
     * predictor tables, miss penalties) are constants, not fields.
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
        v("value_prediction", c.value_prediction);
        v("dataflow_prediction", c.dataflow_prediction);
        v("fetch_ports", c.fetch_ports, 1, 64);
        v("fetch_block", c.fetch_block, 1, 1024);
        v("window_size", c.window_size, 1, 1 << 20);
        v("retire_width", c.retire_width, 1, 1024);
        v("unlimited_fus", c.unlimited_fus);
        v("phys_regs", c.phys_regs, 0, 1 << 22);
        v("tb_size", c.tb_size, 8, 1 << 22);
        v("tb_latency", c.tb_latency, 0, 1 << 20);
        v("tb_read_block", c.tb_read_block, 0, 1 << 20);
        v("lq_size", c.lq_size, 0, 1 << 22);
        v("sq_size", c.sq_size, 0, 1 << 22);
        v("lat_mem", c.lat_mem, 1, 10000);
        v("max_retired", c.max_retired, u64{0}, kMaxCount);
        v("warmup_retired", c.warmup_retired, u64{0}, kMaxCount);
        v("watchdog_cycles", c.watchdog_cycles, u64{0}, kMaxCount);
        v("audit_period", c.audit_period, 0, 1 << 30);
        v("fault_enabled", c.fault.enabled);
    }
};

} // namespace dmt

#endif // DMT_UARCH_CONFIG_HH
