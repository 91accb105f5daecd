/**
 * @file
 * Per-cycle invariant auditor.  A white-box checker (friend of
 * DmtEngine and Lsq) that sweeps the machine's structural invariants
 * between cycles:
 *
 *  - order tree: internal structural consistency (parent/child
 *    agreement, acyclicity) and agreement with the engine's per-context
 *    active flags;
 *  - recovery FSMs: walk position inside the trace buffer, sane
 *    latency, sorted load roots;
 *  - trace buffers: id sequencing, completed => result_valid, memory
 *    entries own valid LSQ slots that point back at them;
 *  - LSQ: free-list/valid agreement, per-thread occupancy counts,
 *    by-word index consistency, the unexecuted-store list;
 *  - store drain queue: valid retired stores in nondecreasing
 *    retirement order;
 *  - physical registers: free-list/alloc-bit agreement and exact leak
 *    accounting (every allocated register is held by exactly one live
 *    DynInst's destination);
 *  - active window: 0 <= window_used <= kWindowSize and equal to the
 *    live non-squashed pipeline population;
 *  - lookahead horizon: no trace-buffer or fetch-queue entry was
 *    fetched before the cycle the episode trackers were last pruned
 *    at, which is what makes that prune exact;
 *  - list pools: every node of the calendar, operand-waiter,
 *    input-subscription and LSQ store-list pools is either free or on
 *    exactly one list.
 *
 * Scheduling is the engine's job (SimConfig::audit_period / DMT_AUDIT);
 * when a sweep fails the auditor attaches a full JSON post-mortem to
 * the thrown SimError and writes the crash file.
 */

#ifndef DMT_FAULT_AUDITOR_HH
#define DMT_FAULT_AUDITOR_HH

#include <string>

namespace dmt
{

class DmtEngine;
class ThreadContext;

/** Structural invariant sweep over a (quiescent, between-cycles)
 *  engine. */
class InvariantAuditor
{
  public:
    /**
     * Run every invariant check.  On the first violation found, dump a
     * post-mortem (crash file + SimError details) and throw SimError.
     */
    static void check(const DmtEngine &e);

    /**
     * Non-throwing variant for tests: @return true when every
     * invariant holds, else false with @p why (if given) describing
     * the first violation.
     */
    static bool checkNoThrow(const DmtEngine &e, std::string *why);

  private:
    // One leg per invariant group; member functions so the friend
    // grants (DmtEngine, Lsq, OrderTree) apply.
    static bool auditTree(const DmtEngine &e, std::string *why);
    static bool auditRecovery(const ThreadContext &t, std::string *why);
    static bool auditTraceBuffer(const DmtEngine &e,
                                 const ThreadContext &t,
                                 std::string *why);
    static bool auditLsq(const DmtEngine &e, std::string *why);
    static bool auditDrainQueue(const DmtEngine &e, std::string *why);
    static bool auditRegsAndWindow(const DmtEngine &e,
                                   std::string *why);
    static bool auditLookaheadHorizon(const DmtEngine &e,
                                      const ThreadContext &t,
                                      std::string *why);
    static bool auditListPools(const DmtEngine &e, std::string *why);
};

} // namespace dmt

#endif // DMT_FAULT_AUDITOR_HH
