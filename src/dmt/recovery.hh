/**
 * @file
 * Recovery finite state machine state (paper Section 3.2.3).  One per
 * thread; the engine drives it.  A request names a walk start point in
 * the thread's trace buffer and either a set of corrected input
 * registers (register-root) or a mispredicted load (load-root).  The
 * walk reads blocks of tb_read_block entries per cycle after a
 * tb_latency startup delay, filters transitively dependent
 * instructions with a 32-entry dependency flag table, and re-dispatches
 * them through the recovery rename map.
 *
 * All queued work merges into one pending request (see enqueue), so
 * the "queue" is a single slot.  Request vectors are recycled
 * field-wise everywhere — the steady-state recovery path never
 * allocates once load_roots capacity has warmed up.
 */

#ifndef DMT_DMT_RECOVERY_HH
#define DMT_DMT_RECOVERY_HH

#include <algorithm>
#include <vector>

#include "common/types.hh"

namespace dmt
{

/** A pending recovery request (possibly merged from several events). */
struct RecoveryRequest
{
    /** First trace-buffer entry to examine. */
    u64 start_tb_id = 0;
    /** Corrected thread-input registers (register roots). */
    u32 reg_mask = 0;
    /** Mispredicted loads to re-issue (sorted trace-buffer ids). */
    std::vector<u64> load_roots;

    /** Field-wise copy that reuses load_roots capacity. */
    void
    assignFrom(const RecoveryRequest &o)
    {
        start_tb_id = o.start_tb_id;
        reg_mask = o.reg_mask;
        load_roots.assign(o.load_roots.begin(), o.load_roots.end());
    }

    /** Back to the default state without freeing capacity. */
    void
    clear()
    {
        start_tb_id = 0;
        reg_mask = 0;
        load_roots.clear();
    }
};

/** Per-thread recovery engine state. */
class RecoveryFsm
{
  public:
    enum class State { Idle, Latency, Walk };

    State state = State::Idle;

    /** The single merged pending request (valid iff has_pending). */
    RecoveryRequest pending;
    bool has_pending = false;

    // Active-walk state.
    RecoveryRequest cur;
    u64 walk_pos = 0;
    u32 dep_flags = 0;
    int latency_left = 0;
    /** Next unvisited entry of cur.load_roots. */
    size_t next_root = 0;

    bool busy() const { return state != State::Idle || has_pending; }
    bool walking() const { return state != State::Idle; }

    /**
     * Oldest trace-buffer entry that could still be touched by pending
     * recovery work.  Entries below this id are final and may retire
     * even while a walk is running (re-dispatched entries above it are
     * held back by their completed flag anyway).
     */
    u64
    lowWater() const
    {
        u64 low = ~0ull;
        if (state == State::Walk)
            low = std::min(low, walk_pos);
        else if (state == State::Latency)
            low = std::min(low, cur.start_tb_id);
        if (has_pending)
            low = std::min(low, pending.start_tb_id);
        return low;
    }

    /**
     * Queue recovery work.  All pending work merges into a single
     * walk: union of corrected registers and mispredicted loads,
     * earliest start — one pass over the trace repairs everything
     * (equivalent to, but much faster than, sequential walks).
     */
    void
    enqueue(const RecoveryRequest &req)
    {
        if (!has_pending) {
            pending.assignFrom(req);
            std::sort(pending.load_roots.begin(),
                      pending.load_roots.end());
            has_pending = true;
            return;
        }
        pending.start_tb_id =
            std::min(pending.start_tb_id, req.start_tb_id);
        pending.reg_mask |= req.reg_mask;
        for (u64 id : req.load_roots) {
            auto it = std::lower_bound(pending.load_roots.begin(),
                                       pending.load_roots.end(), id);
            if (it == pending.load_roots.end() || *it != id)
                pending.load_roots.insert(it, id);
        }
    }

    void
    reset()
    {
        state = State::Idle;
        pending.clear();
        has_pending = false;
        cur.clear();
        walk_pos = 0;
        dep_flags = 0;
        latency_left = 0;
        next_root = 0;
    }
};

} // namespace dmt

#endif // DMT_DMT_RECOVERY_HH
