/**
 * @file
 * Lookahead accounting for Figures 8 and 9: how many finally-retired
 * instructions were fetched / executed while an *earlier* (program
 * order) instruction stream was blocked — behind an unresolved branch
 * that turned out mispredicted, or behind an ICache miss.  Both are
 * identically zero on a single-threaded machine, which is the paper's
 * point.
 *
 * Episodes are intervals [start, end) in cycles.  An episode becomes
 * countable once its *owner* (the mispredicted branch / the missed
 * instruction) finally retires — that both establishes that the owner
 * was on the correct path and gives the program-order anchor: any
 * instruction retiring later is later in program order.
 *
 * Retention: every 1024 cycles the engine prunes at the fetch cycle of
 * the oldest instruction still in flight (DmtEngine::lookaheadHorizon).
 * That prune is exact.  Each later covered() query passes a retiring
 * instruction's fetch or first-execute cycle, and neither lies below
 * that horizon, so an episode [start, end) with end below it can never
 * contain one.  ownerRetired() and drop() on a pruned handle do
 * nothing, and the excluded-handle path answers true whether or not
 * the excluded episode was pruned: one that ended below the horizon
 * cannot cover the query either way.  The invariant auditor checks
 * that nothing in flight was fetched before the last horizon.
 *
 * Performance (DESIGN.md section 11): covered() is called up to four
 * times per finally-retired instruction, so a linear scan over the
 * episode ring would dominate a dmt run.  The tracker therefore keeps
 * two structures:
 *
 *  - `episodes`: the FIFO ring of every live episode, ordered by the
 *    monotonic handle — open()/ownerRetired()/drop() resolve handles
 *    with a binary search, and prune() pops from the front only (the
 *    FIFO bound is observable through size() and pinned by tests);
 *  - `countable_` + `pmax_`: the countable episodes sorted by start
 *    cycle with a running prefix-maximum of end, so covered() is a
 *    stabbing query: binary-search the last start <= when and compare
 *    the prefix max against when.  The rare case where the *excluded*
 *    episode itself covers the query point falls back to a linear scan
 *    to keep the owner-excludes-itself semantics exact.
 */

#ifndef DMT_DMT_LOOKAHEAD_HH
#define DMT_DMT_LOOKAHEAD_HH

#include "common/ring_queue.hh"
#include "common/types.hh"

#include <vector>

namespace dmt
{

/** Tracker for one episode class (branch or ICache miss). */
class EpisodeTracker
{
  public:
    /**
     * Register an episode pending owner retirement.
     * @return episode handle (monotonic id).
     */
    u64 open(Cycle start, Cycle end);

    /** The owner finally retired; the episode becomes countable. */
    void ownerRetired(u64 handle);

    /** The owner got squashed; drop the episode. */
    void drop(u64 handle);

    /**
     * Was cycle @p when inside any countable episode?  (Called at final
     * retirement of a candidate instruction; the candidate must not be
     * the owner — pass its own handle in @p exclude, or 0.)
     */
    bool covered(Cycle when, u64 exclude) const;

    /** Discard episodes that can no longer match (end < horizon). */
    void prune(Cycle horizon);

    size_t size() const { return episodes.size(); }

  private:
    /**
     * Episodes each structure is sized for on the first open().  With
     * the prune at the oldest in-flight fetch, at most 417 episodes
     * were live at once over the 8 kernels and seven generated specs
     * on dmt(2,1) to dmt(8,4); a tracker that outgrows this doubles.
     */
    static constexpr size_t kReserve = 1024;

    struct Episode
    {
        u64 handle;
        Cycle start;
        Cycle end;
        bool countable = false;
        bool dropped = false;
    };

    /** A countable episode, mirrored into the start-sorted query index. */
    struct Countable
    {
        Cycle start;
        Cycle end;
        u64 handle;
    };

    /** Ring slot of @p handle, or -1 (ring is handle-ordered). */
    i64 findByHandle(u64 handle) const;

    /** Insert into countable_ keeping start order; update pmax_. */
    void indexCountable(const Episode &e);

    /** Remove @p handle from countable_ (if present); update pmax_. */
    void unindexCountable(u64 handle);

    /** Recompute pmax_ from @p from to the end. */
    void refreshPrefixMax(size_t from);

    RingQueue<Episode> episodes;
    /** Countable episodes sorted by start cycle. */
    std::vector<Countable> countable_;
    /** pmax_[i] = max end over countable_[0..i]. */
    std::vector<Cycle> pmax_;
    u64 next_handle = 1;
};

} // namespace dmt

#endif // DMT_DMT_LOOKAHEAD_HH
