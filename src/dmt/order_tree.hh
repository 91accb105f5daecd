/**
 * @file
 * Thread ordering tree (paper Section 3.1.1).  Threads spawned by the
 * same parent are kept most-recent-first; the program order of all
 * active threads is the preorder walk visiting each node before its
 * children ("top to bottom, right to left" in the paper's figure).  A
 * virtual root lets the head thread retire while keeping the rest of
 * the order intact: a removed node's children are spliced into its
 * position in the parent's child list.
 */

#ifndef DMT_DMT_ORDER_TREE_HH
#define DMT_DMT_ORDER_TREE_HH

#include <string>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace dmt
{

/** Ordering tree over active thread contexts. */
class OrderTree
{
  public:
    explicit OrderTree(int max_threads);

    /** Remove everything and install @p tid as the only thread. */
    void resetWith(ThreadId tid);

    /** Insert @p child as @p parent's most recent child. */
    void addChild(ThreadId parent, ThreadId child);

    /** Remove a thread; its children splice into its position. */
    void remove(ThreadId tid);

    bool contains(ThreadId tid) const { return active[idx(tid)]; }

    /** Program order of all active threads (earliest first). */
    const std::vector<ThreadId> &
    order() const
    {
        if (!cache_valid)
            rebuild();
        return order_;
    }

    /** First (non-speculative / head) thread; kNoThread when empty. */
    ThreadId
    head() const
    {
        const auto &o = order();
        return o.empty() ? kNoThread : o.front();
    }

    /** Last thread in program order; kNoThread when empty. */
    ThreadId
    last() const
    {
        const auto &o = order();
        return o.empty() ? kNoThread : o.back();
    }

    /** Thread after @p tid in program order; kNoThread when none. */
    ThreadId
    successor(ThreadId tid) const
    {
        const auto &o = order();
        const int p = pos[idx(tid)];
        DMT_ASSERT(p >= 0, "successor of inactive thread %d", tid);
        return p + 1 < static_cast<int>(o.size())
            ? o[static_cast<size_t>(p) + 1] : kNoThread;
    }

    /** Thread before @p tid in program order; kNoThread when none. */
    ThreadId
    predecessor(ThreadId tid) const
    {
        order();
        const int p = pos[idx(tid)];
        DMT_ASSERT(p >= 0, "predecessor of inactive thread %d", tid);
        return p > 0 ? order_[static_cast<size_t>(p) - 1] : kNoThread;
    }

    /** Strict program-order comparison of two active threads. */
    bool
    before(ThreadId a, ThreadId b) const
    {
        order();
        const int pa = pos[idx(a)];
        const int pb = pos[idx(b)];
        DMT_ASSERT(pa >= 0 && pb >= 0, "ordering inactive threads");
        return pa < pb;
    }

    /** All active threads in @p tid's subtree, including @p tid. */
    std::vector<ThreadId> subtree(ThreadId tid) const;

    /**
     * subtree() into caller-owned storage (@p out is overwritten,
     * @p scratch is the walk stack) — same visit order, no allocation
     * once the vectors have warmed up.
     */
    void subtreeInto(ThreadId tid, std::vector<ThreadId> *out,
                     std::vector<ThreadId> *scratch) const;

    /** Does @p tid have no children? */
    bool
    leaf(ThreadId tid) const
    {
        return kids[idx(tid)].empty();
    }

    int size() const { return static_cast<int>(order().size()); }

    /**
     * Structural self-check (the invariant auditor's tree leg): every
     * link bidirectional, no inactive node linked, no node reachable
     * twice (i.e. no cycles or duplicate links), every active node
     * reachable from the top list.  Safe to call on a corrupted tree —
     * it never recurses through the structure.
     * @return true when consistent, else false with @p why (if given)
     * describing the first violation found.
     */
    bool audit(std::string *why) const;

  private:
    friend class EngineInspector; // white-box corruption for tests

    size_t
    idx(ThreadId tid) const
    {
        DMT_ASSERT(tid >= 0 && tid < max_threads, "bad thread id %d", tid);
        return static_cast<size_t>(tid);
    }

    void invalidate() { cache_valid = false; }
    void rebuild() const;
    void walk(ThreadId tid) const;

    int max_threads;
    std::vector<u8> active;
    std::vector<ThreadId> parent;           // kNoThread for top level
    std::vector<std::vector<ThreadId>> kids; // most recent first
    std::vector<ThreadId> top;               // top-level, most recent first

    mutable bool cache_valid = false;
    mutable std::vector<ThreadId> order_;
    mutable std::vector<int> pos; // order position per tid, -1 inactive
};

} // namespace dmt

#endif // DMT_DMT_ORDER_TREE_HH
