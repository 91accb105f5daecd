/**
 * @file
 * FIFO lists threaded through one growable node pool.  The engine
 * keeps hundreds of short per-slot lists (the waiters of each physical
 * register, each completion-calendar slot, each store-queue slot); a
 * std::vector per slot has to be reserved to the worst case up front,
 * or it grows, and then allocates, the first time that slot happens to
 * collect a long list.  Threading every list of one element kind
 * through one shared pool sizes the whole family by what is in flight
 * at once: the pool grows (by doubling) until it reaches that
 * high-water mark during warmup and is then allocation-free.
 *
 * A List is a (head, tail) pair of node indexes.  push_back() appends
 * in O(1), forEach() walks front to back, and clear() splices the
 * whole list onto the free list in O(1).  Nodes are addressed by
 * index, never by pointer, so a list walk stays valid while the
 * callback pushes onto other lists and the pool grows under it.
 */

#ifndef DMT_COMMON_LIST_POOL_HH
#define DMT_COMMON_LIST_POOL_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/strutil.hh"
#include "common/types.hh"

namespace dmt
{

template <typename T>
class ListPool
{
  public:
    static constexpr u32 kNil = ~u32{0};

    /** One FIFO list: indexes of its first and last nodes. */
    struct List
    {
        u32 head = kNil;
        u32 tail = kNil;

        bool empty() const { return head == kNil; }
    };

    /** Append @p v to the back of @p l. */
    void
    push_back(List &l, const T &v)
    {
        u32 n = free_;
        if (n != kNil) {
            free_ = nodes_[n].next;
            nodes_[n] = Node{v, kNil};
        } else {
            n = static_cast<u32>(nodes_.size());
            nodes_.push_back(Node{v, kNil});
        }
        if (l.tail == kNil)
            l.head = n;
        else
            nodes_[l.tail].next = n;
        l.tail = n;
    }

    /**
     * Call @p f with a copy of each value of @p l, front to back.  @p f
     * may push onto any list, growing the pool; a value it appends to
     * @p l itself is visited too.  It must not clear @p l.
     */
    template <typename F>
    void
    forEach(const List &l, F &&f) const
    {
        for (u32 n = l.head; n != kNil; n = nodes_[n].next) {
            const T v = nodes_[n].value;
            f(v);
        }
    }

    /** Return every node of @p l to the pool and leave @p l empty. */
    void
    clear(List &l)
    {
        if (l.head == kNil)
            return;
        nodes_[l.tail].next = free_;
        free_ = l.head;
        l = List{};
    }

    /** Nodes the pool holds, free or on a list (its high-water mark). */
    size_t capacity() const { return nodes_.size(); }

    /**
     * Ownership check for InvariantAuditor.  @p visit_lists is called
     * with a function that must be handed every list drawn from this
     * pool.  @return true when each node is either free or on exactly
     * one of those lists, and each list's tail is its last node; else
     * false with the first fault in @p why.
     */
    template <typename VisitLists>
    bool
    audit(VisitLists &&visit_lists, std::string *why) const
    {
        std::vector<u8> seen(nodes_.size(), 0);
        // Claim each node of the chain from @p head; *at ends as its
        // last node.  A node reached twice (on two chains, or a cycle)
        // stops the walk, so a corrupted link cannot spin it: the
        // return value then says why, and *at is that node.
        auto walk = [&](u32 head, u32 *at) -> const char * {
            *at = kNil;
            for (u32 n = head; n != kNil; n = nodes_[n].next) {
                *at = n;
                if (n >= nodes_.size())
                    return "past the pool's end";
                if (seen[n])
                    return "a second time";
                seen[n] = 1;
            }
            return nullptr;
        };
        std::string fault;
        u32 at = kNil;
        if (const char *bad = walk(free_, &at))
            fault = strprintf("the free list reaches node %u %s", at, bad);
        size_t i = 0;
        visit_lists([&](const List &l) {
            const size_t list = i++;
            if (!fault.empty())
                return;
            if (const char *bad = walk(l.head, &at))
                fault = strprintf("list %zu reaches node %u %s", list, at,
                                  bad);
            else if (at != l.tail)
                fault = strprintf("list %zu ends at node %u, not at its "
                                  "tail %u", list, at, l.tail);
        });
        for (size_t n = 0; n < seen.size() && fault.empty(); ++n) {
            if (!seen[n])
                fault = strprintf("node %zu is neither free nor on a "
                                  "list (leaked)", n);
        }
        if (why && !fault.empty())
            *why = fault;
        return fault.empty();
    }

  private:
    friend class EngineInspector; // white-box corruption for tests

    struct Node
    {
        T value;
        u32 next;
    };

    std::vector<Node> nodes_;
    /** Head of the free list, threaded through Node::next. */
    u32 free_ = kNil;
};

} // namespace dmt

#endif // DMT_COMMON_LIST_POOL_HH
