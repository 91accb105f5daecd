#include "dmt/order_tree.hh"

#include <algorithm>

#include "common/log.hh"

namespace dmt
{

OrderTree::OrderTree(int max_threads_)
    : max_threads(max_threads_)
{
    active.assign(static_cast<size_t>(max_threads), 0);
    parent.assign(static_cast<size_t>(max_threads), kNoThread);
    kids.assign(static_cast<size_t>(max_threads), {});
    pos.assign(static_cast<size_t>(max_threads), -1);
}

void
OrderTree::resetWith(ThreadId tid)
{
    std::fill(active.begin(), active.end(), 0);
    std::fill(parent.begin(), parent.end(), kNoThread);
    for (auto &k : kids)
        k.clear();
    top.clear();
    active[idx(tid)] = 1;
    top.push_back(tid);
    invalidate();
}

void
OrderTree::addChild(ThreadId p, ThreadId child)
{
    DMT_ASSERT(active[idx(p)], "parent %d not active", p);
    DMT_ASSERT(!active[idx(child)], "child %d already active", child);
    active[idx(child)] = 1;
    parent[idx(child)] = p;
    kids[idx(p)].insert(kids[idx(p)].begin(), child);
    invalidate();
}

void
OrderTree::remove(ThreadId tid)
{
    DMT_ASSERT(active[idx(tid)], "removing inactive thread %d", tid);

    auto &children = kids[idx(tid)];
    const ThreadId p = parent[idx(tid)];
    auto &siblings = p == kNoThread ? top : kids[idx(p)];
    auto it = std::find(siblings.begin(), siblings.end(), tid);
    DMT_ASSERT(it != siblings.end(), "tree corruption");
    // Splice children into the removed node's position, preserving
    // their relative (most-recent-first) order.
    it = siblings.erase(it);
    siblings.insert(it, children.begin(), children.end());
    for (ThreadId c : children)
        parent[idx(c)] = p;
    children.clear();

    active[idx(tid)] = 0;
    parent[idx(tid)] = kNoThread;
    invalidate();
}

void
OrderTree::walk(ThreadId tid) const
{
    pos[idx(tid)] = static_cast<int>(order_.size());
    order_.push_back(tid);
    for (ThreadId c : kids[idx(tid)])
        walk(c);
}

void
OrderTree::rebuild() const
{
    order_.clear();
    std::fill(pos.begin(), pos.end(), -1);
    for (ThreadId t : top)
        walk(t);
    cache_valid = true;
}

std::vector<ThreadId>
OrderTree::subtree(ThreadId tid) const
{
    std::vector<ThreadId> result;
    std::vector<ThreadId> stack;
    subtreeInto(tid, &result, &stack);
    return result;
}

void
OrderTree::subtreeInto(ThreadId tid, std::vector<ThreadId> *out,
                       std::vector<ThreadId> *scratch) const
{
    DMT_ASSERT(active[idx(tid)], "subtree of inactive thread %d", tid);
    std::vector<ThreadId> &result = *out;
    std::vector<ThreadId> &stack = *scratch;
    result.clear();
    stack.clear();
    stack.push_back(tid);
    while (!stack.empty()) {
        const ThreadId t = stack.back();
        stack.pop_back();
        result.push_back(t);
        for (ThreadId c : kids[idx(t)])
            stack.push_back(c);
    }
}

bool
OrderTree::audit(std::string *why) const
{
    auto fail = [why](std::string msg) {
        if (why)
            *why = std::move(msg);
        return false;
    };
    auto inRange = [this](ThreadId t) {
        return t >= 0 && t < max_threads;
    };

    int n_active = 0;
    for (u8 a : active)
        n_active += a ? 1 : 0;

    std::vector<u8> visited(static_cast<size_t>(max_threads), 0);
    std::vector<ThreadId> stack;
    for (ThreadId t : top) {
        if (!inRange(t))
            return fail("top list holds out-of-range tid "
                        + std::to_string(t));
        if (parent[static_cast<size_t>(t)] != kNoThread)
            return fail("top-level tid " + std::to_string(t)
                        + " has a parent");
        stack.push_back(t);
    }
    int reached = 0;
    while (!stack.empty()) {
        const ThreadId t = stack.back();
        stack.pop_back();
        const size_t i = static_cast<size_t>(t);
        if (!active[i])
            return fail("inactive tid " + std::to_string(t)
                        + " linked into the tree");
        if (visited[i])
            return fail("tid " + std::to_string(t)
                        + " reachable twice (cycle or duplicate link)");
        visited[i] = 1;
        ++reached;
        for (ThreadId c : kids[i]) {
            if (!inRange(c))
                return fail("kids of " + std::to_string(t)
                            + " hold out-of-range tid "
                            + std::to_string(c));
            if (parent[static_cast<size_t>(c)] != t)
                return fail("child " + std::to_string(c)
                            + " does not point back at parent "
                            + std::to_string(t));
            stack.push_back(c);
        }
    }
    if (reached != n_active)
        return fail("tree reaches " + std::to_string(reached)
                    + " nodes but " + std::to_string(n_active)
                    + " are active (orphaned thread)");
    return true;
}

} // namespace dmt
