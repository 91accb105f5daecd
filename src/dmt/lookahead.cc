#include "dmt/lookahead.hh"

#include <algorithm>

namespace dmt
{

u64
EpisodeTracker::open(Cycle start, Cycle end)
{
    // Pre-size everything on the first episode so the steady-state
    // engine loop never allocates here (64 KB per tracker).  A machine
    // that never opens an episode (the single-threaded baseline) pays
    // nothing.
    if (episodes.capacity() == 0) {
        episodes.reserve(kReserve);
        countable_.reserve(kReserve);
        pmax_.reserve(kReserve);
    }
    const u64 handle = next_handle++;
    episodes.push_back({handle, start, end, false, false});
    return handle;
}

i64
EpisodeTracker::findByHandle(u64 handle) const
{
    // Handles are assigned monotonically and prune() only pops the
    // front, so the ring is sorted by handle: binary search.
    size_t lo = 0, hi = episodes.size();
    while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (episodes[mid].handle < handle)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo < episodes.size() && episodes[lo].handle == handle)
        return static_cast<i64>(lo);
    return -1;
}

void
EpisodeTracker::refreshPrefixMax(size_t from)
{
    pmax_.resize(countable_.size());
    for (size_t i = from; i < countable_.size(); ++i) {
        const Cycle prev = i ? pmax_[i - 1] : 0;
        pmax_[i] = std::max(prev, countable_[i].end);
    }
}

void
EpisodeTracker::indexCountable(const Episode &e)
{
    const auto pos = std::upper_bound(
        countable_.begin(), countable_.end(), e.start,
        [](Cycle when, const Countable &c) { return when < c.start; });
    const size_t at = static_cast<size_t>(pos - countable_.begin());
    countable_.insert(pos, Countable{e.start, e.end, e.handle});
    refreshPrefixMax(at);
}

void
EpisodeTracker::unindexCountable(u64 handle)
{
    for (size_t i = 0; i < countable_.size(); ++i) {
        if (countable_[i].handle == handle) {
            countable_.erase(countable_.begin()
                             + static_cast<std::ptrdiff_t>(i));
            refreshPrefixMax(i);
            return;
        }
    }
}

void
EpisodeTracker::ownerRetired(u64 handle)
{
    const i64 at = findByHandle(handle);
    if (at < 0)
        return;
    Episode &e = episodes[static_cast<size_t>(at)];
    // A dropped episode must not resurrect, and a second notification
    // must not index the episode twice.
    if (e.countable || e.dropped) {
        e.countable = true;
        return;
    }
    e.countable = true;
    indexCountable(e);
}

void
EpisodeTracker::drop(u64 handle)
{
    const i64 at = findByHandle(handle);
    if (at < 0)
        return;
    Episode &e = episodes[static_cast<size_t>(at)];
    if (e.dropped)
        return;
    e.dropped = true;
    if (e.countable)
        unindexCountable(handle);
}

bool
EpisodeTracker::covered(Cycle when, u64 exclude) const
{
    // Stabbing query on the start-sorted countable set: the last
    // episode with start <= when exists and some episode at or before
    // it ends after when.
    const auto pos = std::upper_bound(
        countable_.begin(), countable_.end(), when,
        [](Cycle w, const Countable &c) { return w < c.start; });
    if (pos == countable_.begin())
        return false;
    const size_t last = static_cast<size_t>(pos - countable_.begin()) - 1;
    if (pmax_[last] <= when)
        return false;
    if (exclude == 0)
        return true;

    // Some countable episode covers `when`; it might be the excluded
    // one.  In the engine the excluded handle is the candidate's own
    // episode, which only becomes countable *after* this query, so this
    // is the cold path — but the owner-excludes-itself rule must stay
    // exact regardless.
    const i64 at = findByHandle(exclude);
    if (at < 0)
        return true;
    const Episode &e = episodes[static_cast<size_t>(at)];
    if (!e.countable || e.dropped || when < e.start || when >= e.end)
        return true;
    for (size_t i = 0; i <= last; ++i) {
        const Countable &c = countable_[i];
        if (c.end > when && c.handle != exclude)
            return true;
    }
    return false;
}

void
EpisodeTracker::prune(Cycle horizon)
{
    bool popped = false;
    while (!episodes.empty() && episodes.front().end < horizon) {
        episodes.pop_front();
        popped = true;
    }
    if (!popped)
        return;
    // Everything pruned from the ring has a handle below the new front
    // (or the ring emptied); evict the same episodes from the query
    // index.  erase-remove keeps the start order intact.
    const u64 min_handle = episodes.empty()
        ? next_handle : episodes.front().handle;
    const auto it = std::remove_if(
        countable_.begin(), countable_.end(),
        [min_handle](const Countable &c) { return c.handle < min_handle; });
    if (it != countable_.end()) {
        countable_.erase(it, countable_.end());
        refreshPrefixMax(0);
    }
}

} // namespace dmt
