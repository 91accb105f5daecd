#include "fault/auditor.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <unordered_set>
#include <vector>

#include "common/log.hh"
#include "dmt/engine.hh"
#include "fault/postmortem.hh"

namespace dmt
{

namespace
{

/** Record the first violation; all checks funnel through this. */
bool
fail(std::string *why, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

bool
fail(std::string *why, const char *fmt, ...)
{
    if (why) {
        va_list ap;
        va_start(ap, fmt);
        char buf[512];
        std::vsnprintf(buf, sizeof(buf), fmt, ap);
        va_end(ap);
        *why = buf;
    }
    return false;
}

} // namespace

/** Order tree: internal structure + agreement with the engine's
 *  per-context active flags. */
bool
InvariantAuditor::auditTree(const DmtEngine &e, std::string *why)
{
    std::string tree_why;
    if (!e.tree.audit(&tree_why))
        return fail(why, "order tree: %s", tree_why.c_str());
    for (const auto &t : e.threads) {
        if (e.tree.contains(t->id) != t->active) {
            return fail(why,
                        "order tree/context disagreement: tid %d is %s "
                        "in the tree but context is %s",
                        t->id,
                        e.tree.contains(t->id) ? "present" : "absent",
                        t->active ? "active" : "inactive");
        }
    }
    return true;
}

/** Recovery FSM legality for one thread. */
bool
InvariantAuditor::auditRecovery(const ThreadContext &t, std::string *why)
{
    const RecoveryFsm &r = t.recov;
    if (r.state == RecoveryFsm::State::Walk) {
        if (r.walk_pos < t.tb.firstId() || r.walk_pos > t.tb.endId()) {
            return fail(why,
                        "tid %d: recovery walk position %llu outside "
                        "trace buffer [%llu, %llu]",
                        t.id, (unsigned long long)r.walk_pos,
                        (unsigned long long)t.tb.firstId(),
                        (unsigned long long)t.tb.endId());
        }
    }
    if (r.latency_left < 0) {
        return fail(why, "tid %d: negative recovery latency %d", t.id,
                    r.latency_left);
    }
    if (r.state == RecoveryFsm::State::Idle && r.latency_left != 0) {
        return fail(why, "tid %d: idle recovery FSM with latency %d",
                    t.id, r.latency_left);
    }
    if (r.busy() && r.lowWater() < t.tb.firstId()) {
        return fail(why,
                    "tid %d: recovery low-water %llu below trace buffer "
                    "base %llu (retirement overran pending recovery)",
                    t.id, (unsigned long long)r.lowWater(),
                    (unsigned long long)t.tb.firstId());
    }
    auto rootsSorted = [](const RecoveryRequest &q) {
        return std::is_sorted(q.load_roots.begin(), q.load_roots.end());
    };
    if (!rootsSorted(r.cur))
        return fail(why, "tid %d: active walk load roots unsorted", t.id);
    if (r.has_pending && !rootsSorted(r.pending))
        return fail(why, "tid %d: pending load roots unsorted", t.id);
    return true;
}

/** Trace-buffer entry invariants + LSQ back-pointers for one thread. */
bool
InvariantAuditor::auditTraceBuffer(const DmtEngine &e,
                                   const ThreadContext &t,
                                   std::string *why)
{
    for (u64 id = t.tb.firstId(); id < t.tb.endId(); ++id) {
        const TBEntry &entry = t.tb.at(id);
        if (entry.id != id) {
            return fail(why,
                        "tid %d: trace buffer slot %llu holds entry id "
                        "%llu",
                        t.id, (unsigned long long)id,
                        (unsigned long long)entry.id);
        }
        if (entry.completed && !entry.result_valid) {
            return fail(why,
                        "tid %d: entry %llu completed without a valid "
                        "result",
                        t.id, (unsigned long long)id);
        }
        if (entry.inst.isLoad()) {
            if (entry.lq_id < 0
                || entry.lq_id >= static_cast<i32>(e.lsq.loads.size())) {
                return fail(why, "tid %d: load entry %llu has bad lq id "
                            "%d", t.id, (unsigned long long)id,
                            entry.lq_id);
            }
            const LsqLoad &ld =
                e.lsq.loads[static_cast<size_t>(entry.lq_id)];
            if (!ld.valid || ld.tid != t.id || ld.tgen != t.gen
                || ld.tb_id != id) {
                return fail(why,
                            "tid %d: load entry %llu lq slot %d does "
                            "not point back (valid=%d tid=%d gen=%u "
                            "tb=%llu)",
                            t.id, (unsigned long long)id, entry.lq_id,
                            ld.valid, ld.tid, ld.tgen,
                            (unsigned long long)ld.tb_id);
            }
        }
        if (entry.inst.isStore()) {
            if (entry.sq_id < 0
                || entry.sq_id >= static_cast<i32>(e.lsq.stores.size())) {
                return fail(why, "tid %d: store entry %llu has bad sq "
                            "id %d", t.id, (unsigned long long)id,
                            entry.sq_id);
            }
            const LsqStore &st =
                e.lsq.stores[static_cast<size_t>(entry.sq_id)];
            if (!st.valid || st.tid != t.id || st.tgen != t.gen
                || st.tb_id != id) {
                return fail(why,
                            "tid %d: store entry %llu sq slot %d does "
                            "not point back (valid=%d tid=%d gen=%u "
                            "tb=%llu)",
                            t.id, (unsigned long long)id, entry.sq_id,
                            st.valid, st.tid, st.tgen,
                            (unsigned long long)st.tb_id);
            }
        }
    }
    return true;
}

/** LSQ internals: free lists, per-thread occupancy, by-word indexes. */
bool
InvariantAuditor::auditLsq(const DmtEngine &e, std::string *why)
{
    const Lsq &q = e.lsq;

    auto auditSide = [&](const char *side, size_t total,
                         const std::vector<i32> &free_list,
                         const std::vector<int> &counts,
                         auto validOf, auto tidOf) -> bool {
        std::vector<u8> is_free(total, 0);
        for (i32 id : free_list) {
            if (id < 0 || id >= static_cast<i32>(total))
                return fail(why, "lsq %s free list holds bad id %d",
                            side, id);
            if (is_free[static_cast<size_t>(id)])
                return fail(why, "lsq %s id %d on free list twice",
                            side, id);
            is_free[static_cast<size_t>(id)] = 1;
            if (validOf(id))
                return fail(why, "lsq %s id %d free but valid", side,
                            id);
        }
        std::vector<int> seen(counts.size(), 0);
        size_t n_valid = 0;
        for (size_t id = 0; id < total; ++id) {
            if (!validOf(static_cast<i32>(id)))
                continue;
            ++n_valid;
            const ThreadId tid = tidOf(static_cast<i32>(id));
            if (tid < 0 || tid >= static_cast<ThreadId>(counts.size()))
                return fail(why, "lsq %s id %zu owned by bad tid %d",
                            side, id, tid);
            ++seen[static_cast<size_t>(tid)];
        }
        if (n_valid + free_list.size() != total) {
            return fail(why,
                        "lsq %s slot leak: %zu valid + %zu free != %zu "
                        "total",
                        side, n_valid, free_list.size(), total);
        }
        for (size_t tid = 0; tid < counts.size(); ++tid) {
            if (counts[tid] != seen[tid]) {
                return fail(why,
                            "lsq %s count drift: tid %zu records %d "
                            "but holds %d",
                            side, tid, counts[tid], seen[tid]);
            }
        }
        return true;
    };

    if (!auditSide("load", q.loads.size(), q.free_loads, q.lq_count,
                   [&](i32 id) {
                       return q.loads[static_cast<size_t>(id)].valid;
                   },
                   [&](i32 id) {
                       return q.loads[static_cast<size_t>(id)].tid;
                   })) {
        return false;
    }
    if (!auditSide("store", q.stores.size(), q.free_stores, q.sq_count,
                   [&](i32 id) {
                       return q.stores[static_cast<size_t>(id)].valid;
                   },
                   [&](i32 id) {
                       return q.stores[static_cast<size_t>(id)].tid;
                   })) {
        return false;
    }

    // By-word indexes: every listed id is a valid issued/executed entry
    // filed under the word of its current address, exactly once; every
    // issued/executed entry is listed.
    auto auditIndex = [&](const char *side, const WordIndex &by_word,
                          const auto &entries, auto inIndex,
                          auto addrOf) -> bool {
        std::unordered_set<i32> listed;
        bool ok = true;
        by_word.forEachChain([&](Addr word, i32 head) {
            if (!ok)
                return;
            // Bounded walk: a cycle in the intrusive links would spin
            // past the entry count and trip the duplicate check.
            for (i32 id = head; id >= 0; id = by_word.chainNext(id)) {
                if (id >= static_cast<i32>(entries.size())) {
                    ok = fail(why, "lsq %s index holds bad id %d",
                              side, id);
                    return;
                }
                if (!inIndex(id)) {
                    ok = fail(why,
                              "lsq %s index holds id %d that is not "
                              "an issued valid entry",
                              side, id);
                    return;
                }
                if ((addrOf(id) & ~3u) != word) {
                    ok = fail(why,
                              "lsq %s id %d filed under word 0x%x but "
                              "addressed 0x%x",
                              side, id, word, addrOf(id));
                    return;
                }
                if (!listed.insert(id).second) {
                    ok = fail(why, "lsq %s id %d indexed twice", side,
                              id);
                    return;
                }
            }
        });
        if (!ok)
            return false;
        for (size_t id = 0; id < entries.size(); ++id) {
            if (inIndex(static_cast<i32>(id))
                && !listed.count(static_cast<i32>(id))) {
                return fail(why, "lsq %s id %zu missing from the "
                            "by-word index", side, id);
            }
        }
        return true;
    };

    if (!auditIndex("load", q.loads_by_word, q.loads,
                    [&](i32 id) {
                        const LsqLoad &ld =
                            q.loads[static_cast<size_t>(id)];
                        return ld.valid && ld.issued;
                    },
                    [&](i32 id) {
                        return q.loads[static_cast<size_t>(id)].addr;
                    })) {
        return false;
    }
    if (!auditIndex("store", q.stores_by_word, q.stores,
                    [&](i32 id) {
                        const LsqStore &st =
                            q.stores[static_cast<size_t>(id)];
                        return st.valid && st.executed;
                    },
                    [&](i32 id) {
                        return q.stores[static_cast<size_t>(id)].addr;
                    })) {
        return false;
    }

    // Unexecuted-store list: every valid store without an address is
    // listed exactly once, at the position its slot records, and
    // nothing else is listed.
    std::vector<u8> listed(q.stores.size(), 0);
    for (size_t pos = 0; pos < q.unexecuted_.size(); ++pos) {
        const i32 id = q.unexecuted_[pos];
        if (id < 0 || id >= static_cast<i32>(q.stores.size()))
            return fail(why, "lsq unexecuted list holds bad id %d", id);
        const LsqStore &st = q.stores[static_cast<size_t>(id)];
        if (!st.valid || st.executed) {
            return fail(why,
                        "lsq unexecuted list holds store %d (valid=%d "
                        "executed=%d)",
                        id, st.valid, st.executed);
        }
        if (listed[static_cast<size_t>(id)]++)
            return fail(why, "lsq store %d on the unexecuted list twice",
                        id);
        if (q.unexecuted_pos_[static_cast<size_t>(id)]
            != static_cast<i32>(pos)) {
            return fail(why,
                        "lsq store %d listed at %zu but records "
                        "position %d",
                        id, pos, q.unexecuted_pos_[static_cast<size_t>(id)]);
        }
    }
    for (size_t id = 0; id < q.stores.size(); ++id) {
        const LsqStore &st = q.stores[id];
        if (st.valid && !st.executed && !listed[id])
            return fail(why, "lsq unexecuted store %zu missing from the "
                        "unexecuted list", id);
        if (!listed[id] && q.unexecuted_pos_[id] != -1)
            return fail(why, "lsq store %zu unlisted but records "
                        "position %d", id, q.unexecuted_pos_[id]);
    }
    return true;
}

/** Store drain queue: valid retired stores in retirement order. */
bool
InvariantAuditor::auditDrainQueue(const DmtEngine &e, std::string *why)
{
    u64 last_seq = 0;
    bool first = true;
    for (i32 sq_id : e.drain_q) {
        if (sq_id < 0 || sq_id >= static_cast<i32>(e.lsq.stores.size()))
            return fail(why, "drain queue holds bad sq id %d", sq_id);
        const LsqStore &st = e.lsq.stores[static_cast<size_t>(sq_id)];
        if (!st.valid || !st.retired || !st.executed) {
            return fail(why,
                        "drain queue sq id %d not a valid retired "
                        "executed store (valid=%d retired=%d "
                        "executed=%d)",
                        sq_id, st.valid, st.retired, st.executed);
        }
        if (!first && st.retire_seq < last_seq) {
            return fail(why,
                        "drain queue out of retirement order: seq %llu "
                        "after %llu",
                        (unsigned long long)st.retire_seq,
                        (unsigned long long)last_seq);
        }
        last_seq = st.retire_seq;
        first = false;
    }
    return true;
}

/**
 * Physical registers and the active window.  Ownership is exact: every
 * allocated register is the destination of exactly one live
 * (non-squashed, not yet early-retired) DynInst, and those DynInsts
 * are precisely the window population.
 */
bool
InvariantAuditor::auditRegsAndWindow(const DmtEngine &e, std::string *why)
{
    const int n_alloc = e.prf.numAllocated();
    if (n_alloc != e.prf.count() - e.prf.numFree()) {
        return fail(why,
                    "phys reg free list drift: %d allocation bits set "
                    "but %d of %d off the free list",
                    n_alloc, e.prf.count() - e.prf.numFree(),
                    e.prf.count());
    }

    std::vector<i32> holder(static_cast<size_t>(e.prf.count()),
                            kNoThread);
    int live_window = 0;
    int held = 0;
    for (const auto &t : e.threads) {
        for (const DynRef &ref : t->pipe) {
            const DynInst *d = e.pool.get(ref);
            if (!d || d->squashed)
                continue;
            ++live_window;
            if (d->dest_phys == kNoPhysReg)
                continue;
            if (d->dest_phys < 0 || d->dest_phys >= e.prf.count())
                return fail(why, "tid %d holds out-of-range phys reg "
                            "%d", t->id, d->dest_phys);
            if (!e.prf.allocated(d->dest_phys)) {
                return fail(why,
                            "tid %d pc 0x%x holds phys reg %d that is "
                            "on the free list (use after free)",
                            t->id, d->pc, d->dest_phys);
            }
            i32 &h = holder[static_cast<size_t>(d->dest_phys)];
            if (h != kNoThread) {
                return fail(why,
                            "phys reg %d held by two live instructions "
                            "(tids %d and %d)",
                            d->dest_phys, h, t->id);
            }
            h = t->id;
            ++held;
        }
    }
    if (held != n_alloc) {
        return fail(why,
                    "physical register leak: %d registers allocated "
                    "but %d held by live instructions",
                    n_alloc, held);
    }

    if (e.window_used < 0 || e.window_used > SimConfig::kWindowSize) {
        return fail(why,
                    "active window occupancy %d outside [0, %d]",
                    e.window_used, SimConfig::kWindowSize);
    }
    if (e.window_used != live_window) {
        return fail(why,
                    "active window accounting drift: counter %d but %d "
                    "live instructions in flight",
                    e.window_used, live_window);
    }
    return true;
}

/** Everything in flight was fetched at or after the last prune horizon:
 *  later lookahead queries never reach below it. */
bool
InvariantAuditor::auditLookaheadHorizon(const DmtEngine &e,
                                        const ThreadContext &t,
                                        std::string *why)
{
    const Cycle horizon = e.la_horizon_;
    for (u64 id = t.tb.firstId(); id < t.tb.endId(); ++id) {
        const Cycle fetched = t.tb.at(id).fetch_cycle;
        if (fetched < horizon) {
            return fail(why,
                        "tid %d: entry %llu fetched at cycle %llu, before "
                        "the lookahead prune horizon %llu",
                        t.id, (unsigned long long)id,
                        (unsigned long long)fetched,
                        (unsigned long long)horizon);
        }
    }
    for (size_t i = 0; i < t.fq.size(); ++i) {
        if (t.fq[i].fetch_cycle < horizon) {
            return fail(why,
                        "tid %d: fetch-queue slot %zu fetched at cycle "
                        "%llu, before the lookahead prune horizon %llu",
                        t.id, i, (unsigned long long)t.fq[i].fetch_cycle,
                        (unsigned long long)horizon);
        }
    }
    return true;
}

/** Each pooled list family: every node free or on exactly one list. */
bool
InvariantAuditor::auditListPools(const DmtEngine &e, std::string *why)
{
    auto audit = [&](const char *name, const auto &pool,
                     auto &&visit_lists) {
        std::string pool_why;
        return pool.audit(visit_lists, &pool_why)
            || fail(why, "%s pool: %s", name, pool_why.c_str());
    };
    const Lsq &q = e.lsq;
    return audit("calendar", e.calendar_pool,
                 [&](auto &&list) {
                     for (const auto &slot : e.calendar)
                         list(slot);
                 })
        && audit("operand-waiter", e.waiter_pool,
                 [&](auto &&list) {
                     for (const auto &subs : e.psubs)
                         list(subs.waiters);
                     for (const auto &per_thread : e.io_waiters) {
                         for (const auto &waiters : per_thread)
                             list(waiters);
                     }
                 })
        && audit("input-subscription", e.io_sub_pool,
                 [&](auto &&list) {
                     for (const auto &subs : e.psubs)
                         list(subs.io_subs);
                 })
        && audit("lsq stall-waiter", q.stall_pool,
                 [&](auto &&list) {
                     for (const LsqStore &st : q.stores)
                         list(st.stall_waiters);
                 })
        && audit("lsq forwardee", q.fwd_pool,
                 [&](auto &&list) {
                     for (const LsqStore &st : q.stores)
                         list(st.forwardees);
                 });
}

bool
InvariantAuditor::checkNoThrow(const DmtEngine &e, std::string *why)
{
    if (!auditTree(e, why))
        return false;
    for (const auto &t : e.threads) {
        if (!t->active)
            continue;
        if (!auditRecovery(*t, why))
            return false;
        if (!auditTraceBuffer(e, *t, why))
            return false;
        if (!auditLookaheadHorizon(e, *t, why))
            return false;
    }
    if (!auditLsq(e, why))
        return false;
    if (!auditDrainQueue(e, why))
        return false;
    if (!auditRegsAndWindow(e, why))
        return false;
    if (!auditListPools(e, why))
        return false;
    return true;
}

void
InvariantAuditor::check(const DmtEngine &e)
{
    std::string why;
    if (checkNoThrow(e, &why))
        return;
    std::string details =
        Postmortem::dump(e, "invariant-audit", why);
    panicWithDetails(std::move(details),
                     "invariant audit failed at cycle %llu: %s",
                     (unsigned long long)e.now_, why.c_str());
}

} // namespace dmt
