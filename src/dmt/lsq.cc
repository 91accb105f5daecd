#include "dmt/lsq.hh"

#include <algorithm>

#include "common/log.hh"

namespace dmt
{

Lsq::Lsq(int lq_per_thread_, int sq_per_thread_, int max_threads)
    : lq_per_thread(lq_per_thread_), sq_per_thread(sq_per_thread_)
{
    const int lq_total = lq_per_thread * max_threads;
    const int sq_total = sq_per_thread * max_threads;
    loads.resize(static_cast<size_t>(lq_total));
    stores.resize(static_cast<size_t>(sq_total));
    unexecuted_.reserve(static_cast<size_t>(sq_total));
    unexecuted_pos_.assign(static_cast<size_t>(sq_total), -1);
    for (int i = lq_total - 1; i >= 0; --i)
        free_loads.push_back(i);
    for (int i = sq_total - 1; i >= 0; --i)
        free_stores.push_back(i);
    lq_count.assign(static_cast<size_t>(max_threads), 0);
    sq_count.assign(static_cast<size_t>(max_threads), 0);
    loads_by_word.init(static_cast<size_t>(lq_total));
    stores_by_word.init(static_cast<size_t>(sq_total));
    violations_scratch_.reserve(static_cast<size_t>(lq_total));
    free_store_result_.orphaned_loads.reserve(
        static_cast<size_t>(lq_total));
    free_store_result_.stall_waiters.reserve(
        static_cast<size_t>(lq_total));
}

i32
Lsq::allocLoad(ThreadId tid, u32 tgen, u64 tb_id)
{
    if (lqFull(tid) || free_loads.empty())
        return -1;
    const i32 id = free_loads.back();
    free_loads.pop_back();
    LsqLoad &e = loads[static_cast<size_t>(id)];
    e = LsqLoad{};
    e.valid = true;
    e.tid = tid;
    e.tgen = tgen;
    e.tb_id = tb_id;
    ++lq_count[static_cast<size_t>(tid)];
    return id;
}

i32
Lsq::allocStore(ThreadId tid, u32 tgen, u64 tb_id)
{
    if (sqFull(tid) || free_stores.empty())
        return -1;
    const i32 id = free_stores.back();
    free_stores.pop_back();
    LsqStore &e = stores[static_cast<size_t>(id)];
    // freeStore() returned both lists' nodes to their pools.
    e = LsqStore{};
    e.valid = true;
    e.tid = tid;
    e.tgen = tgen;
    e.tb_id = tb_id;
    ++sq_count[static_cast<size_t>(tid)];
    unexecuted_pos_[static_cast<size_t>(id)] =
        static_cast<i32>(unexecuted_.size());
    unexecuted_.push_back(id);
    return id;
}

void
Lsq::unlistUnexecuted(i32 sq_id)
{
    // Swap with the last element and pop: the list is unordered.
    i32 &pos = unexecuted_pos_[static_cast<size_t>(sq_id)];
    DMT_ASSERT(pos >= 0, "store %d not on the unexecuted list", sq_id);
    const i32 moved = unexecuted_.back();
    unexecuted_[static_cast<size_t>(pos)] = moved;
    unexecuted_pos_[static_cast<size_t>(moved)] = pos;
    unexecuted_.pop_back();
    pos = -1;
}

void
Lsq::freeLoad(i32 id)
{
    LsqLoad &e = load(id);
    if (e.issued)
        loads_by_word.remove(wordOf(e.addr), id);
    --lq_count[static_cast<size_t>(e.tid)];
    e.valid = false;
    free_loads.push_back(id);
}

const Lsq::FreeStoreResult &
Lsq::freeStore(i32 id, bool squashed)
{
    FreeStoreResult &result = free_store_result_;
    result.orphaned_loads.clear();
    result.stall_waiters.clear();
    LsqStore &e = store(id);
    if (e.executed) {
        stores_by_word.remove(wordOf(e.addr), id);
        // Detach loads that forwarded from this store.  On a squash
        // they consumed phantom data and must re-execute; on a normal
        // drain their data was correct, but the dangling reference
        // must still be cleared before the slot is reused.
        fwd_pool.forEach(e.forwardees, [&](i32 lid) {
            LsqLoad &ld = loads[static_cast<size_t>(lid)];
            if (!ld.valid || !ld.issued || ld.fwd_store != id)
                return;
            ld.fwd_store = -1;
            if (squashed)
                result.orphaned_loads.push_back(lid);
        });
    } else {
        unlistUnexecuted(id);
    }
    stall_pool.forEach(e.stall_waiters, [&](DynRef ref) {
        result.stall_waiters.push_back(ref);
    });
    --sq_count[static_cast<size_t>(e.tid)];
    e.valid = false;
    stall_pool.clear(e.stall_waiters);
    fwd_pool.clear(e.forwardees);
    free_stores.push_back(id);
    return result;
}

bool
Lsq::lqFull(ThreadId tid) const
{
    return lq_count[static_cast<size_t>(tid)] >= lq_per_thread;
}

bool
Lsq::sqFull(ThreadId tid) const
{
    return sq_count[static_cast<size_t>(tid)] >= sq_per_thread;
}

LsqLoad &
Lsq::load(i32 id)
{
    DMT_ASSERT(id >= 0 && id < static_cast<i32>(loads.size())
               && loads[static_cast<size_t>(id)].valid,
               "bad load id %d", id);
    return loads[static_cast<size_t>(id)];
}

LsqStore &
Lsq::store(i32 id)
{
    DMT_ASSERT(id >= 0 && id < static_cast<i32>(stores.size())
               && stores[static_cast<size_t>(id)].valid,
               "bad store id %d", id);
    return stores[static_cast<size_t>(id)];
}

bool
Lsq::overlaps(Addr a1, u8 b1, Addr a2, u8 b2)
{
    return a1 < a2 + b2 && a2 < a1 + b1;
}

bool
Lsq::contains(Addr load_addr, u8 load_bytes, Addr store_addr,
              u8 store_bytes)
{
    return store_addr <= load_addr
        && load_addr + load_bytes <= store_addr + store_bytes;
}

u32
Lsq::extractStoreBytes(const LsqStore &st, Addr load_addr, u8 load_bytes)
{
    DMT_ASSERT(contains(load_addr, load_bytes, st.addr, st.bytes),
               "extract from non-containing store");
    const u32 shift = (load_addr - st.addr) * 8;
    const u32 mask = load_bytes >= 4 ? ~0u : ((1u << (load_bytes * 8)) - 1);
    return (st.data >> shift) & mask;
}

Lsq::LoadIssueResult
Lsq::loadIssue(i32 lq_id, Addr addr, u8 bytes, const OrderOracle &order)
{
    LsqLoad &ld = load(lq_id);
    if (ld.issued)
        loads_by_word.remove(wordOf(ld.addr), lq_id);
    ld.issued = true;
    ld.addr = addr;
    ld.bytes = bytes;
    ld.fwd_store = -1;
    loads_by_word.insert(wordOf(addr), lq_id);

    // Find the latest program-order-earlier executed store overlapping
    // this address.  Chain order is arbitrary; the selected store is
    // the unique maximum under the strict total order storeBefore, so
    // the result does not depend on traversal order.
    LoadIssueResult result;
    i32 best = -1;
    for (i32 sid = stores_by_word.chainHead(wordOf(addr)); sid >= 0;
         sid = stores_by_word.chainNext(sid)) {
        const LsqStore &st = stores[static_cast<size_t>(sid)];
        if (!st.executed || !overlaps(addr, bytes, st.addr, st.bytes))
            continue;
        if (!storeBeforeLoad(st, ld, order))
            continue;
        if (best < 0
            || storeBefore(stores[static_cast<size_t>(best)], st,
                           order)) {
            best = sid;
        }
    }

    if (best < 0) {
        result.kind = LoadIssueResult::Memory;
        return result;
    }

    LsqStore &st = stores[static_cast<size_t>(best)];
    result.store_id = best;
    result.cross_thread = st.tid != ld.tid;
    if (contains(addr, bytes, st.addr, st.bytes)) {
        result.kind = LoadIssueResult::Forward;
        ld.fwd_store = best;
        fwd_pool.push_back(st.forwardees, lq_id);
    } else {
        result.kind = LoadIssueResult::Stall;
    }
    return result;
}

void
Lsq::setLoadValue(i32 lq_id, u32 raw_value)
{
    load(lq_id).raw_value = raw_value;
}

const std::vector<i32> &
Lsq::storeExecute(i32 sq_id, Addr addr, u8 bytes, u32 data,
                  const OrderOracle &order)
{
    LsqStore &st = store(sq_id);
    const bool re_exec = st.executed;
    const Addr old_word = wordOf(st.addr);
    if (re_exec && old_word != wordOf(addr)) {
        stores_by_word.remove(old_word, sq_id);
        stores_by_word.insert(wordOf(addr), sq_id);
    } else if (!re_exec) {
        stores_by_word.insert(wordOf(addr), sq_id);
        unlistUnexecuted(sq_id);
    }
    st.executed = true;
    st.addr = addr;
    st.bytes = bytes;
    st.data = data;

    std::vector<i32> &violations = violations_scratch_;
    violations.clear();
    auto consider = [&](i32 lid) {
        const LsqLoad &ld = loads[static_cast<size_t>(lid)];
        if (!ld.valid || !ld.issued)
            return;
        if (!storeBeforeLoad(st, ld, order))
            return;
        const bool overlap = overlaps(ld.addr, ld.bytes, st.addr,
                                      st.bytes);
        const bool was_fwd = ld.fwd_store == sq_id;
        bool stale;
        if (was_fwd) {
            // Fine only if the new address/data reproduce what the load
            // already observed.
            stale = !contains(ld.addr, ld.bytes, st.addr, st.bytes)
                || extractStoreBytes(st, ld.addr, ld.bytes)
                       != ld.raw_value;
        } else {
            // The load read around this store: stale iff it overlaps,
            // unless a *later* (but still earlier-than-load) store had
            // already forwarded the value the load used — that store
            // shadows this one — or the store writes exactly the bytes
            // the load already observed (silent store w.r.t. this load).
            stale = overlap;
            if (stale && contains(ld.addr, ld.bytes, st.addr, st.bytes)
                && extractStoreBytes(st, ld.addr, ld.bytes)
                       == ld.raw_value) {
                stale = false;
            }
            if (stale && ld.fwd_store >= 0) {
                const LsqStore &fwd =
                    stores[static_cast<size_t>(ld.fwd_store)];
                if (fwd.valid && fwd.executed
                    && storeBefore(st, fwd, order)
                    && contains(ld.addr, ld.bytes, fwd.addr, fwd.bytes)) {
                    stale = false;
                }
            }
        }
        if (stale)
            violations.push_back(lid);
    };

    // Loads overlapping the new address.
    for (i32 lid = loads_by_word.chainHead(wordOf(addr)); lid >= 0;
         lid = loads_by_word.chainNext(lid)) {
        consider(lid);
    }
    // Loads that forwarded from this store under the previous address.
    if (re_exec && old_word != wordOf(addr)) {
        for (i32 lid = loads_by_word.chainHead(old_word); lid >= 0;
             lid = loads_by_word.chainNext(lid)) {
            const LsqLoad &ld = loads[static_cast<size_t>(lid)];
            if (ld.valid && ld.issued && ld.fwd_store == sq_id)
                consider(lid);
        }
    }

    // Deduplicate (a load can be reached via both paths).
    std::sort(violations.begin(), violations.end());
    violations.erase(std::unique(violations.begin(), violations.end()),
                     violations.end());
    return violations;
}

void
Lsq::storeRetired(i32 sq_id, u64 retire_seq)
{
    LsqStore &st = store(sq_id);
    st.retired = true;
    st.retire_seq = retire_seq;
}

bool
Lsq::storeBefore(const LsqStore &a, const LsqStore &b,
                 const OrderOracle &order) const
{
    if (a.retired && b.retired)
        return a.retire_seq < b.retire_seq;
    if (a.retired != b.retired)
        return a.retired; // retired stores precede speculative ones
    return order.memBefore(a.tid, a.tb_id, b.tid, b.tb_id);
}

bool
Lsq::storeBeforeLoad(const LsqStore &st, const LsqLoad &ld,
                     const OrderOracle &order)
{
    if (st.retired)
        return true; // the load is still live, hence later
    return order.memBefore(st.tid, st.tb_id, ld.tid, ld.tb_id);
}

void
Lsq::addStallWaiter(i32 sq_id, DynRef dyn)
{
    stall_pool.push_back(store(sq_id).stall_waiters, dyn);
}

bool
Lsq::hasUnexecutedEarlierStore(ThreadId tid, u64 tb_id,
                               const OrderOracle &order) const
{
    for (const i32 id : unexecuted_) {
        const LsqStore &st = stores[static_cast<size_t>(id)];
        if (st.tid == tid ? st.tb_id < tb_id
                          : order.memBefore(st.tid, st.tb_id, tid,
                                            tb_id)) {
            return true;
        }
    }
    return false;
}

int
Lsq::loadCount(ThreadId tid) const
{
    return lq_count[static_cast<size_t>(tid)];
}

int
Lsq::storeCount(ThreadId tid) const
{
    return sq_count[static_cast<size_t>(tid)];
}

} // namespace dmt
