/**
 * @file
 * Fully-associative load and store queues with cross-thread memory
 * disambiguation (paper Section 3.5).
 *
 * Entries are allocated at dispatch and keep their unique ids across
 * recovery re-issues — a re-issued load/store simply overwrites its
 * address, which is precisely the property the paper cites for
 * preferring fully-associative queues over set-associative ARBs.
 *
 * Semantics:
 *  - loads issue speculatively; the latest program-order-earlier
 *    executed store with an overlapping address forwards its data
 *    (fully contained), or stalls the load until that store drains to
 *    memory (partial overlap);
 *  - when a store executes (or re-executes with a new address), any
 *    program-order-later load that already issued and either overlaps
 *    the new address or had forwarded from this store under a stale
 *    address/data is reported as a violation → recovery request;
 *  - stores drain to memory in program order after final retirement.
 *
 * The queue does not know thread program order itself; the engine
 * supplies an OrderOracle.
 */

#ifndef DMT_DMT_LSQ_HH
#define DMT_DMT_LSQ_HH

#include <vector>

#include "common/list_pool.hh"
#include "common/types.hh"
#include "dmt/dyninst.hh"
#include "dmt/word_index.hh"

namespace dmt
{

/** Program-order comparison service provided by the engine. */
class OrderOracle
{
  public:
    virtual ~OrderOracle() = default;

    /** Strictly-before comparison of two dynamic memory operations. */
    virtual bool memBefore(ThreadId tid_a, u64 tb_a, ThreadId tid_b,
                           u64 tb_b) const = 0;
};

/** Load queue entry. */
struct LsqLoad
{
    bool valid = false;
    ThreadId tid = kNoThread;
    u32 tgen = 0;
    u64 tb_id = 0;

    bool issued = false;
    Addr addr = 0;
    u8 bytes = 0;
    /** Store slot forwarded from; -1 when the value came from memory. */
    i32 fwd_store = -1;
    /** Raw (zero-extended) bytes observed, for violation filtering. */
    u32 raw_value = 0;
};

/** Store queue entry. */
struct LsqStore
{
    bool valid = false;
    ThreadId tid = kNoThread;
    u32 tgen = 0;
    u64 tb_id = 0;

    bool executed = false;
    Addr addr = 0;
    u8 bytes = 0;
    u32 data = 0;
    /** Finally retired, waiting for a DCache port to drain. */
    bool retired = false;
    /** Global retirement order (valid when retired); retired stores
     *  precede everything still speculative. */
    u64 retire_seq = 0;

    /** Loads stalled until this store drains (partial overlap). */
    ListPool<DynRef>::List stall_waiters;
    /** Loads that forwarded from this store (may contain stale ids). */
    ListPool<i32>::List forwardees;
};

/** The combined load/store queue unit. */
class Lsq
{
  public:
    Lsq(int lq_per_thread, int sq_per_thread, int max_threads);

    // ---- allocation ----------------------------------------------------

    /** Allocate a load entry; -1 when the thread's quota is full. */
    i32 allocLoad(ThreadId tid, u32 tgen, u64 tb_id);
    /** Allocate a store entry; -1 when the thread's quota is full. */
    i32 allocStore(ThreadId tid, u32 tgen, u64 tb_id);

    /**
     * Free a load entry.
     */
    void freeLoad(i32 id);

    /**
     * Free a store entry.  When @p squashed, the (still valid, issued)
     * loads that forwarded from it consumed phantom data and are
     * returned for recovery; stall waiters are returned either way so
     * the engine can retry them.
     *
     * Returns a reference to internal scratch storage: consume it
     * before the next freeStore() call.
     */
    struct FreeStoreResult
    {
        std::vector<i32> orphaned_loads;
        std::vector<DynRef> stall_waiters;
    };
    const FreeStoreResult &freeStore(i32 id, bool squashed);

    bool lqFull(ThreadId tid) const;
    bool sqFull(ThreadId tid) const;

    LsqLoad &load(i32 id);
    LsqStore &store(i32 id);

    // ---- issue ----------------------------------------------------------

    /** Outcome of a (re-)issued load. */
    struct LoadIssueResult
    {
        enum Kind { Memory, Forward, Stall } kind = Memory;
        i32 store_id = -1;
        bool cross_thread = false;
    };

    /**
     * (Re-)issue a load: record its address and find its data source.
     * The caller extracts forwarded bytes with extractStoreBytes() and
     * then records the observed value via setLoadValue().
     */
    LoadIssueResult loadIssue(i32 lq_id, Addr addr, u8 bytes,
                              const OrderOracle &order);

    /** Record the raw bytes the load observed. */
    void setLoadValue(i32 lq_id, u32 raw_value);

    /**
     * (Re-)execute a store: record address/data and return the ids of
     * later loads that are now known to have read stale data (sorted,
     * deduplicated).  Returns a reference to internal scratch storage:
     * consume it before the next storeExecute() call.
     */
    const std::vector<i32> &storeExecute(i32 sq_id, Addr addr, u8 bytes,
                                         u32 data,
                                         const OrderOracle &order);

    /**
     * Mark the store finally retired (awaiting drain).  @p retire_seq
     * is its global retirement order — once the owning thread is gone,
     * ordering against retired stores uses this stamp.
     */
    void storeRetired(i32 sq_id, u64 retire_seq);

    /** Program-order compare of two stores, retirement-aware. */
    bool storeBefore(const LsqStore &a, const LsqStore &b,
                     const OrderOracle &order) const;

    /** Is the store before the (live) load, retirement-aware? */
    static bool storeBeforeLoad(const LsqStore &st, const LsqLoad &ld,
                                const OrderOracle &order);

    /** Register a load to wake when @p sq_id drains. */
    void addStallWaiter(i32 sq_id, DynRef dyn);

    /**
     * Any store earlier than (tid, tb_id) with an unresolved address?
     * Walks only the stores that have not executed yet.
     */
    bool hasUnexecutedEarlierStore(ThreadId tid, u64 tb_id,
                                   const OrderOracle &order) const;

    /** Raw load bytes taken from a containing store. */
    static u32 extractStoreBytes(const LsqStore &st, Addr load_addr,
                                 u8 load_bytes);

    /** Bytes [addr, addr+bytes) of the two accesses overlap? */
    static bool overlaps(Addr a1, u8 b1, Addr a2, u8 b2);

    /** Store [a2,b2) fully contains load [a1,b1)? */
    static bool contains(Addr load_addr, u8 load_bytes, Addr store_addr,
                         u8 store_bytes);

    int loadCount(ThreadId tid) const;
    int storeCount(ThreadId tid) const;

  private:
    friend class InvariantAuditor; // white-box structural audit

    static Addr wordOf(Addr a) { return a & ~3u; }

    /** Remove a store from the unexecuted list, O(1). */
    void unlistUnexecuted(i32 sq_id);

    int lq_per_thread;
    int sq_per_thread;

    std::vector<LsqLoad> loads;
    std::vector<LsqStore> stores;
    /** Node pools behind every store slot's two lists. */
    ListPool<DynRef> stall_pool;
    ListPool<i32> fwd_pool;
    std::vector<i32> free_loads;
    std::vector<i32> free_stores;
    std::vector<int> lq_count; // per thread
    std::vector<int> sq_count;

    WordIndex loads_by_word;
    WordIndex stores_by_word;

    /** Valid stores that have not executed, in no particular order
     *  (hasUnexecutedEarlierStore's answer is an any-of). */
    std::vector<i32> unexecuted_;
    /** Position of each store slot in unexecuted_, -1 when absent. */
    std::vector<i32> unexecuted_pos_;

    // Reused result storage so the hot path returns without
    // allocating (see storeExecute / freeStore).
    std::vector<i32> violations_scratch_;
    FreeStoreResult free_store_result_;
};

} // namespace dmt

#endif // DMT_DMT_LSQ_HH
