/**
 * @file
 * Per-thread trace buffer: the level-2 instruction window (paper
 * Section 3.2).  Holds every speculative instruction of the thread —
 * with its thread-local source mappings, latest physical destination,
 * and executed result — from rename until final retirement.  Supports:
 *
 *  - append at fetch/rename (with thread-local "last writer" renaming,
 *    i.e. the trace buffer rename unit),
 *  - tail truncation on intra-thread branch misprediction,
 *  - sequential block reads for the recovery walk,
 *  - in-order pop at final retirement.
 *
 * Entries are addressed by monotonically increasing absolute ids so
 * references stay valid as the front of the buffer retires.
 */

#ifndef DMT_DMT_TRACE_BUFFER_HH
#define DMT_DMT_TRACE_BUFFER_HH

#include <array>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "isa/inst.hh"

namespace dmt
{

/** Where a trace-buffer entry's register source comes from. */
struct SrcRef
{
    enum Kind : u8
    {
        None,        ///< operand not a register (or unused)
        ThreadInput, ///< the thread's value-predicted input register
        TbEntry,     ///< a prior entry of the same thread
    };

    Kind kind = None;
    LogReg reg = 0;
    u64 tb_id = 0; ///< producer entry (kind == TbEntry)

    bool operator==(const SrcRef &) const = default;
};

/** One trace-buffer entry. */
struct TBEntry
{
    u64 id = 0;
    Instruction inst;
    Addr pc = 0;

    /** Incarnation counter; bumped by every recovery re-dispatch. */
    u32 uid = 0;

    SrcRef src[2];
    bool has_dest = false;
    LogReg dest = 0;

    /** Latest physical destination (tag array entry). */
    PhysReg cur_phys = kNoPhysReg;
    /** Executed result (data array entry). */
    u32 result = 0;
    bool result_valid = false;
    /** True when the authoritative incarnation has executed. */
    bool completed = false;

    // Memory state.
    i32 lq_id = -1;
    i32 sq_id = -1;

    // Control-flow state.
    bool predicted_taken = false;
    Addr predicted_target = 0;
    u32 history_used = 0;
    /** The path this trace actually follows after the entry. */
    Addr trace_next_pc = 0;
    /** Set once the original in-pipeline incarnation resolved. */
    bool resolved_once = false;
    /** Recovery re-execution went a different way (paper Section 3.3):
     *  handled at final retirement by flushing and refetching. */
    bool divergence = false;
    Addr divergence_target = 0;

    /** Thread spawned off this instruction (for squash propagation). */
    ThreadId child_tid = kNoThread;
    u32 child_gen = 0;

    // Lookahead episode handles (Figures 8/9); 0 = none.
    u64 branch_episode = 0;
    u64 imiss_episode = 0;

    // Statistics hooks.
    Cycle fetch_cycle = 0;
    Cycle first_exec_cycle = 0;
    bool executed_ever = false;
    u16 dispatch_count = 0;

    bool operator==(const TBEntry &) const = default;
};

/** The per-thread trace buffer. */
class TraceBuffer
{
  public:
    void
    reset(int capacity_)
    {
        head_ = 0;
        count_ = 0;
        base = 0;
        capacity = capacity_;
        // Grow-only backing store: re-spawning a context with the same
        // tb_size (the common case) reuses the existing slots.
        if (static_cast<size_t>(capacity_) > store_.size())
            store_.resize(static_cast<size_t>(capacity_));
        has_writer.fill(0);
        last_writer_.fill(0);
        total_appended = 0;
    }

    bool full() const { return size() >= capacity; }
    bool empty() const { return count_ == 0; }
    int size() const { return static_cast<int>(count_); }
    u64 firstId() const { return base; }
    u64 endId() const { return base + count_; }
    bool
    contains(u64 id) const
    {
        return id >= base && id < endId();
    }

    TBEntry &
    at(u64 id)
    {
        DMT_ASSERT(contains(id), "trace buffer id out of range");
        return store_[slotOf(id)];
    }

    const TBEntry &
    at(u64 id) const
    {
        DMT_ASSERT(contains(id), "trace buffer id out of range");
        return store_[slotOf(id)];
    }

    /**
     * Append a renamed instruction.  The ring slot is value-initialized
     * in place and gets the id, the instruction, its PC, the source
     * refs and the destination; the caller fills the rest through the
     * returned reference.
     */
    TBEntry &append(const Instruction &inst, Addr pc);

    /** Pop the oldest entry (final retirement). */
    void
    popFront()
    {
        DMT_ASSERT(count_ > 0, "pop from empty trace buffer");
        // The last-writer table intentionally keeps references to
        // retired ids; is_live_out checks compare ids, not storage.
        ++head_;
        if (head_ >= store_.size())
            head_ = 0;
        --count_;
        ++base;
    }

    /**
     * Discard entries with id >= @p from_id (intra-thread branch
     * squash).  The last-writer table must be restored from the
     * branch's checkpoint by the caller.
     */
    void
    truncateFrom(u64 from_id)
    {
        DMT_ASSERT(from_id >= base, "truncation below retired entries");
        if (from_id < endId())
            count_ = static_cast<size_t>(from_id - base);
    }

    /** Is @p id the thread's current last writer of its destination? */
    bool
    isLiveOut(u64 id) const
    {
        const TBEntry &e = at(id);
        return e.has_dest && has_writer[e.dest]
            && last_writer_[e.dest] == id;
    }

    /** Last writer of logical @p r, if any. */
    bool
    lastWriter(LogReg r, u64 *id) const
    {
        if (!has_writer[r])
            return false;
        *id = last_writer_[r];
        return true;
    }

    /** Snapshot of the last-writer table (branch checkpoints). */
    struct WriterSnapshot
    {
        std::array<u64, kNumLogRegs> last_writer;
        std::array<u8, kNumLogRegs> has_writer;
    };

    WriterSnapshot
    writerSnapshot() const
    {
        return {last_writer_, has_writer};
    }

    void
    restoreWriters(const WriterSnapshot &s)
    {
        last_writer_ = s.last_writer;
        has_writer = s.has_writer;
    }

    /** Instructions ever appended (thread-misprediction detector). */
    u64 totalAppended() const { return total_appended; }

  private:
    /**
     * Slot of @p id in the circular store.  Valid for live ids and for
     * the one-past-the-end append position: id - base <= count_ <=
     * store_.size() and head_ < store_.size(), so one compare-subtract
     * wraps.  (The store is sized exactly to capacity, not rounded to
     * a power of two — trace buffers are sized by config, and masking
     * would waste up to 2x memory per thread.)
     */
    size_t
    slotOf(u64 id) const
    {
        size_t s = head_ + static_cast<size_t>(id - base);
        if (s >= store_.size())
            s -= store_.size();
        return s;
    }

    /** Fixed-capacity circular store; slots are reused, never freed. */
    std::vector<TBEntry> store_;
    size_t head_ = 0;
    size_t count_ = 0;
    u64 base = 0;
    int capacity = 0;
    u64 total_appended = 0;

    std::array<u64, kNumLogRegs> last_writer_{};
    std::array<u8, kNumLogRegs> has_writer{};
};

} // namespace dmt

#endif // DMT_DMT_TRACE_BUFFER_HH
