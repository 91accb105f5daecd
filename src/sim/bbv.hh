/**
 * @file
 * Basic-block-vector collection during functional fast-forward.
 *
 * Phase analysis (exp/phase.hh) needs, for every fixed-length interval
 * of the dynamic instruction stream, a sparse vector of "how many
 * instructions executed in each basic block".  The fast-forward engine
 * feeds the collector under one exact contract, stated in terms of the
 * architectural instruction stream so that a functionalStep() loop
 * reporting the same transfers (the reference in tests/test_phase.cc)
 * produces bit-identical vectors:
 *
 *   - A *region* is a maximal run of dynamically executed instructions
 *     between taken control transfers (J, JAL, JR, JALR, and taken
 *     conditional branches — including direct jumps the translated
 *     engine inlined into a superblock).  Not-taken branches and the
 *     translated engine's synthetic block-cap fall-throughs do not end
 *     a region.
 *   - Every executed instruction is attributed to the region it runs
 *     in, keyed by the region's start PC (the target of the most
 *     recent taken transfer; program entry starts the first region).
 *     The transfer instruction itself belongs to the region it ends.
 *   - The stream is sliced into fixed-length intervals by absolute
 *     instruction position; a region straddling a boundary is split by
 *     position.
 *
 * The result is a pure function of the architectural instruction
 * stream: independent of how run() calls are chunked, of
 * checkpoint-cache state and of DMT_JOBS.  A producer reports only at
 * region boundaries (one call per taken transfer, carrying the
 * instruction count since the previous boundary), so the translated
 * engine keeps its per-instruction dispatch loop untouched; with no
 * collector attached it pays a single predictable branch per transfer.
 */

#ifndef DMT_SIM_BBV_HH
#define DMT_SIM_BBV_HH

#include <algorithm>
#include <utility>
#include <vector>

#include "casm/program.hh"

namespace dmt
{

/** One interval's sparse basic-block vector: (block index, executed
 *  instructions) pairs sorted by block index, plus the interval's
 *  instruction total (== interval length except for the final partial
 *  interval of a run). */
struct IntervalBbv
{
    std::vector<std::pair<u32, u64>> counts;
    u64 instrs = 0;

    bool operator==(const IntervalBbv &o) const
    {
        return instrs == o.instrs && counts == o.counts;
    }
};

/** Accumulates region-granular execution counts into per-interval
 *  sparse vectors.  See the file comment for the exact contract. */
class BbvCollector
{
  public:
    /**
     * @param interval_len instructions per interval (must be > 0)
     * @param text_size    program text length in instructions; region
     *                     keys are text indices, with one extra bucket
     *                     for off-text transfer targets
     * @param entry_pc     start PC of the first region
     */
    BbvCollector(u64 interval_len, size_t text_size, Addr entry_pc)
        : interval_len_(interval_len), text_size_(text_size),
          counts_(text_size + 1, 0), next_boundary_(interval_len)
    {
        cur_key_ = keyFor(entry_pc);
    }

    /** Current absolute stream position (instructions accounted). */
    u64 position() const { return pos_; }

    /** The one PC→region-key mapping, shared with producers that
     *  precompute keys (transferKey / the hot path): the text index of the
     *  target, or the sentinel bucket (== text_size) for off-text or
     *  misaligned targets (the engine halts at the next fetch). */
    static u32 keyForPc(Addr pc, u32 text_size)
    {
        const Addr off = pc - Program::kTextBase;
        const u32 idx = static_cast<u32>(off >> 2);
        return (off % 4 == 0 && idx < text_size)
            ? idx
            : text_size;
    }

    /**
     * Hot path: @p n instructions executed since the previous event,
     * all in the current region, which ends now with a taken transfer
     * to @p target_pc (the transfer instruction is the last of the
     * @p n).
     */
    void transfer(Addr target_pc, u64 n)
    {
        transferKey(keyFor(target_pc), n);
    }

    /** transfer() with the region key already computed (must come
     *  from keyForPc with this collector's text size). */
    void transferKey(u32 key, u64 n)
    {
        account(n);
        cur_key_ = key;
    }

    /** End-of-run flush: @p n trailing instructions stay in the
     *  current region, which remains open (budget stop / HALT). */
    void flush(u64 n) { account(n); }

    /**
     * Hot-path state export for an engine that inlines transfer()'s
     * fast path straight into its dispatch loop, on raw locals with no
     * member aliasing.  The engine snapshots hotCounts() (stable — the
     * histogram never reallocates), hotRoom() (instructions left in
     * the open interval) and currentKey(), then per taken transfer to
     * key `k` with region delta `n` runs
     *
     *     if (k != cur_key) {
     *         if (n < room && counts[cur_key] != 0) {
     *             counts[cur_key] += n;   // region ends inside the
     *             room -= n;              // open interval, block
     *         } else {                    // already touched
     *             syncHot(room, cur_key); // write back, then the
     *             transferKey(k, n);      // exact slow path
     *             room = hotRoom();
     *         }
     *         cur_key = k;
     *     }
     *
     * and calls syncHot() before any other collector method.  The
     * same-key skip is exact: contiguous same-key regions add the same
     * histogram contributions merged or not, and a merged delta splits
     * at the identical interval boundary.  The guarded bump is
     * account()'s single-iteration body with the interval-close and
     * first-touch branches hoisted into its condition.
     */
    u64 *hotCounts() { return counts_.data(); }

    /** Instructions the open interval still accepts (always >= 1). */
    u64 hotRoom() const { return next_boundary_ - pos_; }

    /** Key of the open region (the last taken transfer's target). */
    u32 currentKey() const { return cur_key_; }

    /** Write back an engine's hot-path cursor (see hotCounts()). */
    void syncHot(u64 room, u32 cur_key)
    {
        pos_ = next_boundary_ - room;
        cur_key_ = cur_key;
    }

    /** Close the trailing partial interval (if it holds any
     *  instructions).  Call once, after the final flush(). */
    void finish()
    {
        if (pos_ > next_boundary_ - interval_len_)
            closeInterval();
    }

    const std::vector<IntervalBbv> &intervals() const
    {
        return intervals_;
    }

    std::vector<IntervalBbv> takeIntervals()
    {
        return std::move(intervals_);
    }

  private:
    u32 keyFor(Addr pc) const
    {
        return keyForPc(pc, static_cast<u32>(text_size_));
    }

    void bump(u32 key, u64 n)
    {
        if (counts_[key] == 0)
            touched_.push_back(key);
        counts_[key] += n;
    }

    void account(u64 n)
    {
        while (n > 0) {
            const u64 room = next_boundary_ - pos_;
            const u64 take = n < room ? n : room;
            bump(cur_key_, take);
            pos_ += take;
            n -= take;
            if (pos_ == next_boundary_) {
                closeInterval();
                next_boundary_ += interval_len_;
            }
        }
    }

    void closeInterval()
    {
        IntervalBbv iv;
        std::sort(touched_.begin(), touched_.end());
        iv.counts.reserve(touched_.size());
        for (const u32 key : touched_) {
            iv.counts.emplace_back(key, counts_[key]);
            iv.instrs += counts_[key];
            counts_[key] = 0;
        }
        touched_.clear();
        intervals_.push_back(std::move(iv));
    }

    u64 interval_len_;
    size_t text_size_;
    u32 cur_key_ = 0;
    u64 pos_ = 0;
    /** Dense per-block counters for the open interval (text segments
     *  are small) plus the first-touch list that makes closing an
     *  interval O(blocks touched), not O(text). */
    std::vector<u64> counts_;
    std::vector<u32> touched_;
    u64 next_boundary_;
    std::vector<IntervalBbv> intervals_;
};

} // namespace dmt

#endif // DMT_SIM_BBV_HH
