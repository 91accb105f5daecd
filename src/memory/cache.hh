/**
 * @file
 * Timing-only set-associative cache model with true-LRU replacement.
 * Data values live in MainMemory; the cache tracks presence to charge
 * latency, exactly like the paper's performance simulator.
 */

#ifndef DMT_MEMORY_CACHE_HH
#define DMT_MEMORY_CACHE_HH

#include <string>
#include <vector>

#include "common/bitutils.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace dmt
{

/** Geometry of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    u32 size_bytes = 16 * 1024;
    u32 assoc = 2;
    u32 line_bytes = 32;
};

/** One level of timing-only cache. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Look up @p addr; allocates the line on miss.
     * @retval true on hit.
     */
    bool
    access(Addr addr, bool write)
    {
        const u32 set = setIndex(addr);
        const u32 tag = tagOf(addr);
        Line *ways = &lines[static_cast<size_t>(set) * params_.assoc];
        ++access_seq;

        Line *victim = &ways[0];
        for (u32 w = 0; w < params_.assoc; ++w) {
            Line &line = ways[w];
            if (line.valid && line.tag == tag) {
                line.lru = access_seq;
                line.dirty = line.dirty || write;
                ++hits_;
                return true;
            }
            if (!line.valid) {
                victim = &line;
            } else if (victim->valid && line.lru < victim->lru) {
                victim = &line;
            }
        }

        ++misses_;
        victim->valid = true;
        victim->dirty = write;
        victim->tag = tag;
        victim->lru = access_seq;
        return false;
    }

    /** Probe without modifying state (for tests). */
    bool probe(Addr addr) const;

    /** Invalidate everything. */
    void reset();

    u64 hits() const { return hits_.value(); }
    u64 misses() const { return misses_.value(); }
    const CacheParams &params() const { return params_; }

    /** Number of sets (for tests). */
    u32 numSets() const { return num_sets; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        u32 tag = 0;
        u64 lru = 0;
    };

    u32
    setIndex(Addr addr) const
    {
        return bits(addr >> offset_bits, index_bits - 1, 0)
            & (num_sets - 1);
    }

    u32 tagOf(Addr addr) const { return addr >> (offset_bits + index_bits); }

    CacheParams params_;
    u32 num_sets;
    int offset_bits;
    int index_bits;
    std::vector<Line> lines; // num_sets x assoc
    u64 access_seq = 0;
    Counter hits_;
    Counter misses_;
};

} // namespace dmt

#endif // DMT_MEMORY_CACHE_HH
