/**
 * @file
 * Two-level cache hierarchy matching the paper's machine: 16KB 2-way
 * L1I and L1D with 32B lines, shared 256KB 4-way L2 with 64B lines; an
 * L1 miss costs 4 cycles and an L2 miss an additional 20 (Section 4).
 * Only the L1I and L2 sizes vary (Figure 9's small-cache machine).
 */

#ifndef DMT_MEMORY_HIERARCHY_HH
#define DMT_MEMORY_HIERARCHY_HH

#include "memory/cache.hh"

namespace dmt
{

/** The cache sizes a machine may vary; powers of two (validate()). */
struct HierarchyParams
{
    u32 l1i_bytes = 16 * 1024;
    u32 l2_bytes = 256 * 1024;

    bool operator==(const HierarchyParams &) const = default;
};

/** Shared-L2 two-level hierarchy, timing only. */
class MemHierarchy
{
  public:
    /** Cycles an L1 miss adds when the L2 hits. */
    static constexpr Cycle kL1MissPenalty = 4;
    /** Cycles an L2 miss adds on top of the L1 miss penalty. */
    static constexpr Cycle kL2MissPenalty = 20;

    explicit MemHierarchy(const HierarchyParams &params);

    /**
     * Instruction-fetch lookup.
     * @return extra cycles beyond the pipelined L1 hit (0 on hit).
     */
    Cycle
    instAccess(Addr addr)
    {
        if (l1i_.access(addr, false))
            return 0;
        if (l2_.access(addr, false))
            return kL1MissPenalty;
        return kL1MissPenalty + kL2MissPenalty;
    }

    /** Data lookup; @p write marks the line dirty. */
    Cycle
    dataAccess(Addr addr, bool write)
    {
        if (l1d_.access(addr, write))
            return 0;
        if (l2_.access(addr, write))
            return kL1MissPenalty;
        return kL1MissPenalty + kL2MissPenalty;
    }

    void reset();

    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }

  private:
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
};

} // namespace dmt

#endif // DMT_MEMORY_HIERARCHY_HH
