/**
 * @file
 * Two-level cache hierarchy matching the paper's machine: 16KB 2-way
 * L1I and L1D, shared 256KB 4-way L2; an L1 miss costs 4 cycles and an
 * L2 miss an additional 20 (Section 4).
 */

#ifndef DMT_MEMORY_HIERARCHY_HH
#define DMT_MEMORY_HIERARCHY_HH

#include "memory/cache.hh"

namespace dmt
{

/** Hierarchy geometry and penalties. */
struct HierarchyParams
{
    CacheParams l1i{"l1i", 16 * 1024, 2, 32};
    CacheParams l1d{"l1d", 16 * 1024, 2, 32};
    CacheParams l2{"l2", 256 * 1024, 4, 64};
    Cycle l1_miss_penalty = 4;
    Cycle l2_miss_penalty = 20;
    /** When true every access hits (used by idealized configs). */
    bool perfect_icache = false;
    bool perfect_dcache = false;
};

/** Shared-L2 two-level hierarchy, timing only. */
class MemHierarchy
{
  public:
    explicit MemHierarchy(const HierarchyParams &params);

    /**
     * Instruction-fetch lookup.
     * @return extra cycles beyond the pipelined L1 hit (0 on hit).
     */
    Cycle
    instAccess(Addr addr)
    {
        if (params_.perfect_icache)
            return 0;
        if (l1i_.access(addr, false))
            return 0;
        if (l2_.access(addr, false))
            return params_.l1_miss_penalty;
        return params_.l1_miss_penalty + params_.l2_miss_penalty;
    }

    /** Data lookup; @p write marks the line dirty. */
    Cycle
    dataAccess(Addr addr, bool write)
    {
        if (params_.perfect_dcache)
            return 0;
        if (l1d_.access(addr, write))
            return 0;
        if (l2_.access(addr, write))
            return params_.l1_miss_penalty;
        return params_.l1_miss_penalty + params_.l2_miss_penalty;
    }

    void reset();

    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    const HierarchyParams &params() const { return params_; }

  private:
    HierarchyParams params_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
};

} // namespace dmt

#endif // DMT_MEMORY_HIERARCHY_HH
