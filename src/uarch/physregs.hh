/**
 * @file
 * Shared physical register file with free list.  Values and ready bits
 * only; wakeup lists are owned by the engine.  Double-free and
 * use-after-free are checked with allocation bits because register
 * lifetime bugs are the classic failure mode of this design.
 */

#ifndef DMT_UARCH_PHYSREGS_HH
#define DMT_UARCH_PHYSREGS_HH

#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace dmt
{

/** Physical register file + free list. */
class PhysRegFile
{
  public:
    explicit PhysRegFile(int count);

    /** Allocate a register (not-ready); kNoPhysReg when exhausted. */
    PhysReg
    alloc()
    {
        if (free_list.empty())
            return kNoPhysReg;
        const PhysReg p = free_list.back();
        free_list.pop_back();
        DMT_ASSERT(!alloc_[static_cast<size_t>(p)], "alloc of live reg %d",
                   p);
        alloc_[static_cast<size_t>(p)] = 1;
        ready_[static_cast<size_t>(p)] = 0;
        return p;
    }

    /** Return a register to the free list. */
    void
    free(PhysReg p)
    {
        const size_t i = check(p);
        DMT_ASSERT(alloc_[i], "double free of phys reg %d", p);
        alloc_[i] = 0;
        free_list.push_back(p);
    }

    bool ready(PhysReg p) const { return ready_[check(p)]; }
    u32 value(PhysReg p) const { return values[check(p)]; }
    bool allocated(PhysReg p) const { return alloc_[check(p)]; }

    /** Write a value and mark ready. */
    void
    write(PhysReg p, u32 v)
    {
        const size_t i = check(p);
        DMT_ASSERT(alloc_[i], "write to free phys reg %d", p);
        values[i] = v;
        ready_[i] = 1;
    }

    int numFree() const { return static_cast<int>(free_list.size()); }
    int count() const { return static_cast<int>(values.size()); }

    /** Registers whose allocation bit is set.  Equal to
     *  count() - numFree() unless the free list and the allocation
     *  bits have diverged (the leak auditor checks exactly that). */
    int numAllocated() const;

  private:
    size_t
    check(PhysReg p) const
    {
        DMT_ASSERT(p >= 0 && p < count(), "phys reg %d out of range", p);
        return static_cast<size_t>(p);
    }

    std::vector<u32> values;
    std::vector<u8> ready_;
    std::vector<u8> alloc_;
    std::vector<PhysReg> free_list;
};

} // namespace dmt

#endif // DMT_UARCH_PHYSREGS_HH
