/**
 * @file
 * Execution-unit pool for the realistic configuration (Figure 6): four
 * ALUs of which memory-op address calculations consume up to two, one
 * unpipelined multiply/divide unit, and two DCache ports.  The
 * "unlimited" mode used by Figures 4/5 grants every request.  The
 * paper fixes these counts and the execution latencies (Section 4), so
 * they are constants, not settings.
 */

#ifndef DMT_UARCH_FU_HH
#define DMT_UARCH_FU_HH

#include "common/types.hh"
#include "isa/opcodes.hh"

namespace dmt
{

/** Per-cycle FU availability tracker. */
class FuPool
{
  public:
    /** Total ALUs; address calculations of issued memory ops use them. */
    static constexpr int kAlus = 4;
    /** Multiply/divide units (divide is unpipelined). */
    static constexpr int kMulDivUnits = 1;
    /** Loads+stores issued to the DCache per cycle. */
    static constexpr int kMemPorts = 2;

    /** Execution latencies in cycles; they hold with unlimited units
     *  too. */
    static constexpr Cycle kAluLatency = 1;
    static constexpr Cycle kMulLatency = 3;
    static constexpr Cycle kDivLatency = 20;

    explicit FuPool(bool unlimited_) : unlimited(unlimited_) {}

    /** Begin a new cycle: replenish per-cycle slots. */
    void
    newCycle(Cycle now)
    {
        alu_left = kAlus;
        mem_left = kMemPorts;
        muldiv_left = kMulDivUnits;
    }

    /**
     * Try to claim the resources for issuing @p cls this cycle.
     * @retval true when granted (resources consumed).
     */
    bool
    tryIssue(OpClass cls, Cycle now)
    {
        if (unlimited)
            return true;

        switch (cls) {
          case OpClass::IntAlu:
            if (alu_left <= 0)
                return false;
            --alu_left;
            return true;
          case OpClass::IntMul:
            if (muldiv_left <= 0 || now < div_busy_until)
                return false;
            --muldiv_left;
            return true;
          case OpClass::IntDiv:
            if (muldiv_left <= 0 || now < div_busy_until)
                return false;
            --muldiv_left;
            div_busy_until = now + kDivLatency;
            return true;
          case OpClass::MemRead:
          case OpClass::MemWrite:
            // A memory op needs a DCache port and an address-generation
            // ALU.
            if (mem_left <= 0 || alu_left <= 0)
                return false;
            --mem_left;
            --alu_left;
            return true;
          case OpClass::Control:
          case OpClass::Other:
            // Branches and misc ops use an ALU slot.
            if (alu_left <= 0)
                return false;
            --alu_left;
            return true;
        }
        return true;
    }

  private:
    bool unlimited;

    int alu_left = 0;
    int mem_left = 0;
    int muldiv_left = 0;
    /** Divider is unpipelined: busy until this cycle. */
    Cycle div_busy_until = 0;
};

} // namespace dmt

#endif // DMT_UARCH_FU_HH
