/**
 * @file
 * Execution-unit pool for the realistic configuration (Figure 6): four
 * ALUs of which memory-op address calculations consume up to two, one
 * unpipelined multiply/divide unit, and two DCache ports.  The
 * "unlimited" mode used by Figures 4/5 grants every request.
 */

#ifndef DMT_UARCH_FU_HH
#define DMT_UARCH_FU_HH

#include "isa/opcodes.hh"
#include "uarch/config.hh"

namespace dmt
{

/** Per-cycle FU availability tracker. */
class FuPool
{
  public:
    FuPool(bool unlimited, const FuParams &params, int lat_div);

    /** Begin a new cycle: replenish per-cycle slots. */
    void
    newCycle(Cycle now)
    {
        alu_left = params.alu;
        mem_left = params.mem_ports;
        muldiv_left = params.muldiv;
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
            div_busy_until = now + static_cast<Cycle>(lat_div);
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
    FuParams params;
    int lat_div;

    int alu_left = 0;
    int mem_left = 0;
    int muldiv_left = 0;
    /** Divider is unpipelined: busy until this cycle. */
    Cycle div_busy_until = 0;
};

} // namespace dmt

#endif // DMT_UARCH_FU_HH
