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
    void newCycle(Cycle now);

    /**
     * Try to claim the resources for issuing @p cls this cycle.
     * @retval true when granted (resources consumed).
     */
    bool tryIssue(OpClass cls, Cycle now);

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
