/**
 * @file
 * Gshare direction predictor (McFarling).  One table of 2-bit saturating
 * counters shared by all threads; each thread supplies its own branch
 * history register, exactly as in the paper's modified gshare (Section
 * 3.1.4): a freshly spawned thread starts with a cleared history, so its
 * first k branches are predicted with little correlation, after which
 * the scheme is true gshare.
 */

#ifndef DMT_BRANCH_GSHARE_HH
#define DMT_BRANCH_GSHARE_HH

#include <vector>

#include "common/types.hh"

namespace dmt
{

/** Shared-table gshare predictor. */
class Gshare
{
  public:
    /**
     * @param table_bits log2 of the counter-table size.
     * @param history_bits branch-history register width (<= table_bits).
     */
    Gshare(int table_bits, int history_bits);

    /** Predict direction with the caller's history register. */
    bool predict(Addr pc, u32 history) const;

    /** Train the table with the resolved direction. */
    void update(Addr pc, u32 history, bool taken);

    /** Shift @p taken into a history register value. */
    u32
    pushHistory(u32 history, bool taken) const
    {
        return ((history << 1) | (taken ? 1u : 0u)) & history_mask;
    }

    void reset();

  private:
    u32 index(Addr pc, u32 history) const;

    int table_bits;
    int history_bits;
    u32 table_mask;
    u32 history_mask;
    std::vector<u8> table; ///< 2-bit counters, initialized weakly taken
};

} // namespace dmt

#endif // DMT_BRANCH_GSHARE_HH
