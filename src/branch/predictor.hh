/**
 * @file
 * Branch prediction facade combining the shared gshare table and BTB
 * with per-thread history registers and return address stacks, matching
 * the paper's arrangement: tables shared, sequencing state per thread.
 */

#ifndef DMT_BRANCH_PREDICTOR_HH
#define DMT_BRANCH_PREDICTOR_HH

#include "branch/btb.hh"
#include "branch/gshare.hh"
#include "branch/ras.hh"
#include "isa/inst.hh"

namespace dmt
{

/** Per-thread speculative sequencing state. */
struct ThreadBranchState
{
    u32 history = 0;
    Ras ras;

    void
    clearForSpawn(const ThreadBranchState &parent)
    {
        history = 0;       // paper: history cleared on spawn
        ras = parent.ras;  // paper: RAS copied from the spawning thread
    }
};

/** Outcome of a fetch-time prediction. */
struct BranchPrediction
{
    bool taken = false;
    Addr target = 0;
    /** History register value used for the table lookup (for update). */
    u32 history_used = 0;
    /** True when the target came from the RAS. */
    bool used_ras = false;
    /** True when an indirect target was unavailable (BTB miss). */
    bool target_unknown = false;
};

/**
 * Shared predictor unit.  predict() also performs the speculative
 * per-thread updates (history shift, RAS push/pop); callers checkpoint
 * ThreadBranchState before calling and restore it on squash.
 */
class BranchPredictorUnit
{
  public:
    /** Table sizes: the paper's "gshare with very large tables". */
    static constexpr int kGshareTableBits = 16;
    static constexpr int kGshareHistoryBits = 12;
    static constexpr int kBtbIndexBits = 14;

    BranchPredictorUnit();

    /**
     * Predict the control transfer of @p inst at @p pc for a thread
     * with sequencing state @p ts.  Non-control instructions return
     * not-taken/fall-through and leave @p ts untouched.
     */
    BranchPrediction predict(const Instruction &inst, Addr pc,
                             ThreadBranchState &ts);

    /** Train tables after a conditional branch resolves. */
    void updateCond(Addr pc, u32 history_used, bool taken);

    /** Train the BTB after an indirect jump resolves. */
    void updateIndirect(Addr pc, Addr target);

    void reset();

    const Gshare &gshare() const { return gshare_; }

  private:
    Gshare gshare_;
    Btb btb_;
};

} // namespace dmt

#endif // DMT_BRANCH_PREDICTOR_HH
