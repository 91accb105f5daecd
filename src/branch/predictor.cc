#include "branch/predictor.hh"

namespace dmt
{

BranchPredictorUnit::BranchPredictorUnit()
    : gshare_(kGshareTableBits, kGshareHistoryBits), btb_(kBtbIndexBits)
{
}

BranchPrediction
BranchPredictorUnit::predict(const Instruction &inst, Addr pc,
                             ThreadBranchState &ts)
{
    BranchPrediction p;
    p.target = pc + 4;

    if (inst.isCondBranch()) {
        p.history_used = ts.history;
        p.taken = gshare_.predict(pc, ts.history);
        if (p.taken)
            p.target = inst.branchTarget(pc);
        ts.history = gshare_.pushHistory(ts.history, p.taken);
        return p;
    }

    if (!inst.isJump())
        return p;

    p.taken = true;
    if (inst.isCall())
        ts.ras.push(pc + 4);

    if (!inst.isIndirect()) {
        p.target = inst.jumpTarget();
        return p;
    }

    if (inst.isReturn()) {
        const Addr ret = ts.ras.pop();
        if (ret != 0) {
            p.target = ret;
            p.used_ras = true;
        } else {
            p.target_unknown = !btb_.lookup(pc, &p.target);
            if (p.target_unknown)
                p.target = pc + 4;
        }
        return p;
    }

    // Non-return indirect: BTB.
    p.target_unknown = !btb_.lookup(pc, &p.target);
    if (p.target_unknown)
        p.target = pc + 4;
    return p;
}

void
BranchPredictorUnit::updateCond(Addr pc, u32 history_used, bool taken)
{
    gshare_.update(pc, history_used, taken);
}

void
BranchPredictorUnit::updateIndirect(Addr pc, Addr target)
{
    btb_.update(pc, target);
}

void
BranchPredictorUnit::reset()
{
    gshare_.reset();
    btb_.reset();
}

} // namespace dmt
