/**
 * @file
 * Issue, execute, writeback, branch resolution, thread-input delivery,
 * and the selective-recovery walk (paper Sections 3.2.3, 3.3, 3.5).
 */

#include "dmt/engine.hh"

#include <algorithm>

#include "sim/functional.hh"

namespace dmt
{

namespace
{

u32
signExtendLoad(const Instruction &inst, u32 raw)
{
    if (!inst.memSigned())
        return raw;
    const int bits = inst.memBytes() * 8;
    const u32 shift = static_cast<u32>(32 - bits);
    return static_cast<u32>(static_cast<i32>(raw << shift) >> shift);
}

} // namespace

void
DmtEngine::makeReady(DynInst *d)
{
    if (d->state == DynState::Ready)
        return;
    d->state = DynState::Ready;
    ready_q.push(d->seq, d->self);
}

void
DmtEngine::wakeOperand(DynInst *d, int op, u32 value)
{
    if (d->squashed || d->src_ready[op])
        return;
    d->src_val[op] = value;
    d->src_ready[op] = true;
    --d->n_src_pending;
    if (d->n_src_pending == 0 && d->state == DynState::Waiting)
        makeReady(d);
}

void
DmtEngine::deliverInput(ThreadContext &t, LogReg r, u32 value,
                        bool from_dataflow)
{
    IoInput &in = t.io.in[r];
    if (in.finalized)
        return;

    const bool had_value = in.valid;
    const bool changed = !had_value || in.value != value;
    in.valid = true;
    in.value = value;
    in.watch = kNoPhysReg;

    // Wake consumers that were blocked on this input.
    auto &waiters = io_waiters[static_cast<size_t>(t.id)][r];
    if (!waiters.empty()) {
        waiter_pool.forEach(waiters, [&](const OperandWaiter &w) {
            DynInst *d = pool.get(w.dyn);
            if (d)
                wakeOperand(d, w.op, value);
        });
        waiter_pool.clear(waiters);
        if (in.used)
            in.used_value = value;
        return; // consumers never executed with a wrong value
    }

    if (!in.used) {
        in.used_value = value;
        return;
    }

    if (had_value && changed) {
        // Consumers executed with a stale value: correct and recover,
        // starting the walk at the input's first use.
        in.used_value = value;
        if (from_dataflow) {
            in.corrected = true;
            ++stats_.df_corrections;
        } else {
            in.found_wrong = true;
        }
        RecoveryRequest &req = recov_req_scratch_;
        req.clear();
        req.start_tb_id = std::max(in.first_use_id, t.tb.firstId());
        req.reg_mask = 1u << r;
        requestRecovery(t, req);
    } else {
        in.used_value = value;
    }
}

void
DmtEngine::deliverPhys(PhysReg p, u32 value)
{
    prf.write(p, value);
    PhysSubs &subs = psubs[static_cast<size_t>(p)];
    waiter_pool.forEach(subs.waiters, [&](const OperandWaiter &w) {
        DynInst *d = pool.get(w.dyn);
        if (d)
            wakeOperand(d, w.op, value);
    });
    waiter_pool.clear(subs.waiters);
    io_sub_pool.forEach(subs.io_subs, [&](const IoSub &s) {
        ThreadContext *tc = get(s.tid, s.tgen);
        if (!tc)
            return;
        IoInput &in = tc->io.in[s.reg];
        if (in.watch != p || in.valid)
            return; // stale subscription
        deliverInput(*tc, s.reg, value, false);
    });
    io_sub_pool.clear(subs.io_subs);
}

void
DmtEngine::requestRecovery(ThreadContext &t, const RecoveryRequest &req)
{
    RecoveryFsm &f = t.recov;
    // New work wholly ahead of an active walk merges into it instead of
    // forcing a second pass over the trace.  (Setting the register
    // flags immediately is conservative for entries between the walk
    // position and the request start: they may be re-dispatched
    // unnecessarily, never missed.)
    if (f.state == RecoveryFsm::State::Walk
        && req.start_tb_id >= f.walk_pos) {
        f.dep_flags |= req.reg_mask;
        for (u64 id : req.load_roots) {
            if (id < f.walk_pos)
                continue;
            auto it = std::lower_bound(f.cur.load_roots.begin(),
                                       f.cur.load_roots.end(), id);
            // id >= walk_pos, so the insertion point is always at or
            // beyond next_root; no index fixup needed.
            if (it == f.cur.load_roots.end() || *it != id)
                f.cur.load_roots.insert(it, id);
        }
        return;
    }
    f.enqueue(req);
}

void
DmtEngine::handleLsqViolations(const std::vector<i32> &lq_ids)
{
    for (i32 id : lq_ids) {
        LsqLoad &ld = lsq.load(id);
        ThreadContext *tc = get(ld.tid, ld.tgen);
        if (!tc || !tc->tb.contains(ld.tb_id))
            continue;
        ++stats_.lsq_violations;
        emitTrace(TraceStage::Lsq, TraceEventKind::LsqViolation,
                  tc->id, tc->tb.at(ld.tb_id).pc,
                  static_cast<u64>(ld.tb_id));
        memdepTrain(tc->tb.at(ld.tb_id).pc, true);
        RecoveryRequest &req = recov_req_scratch_;
        req.clear();
        req.start_tb_id = ld.tb_id;
        req.load_roots.push_back(ld.tb_id);
        requestRecovery(*tc, req);
    }
}

// ---------------------------------------------------------------------
// Issue & execute
// ---------------------------------------------------------------------

void
DmtEngine::scheduleCompletion(DynInst *d, Cycle latency)
{
    DMT_ASSERT(latency > 0 && latency < kCalendarSlots,
               "latency %llu out of calendar range",
               static_cast<unsigned long long>(latency));
    calendar_pool.push_back(calendar[(now_ + latency) % kCalendarSlots],
                            d->self);
}

void
DmtEngine::executeMem(DynInst *d, TBEntry &entry)
{
    const Instruction &inst = d->inst;
    const Addr addr = memEffectiveAddr(inst, d->src_val[0]);
    const u8 bytes = static_cast<u8>(inst.memBytes());
    d->mem_addr = addr;

    if (inst.isStore()) {
        if (entry.uid == d->uid) {
            // Scratch reference: consumed before the next storeExecute.
            const std::vector<i32> &violations =
                lsq.storeExecute(entry.sq_id, addr, bytes,
                                 d->src_val[1], *this);
            handleLsqViolations(violations);
        }
        ++stats_.stores_issued;
        scheduleCompletion(d, FuPool::kAluLatency);
        return;
    }

    // Load.
    if (entry.uid != d->uid) {
        // Superseded incarnation: complete quickly with a dummy value;
        // the writeback will not match the trace buffer tag anyway.
        d->result = 0;
        scheduleCompletion(d, SimConfig::kLoadLatency);
        return;
    }

    // Memory dependence throttle: a load with a history of ordering
    // violations waits until every earlier store has computed its
    // address, then issues with exact forwarding.
    if (cfg.memdep_sync && memdepConservative(entry.pc)
        && lsq.hasUnexecutedEarlierStore(d->tid, d->tb_id, *this)) {
        d->state = DynState::Issued; // re-poll via the calendar
        calendar_pool.push_back(calendar[(now_ + 2) % kCalendarSlots],
                                d->self);
        d->poll_retry = true;
        return;
    }

    const auto res = lsq.loadIssue(entry.lq_id, addr, bytes, *this);
    Cycle lat = SimConfig::kLoadLatency;
    u32 raw = 0;
    switch (res.kind) {
      case Lsq::LoadIssueResult::Forward:
        raw = Lsq::extractStoreBytes(lsq.store(res.store_id), addr,
                                     bytes);
        if (res.cross_thread) {
            lat += kCrossThreadForwardLatency;
            ++stats_.fwd_cross_thread;
        } else {
            ++stats_.fwd_same_thread;
        }
        break;
      case Lsq::LoadIssueResult::Memory:
        raw = mem.read(addr, bytes, false);
        lat += hier.dataAccess(addr, false);
        break;
      case Lsq::LoadIssueResult::Stall:
        // Partial overlap with an earlier store: wait until it drains
        // to memory, then retry the whole access.
        ++stats_.load_stalls_partial;
        lsq.addStallWaiter(res.store_id, d->self);
        d->state = DynState::Waiting;
        return;
    }

    lsq.setLoadValue(entry.lq_id, raw);
    d->result = signExtendLoad(inst, raw);
    ++stats_.loads_issued;
    scheduleCompletion(d, lat);
}

void
DmtEngine::executeDyn(DynInst *d)
{
    const Instruction &inst = d->inst;
    ThreadContext *t = get(d->tid, d->tgen);
    if (!t || !t->tb.contains(d->tb_id)) {
        // Superseded incarnation whose entry already finally retired:
        // complete quickly; the writeback tag match will discard it.
        d->result = 0;
        scheduleCompletion(d, 1);
        return;
    }
    TBEntry &entry = t->tb.at(d->tb_id);

    switch (inst.info().opClass) {
      case OpClass::IntAlu:
        d->result = aluCompute(inst, d->src_val[0], d->src_val[1]);
        scheduleCompletion(d, FuPool::kAluLatency);
        break;
      case OpClass::IntMul:
        d->result = aluCompute(inst, d->src_val[0], d->src_val[1]);
        scheduleCompletion(d, FuPool::kMulLatency);
        break;
      case OpClass::IntDiv:
        d->result = aluCompute(inst, d->src_val[0], d->src_val[1]);
        scheduleCompletion(d, FuPool::kDivLatency);
        break;
      case OpClass::MemRead:
      case OpClass::MemWrite:
        executeMem(d, entry);
        break;
      case OpClass::Control:
        if (inst.isCall())
            d->result = d->pc + 4; // link value
        scheduleCompletion(d, FuPool::kAluLatency);
        break;
      case OpClass::Other:
        if (inst.op == Opcode::OUT)
            d->result = d->src_val[0];
        scheduleCompletion(d, FuPool::kAluLatency);
        break;
    }
}

void
DmtEngine::issueDyn(DynInst *d)
{
    d->state = DynState::Issued;
    d->issue_cycle = now_;
    ++stats_.issued;
    emitTrace(TraceStage::Execute, TraceEventKind::InstIssue, d->tid,
              d->pc, d->tb_id);
    executeDyn(d);
}

void
DmtEngine::doIssue()
{
    if (ready_q.empty())
        return;

    // Oldest-first selection by draining the age-indexed heap: seq
    // keys are unique, so pop order matches the old rebuild-and-sort
    // exactly.  Stale refs and no-longer-Ready entries filter lazily
    // at pop, as the old scan did.  Nothing becomes Ready while the
    // stage runs (issueDyn never calls makeReady), so the drain sees
    // precisely the pre-stage population.
    std::vector<ReadyQueue::Item> &retry = issue_retry_scratch_;
    retry.clear();
    while (!ready_q.empty()) {
        const ReadyQueue::Item item = ready_q.top();
        ready_q.pop();
        DynInst *d = pool.get(item.ref);
        if (!d || d->squashed || d->state != DynState::Ready)
            continue;
        if (!fus.tryIssue(d->inst.info().opClass, now_)) {
            retry.push_back(item); // retry next cycle, same age
            continue;
        }
        issueDyn(d);
    }
    for (const ReadyQueue::Item &item : retry)
        ready_q.push(item.seq, item.ref);
}

// ---------------------------------------------------------------------
// Writeback
// ---------------------------------------------------------------------

void
DmtEngine::resolveControl(DynInst *d, TBEntry &entry)
{
    const Instruction &inst = d->inst;
    ThreadContext &t = *get(d->tid, d->tgen);

    bool taken = true;
    Addr actual;
    if (inst.isCondBranch()) {
        taken = branchTaken(inst, d->src_val[0], d->src_val[1]);
        actual = taken ? inst.branchTarget(d->pc) : d->pc + 4;
    } else if (inst.isIndirect()) {
        actual = d->src_val[0];
    } else {
        actual = inst.jumpTarget();
    }

    if (d->is_recovery) {
        const bool div = actual != entry.trace_next_pc;
        if (div && cfg.early_divergence_repair) {
            // Repair the trace now: discard everything younger in this
            // thread and refetch from the corrected direction.  Cheaper
            // than the paper's retirement-time flush; later threads are
            // untouched either way (control independence).
            ++stats_.late_divergences;
            emitTrace(TraceStage::Execute,
                      TraceEventKind::LateDivergence, t.id, d->pc,
                      actual);
            ++t.divergence_repairs;
            entry.trace_next_pc = actual;
            entry.divergence = false;
            const u64 eid = entry.id;
            inThreadSquash(t, eid + 1, actual, nullptr);
            t.bstate.history = 0; // no checkpoint survives this late
            return;
        }
        // Paper Section 3.3: handled at the branch's final retirement.
        entry.divergence = div;
        entry.divergence_target = actual;
        if (div) {
            ++stats_.late_divergences;
            emitTrace(TraceStage::Execute,
                      TraceEventKind::LateDivergence, t.id, d->pc,
                      actual);
        }
        return;
    }

    entry.resolved_once = true;
    if (inst.isCondBranch()) {
        ++stats_.cond_branches;
        bpu.updateCond(d->pc, entry.history_used, taken);
    } else if (inst.isIndirect()) {
        ++stats_.indirect_jumps;
        bpu.updateIndirect(d->pc, actual);
    }

    if (actual == entry.trace_next_pc) {
        t.checkpoints.erase(entry.id);
        return;
    }

    // Intra-thread misprediction: squash younger and redirect.
    if (inst.isCondBranch())
        ++stats_.cond_mispredicts;
    else if (inst.isIndirect())
        ++stats_.indirect_mispredicts;
    emitTrace(TraceStage::Execute, TraceEventKind::BranchMispredict,
              t.id, d->pc, actual);

    if (cfg.isDmt())
        entry.branch_episode = branch_eps.open(entry.fetch_cycle, now_);
    entry.trace_next_pc = actual;

    const BranchCheckpoint *found = t.checkpoints.find(entry.id);
    DMT_ASSERT(found, "mispredicted branch without checkpoint");
    const BranchCheckpoint cp = *found; // flat: stack copy, no alloc
    t.checkpoints.erase(entry.id);

    inThreadSquash(t, entry.id + 1, actual, &cp);

    // Reconstruct sequencing state just after the corrected transfer.
    t.bstate = cp.bstate;
    if (inst.isCondBranch()) {
        t.bstate.history =
            bpu.gshare().pushHistory(t.bstate.history, taken);
    } else if (inst.isReturn()) {
        t.bstate.ras.pop();
    } else if (inst.op == Opcode::JALR) {
        t.bstate.ras.push(d->pc + 4);
    }
}

void
DmtEngine::completeDyn(DynInst *d)
{
    d->state = DynState::Done;
    d->complete_cycle = now_;
    emitTrace(TraceStage::Execute, TraceEventKind::InstComplete, d->tid,
              d->pc, d->tb_id);

    // Fault injection: deliver a corrupted load value, modelled as an
    // over-aggressive value-speculated load.  The corruption is paired
    // with a load-root recovery request — exactly the shape of an LSQ
    // ordering violation — so the recovery walk re-issues the load and
    // re-executes its dependents before anything can finally retire
    // (lowWater() holds retirement below the walk).  Recovery
    // incarnations are exempt or the walk would never converge.
    if (injector_.enabled() && d->inst.isLoad() && !d->is_recovery) {
        ThreadContext *lt = get(d->tid, d->tgen);
        if (lt && lt->tb.contains(d->tb_id)
            && lt->tb.at(d->tb_id).uid == d->uid
            && injector_.shouldInject(FaultSite::LoadValue)) {
            d->result =
                injector_.corruptValue(FaultSite::LoadValue, d->result);
            RecoveryRequest &req = recov_req_scratch_;
            req.clear();
            req.start_tb_id = d->tb_id;
            req.load_roots.push_back(d->tb_id);
            requestRecovery(*lt, req);
        }
    }

    if (d->dest_phys != kNoPhysReg)
        deliverPhys(d->dest_phys, d->result);

    // Dataflow-predicted last-modifier deliveries.
    for (const auto &target : d->df_targets) {
        ThreadContext *tc = get(target.tid, target.tgen);
        if (tc) {
            ++stats_.df_deliveries;
            u32 value = d->result;
            // Fault injection: corrupt the dataflow-predicted delivery.
            // The target thread consumes the wrong input like any value
            // misprediction; the head-switch final check repairs it.
            if (injector_.shouldInject(FaultSite::DataflowValue)) {
                value =
                    injector_.corruptValue(FaultSite::DataflowValue,
                                           value);
            }
            deliverInput(*tc, target.reg, value, true);
        }
    }

    ThreadContext *t = get(d->tid, d->tgen);
    if (!t || !t->tb.contains(d->tb_id))
        return;
    TBEntry &entry = t->tb.at(d->tb_id);
    if (entry.uid != d->uid)
        return; // superseded incarnation: trace-buffer tag mismatch

    entry.result = d->result;
    entry.result_valid = true;
    entry.completed = true;
    entry.executed_ever = true;
    if (entry.first_exec_cycle == 0)
        entry.first_exec_cycle = d->issue_cycle;
    ++t->exec_total;
    if (!isHead(*t))
        ++t->exec_while_spec;

    if (d->inst.isControl())
        resolveControl(d, entry);
}

void
DmtEngine::doWriteback()
{
    auto &slot = calendar[now_ % kCalendarSlots];
    if (slot.empty())
        return;
    // completeDyn can trigger squashes that touch the calendar only by
    // marking instructions squashed, and it schedules completions only
    // into later slots (scheduleCompletion asserts latency > 0), so
    // this slot's list is stable while it is walked.
    calendar_pool.forEach(slot, [this](DynRef ref) {
        DynInst *d = pool.get(ref);
        if (!d || d->squashed || d->state != DynState::Issued)
            return;
        if (d->poll_retry) {
            // Throttled load: retry the memory access.
            d->poll_retry = false;
            executeDyn(d);
            return;
        }
        completeDyn(d);
    });
    calendar_pool.clear(slot);
}

// ---------------------------------------------------------------------
// Selective recovery walk
// ---------------------------------------------------------------------

bool
DmtEngine::redispatchEntry(ThreadContext &t, TBEntry &entry)
{
    ++entry.uid;
    entry.result_valid = false;
    entry.completed = false;
    entry.divergence = false;

    if (entry.has_dest) {
        // Any previous incarnation's register is owned by its DynInst
        // (freed at that instruction's early retirement or squash).
        entry.cur_phys = allocPhys();
    }

    DynInst *d = pool.alloc();
    d->seq = next_seq++;
    d->tid = t.id;
    d->tgen = t.gen;
    d->tb_id = entry.id;
    d->uid = entry.uid;
    d->inst = entry.inst;
    d->pc = entry.pc;
    d->is_recovery = true;
    d->fetch_cycle = entry.fetch_cycle;
    d->dispatch_cycle = now_;
    d->dest_phys = entry.has_dest ? entry.cur_phys : kNoPhysReg;

    resolveOperand(t, entry, 0, d);
    resolveOperand(t, entry, 1, d);

    ++window_used;
    ++entry.dispatch_count;
    ++stats_.recovery_dispatches;
    t.pipe.push_back(d->self);

    if (d->n_src_pending == 0)
        makeReady(d);
    return true;
}

void
DmtEngine::recoveryStepThread(ThreadContext &t, int &dispatch_budget)
{
    RecoveryFsm &f = t.recov;

    if (f.state == RecoveryFsm::State::Idle) {
        if (f.has_pending) {
            RecoveryRequest &r = f.pending;
            f.has_pending = false; // consumed either way
            // Prune roots squashed or retired in the meantime.
            std::erase_if(r.load_roots, [&](u64 id) {
                return !t.tb.contains(id);
            });
            if (r.start_tb_id < t.tb.firstId())
                r.start_tb_id = t.tb.firstId();
            if (!r.load_roots.empty())
                r.start_tb_id = std::min(r.start_tb_id,
                                         r.load_roots.front());
            if (r.start_tb_id < t.tb.endId()
                && (r.reg_mask != 0 || !r.load_roots.empty())) {
                f.cur.assignFrom(r);
                f.state = RecoveryFsm::State::Latency;
                f.latency_left = cfg.tb_latency;
                ++stats_.recoveries;
                emitTrace(TraceStage::Recovery,
                          TraceEventKind::RecoveryStart, t.id, 0,
                          f.cur.start_tb_id);
                ++t.recoveries_started;
            }
        }
        if (f.state != RecoveryFsm::State::Latency)
            return;
    }

    if (f.state == RecoveryFsm::State::Latency) {
        if (f.latency_left > 0) {
            --f.latency_left;
            return;
        }
        f.state = RecoveryFsm::State::Walk;
        f.walk_pos = f.cur.start_tb_id;
        f.dep_flags = f.cur.reg_mask;
        f.next_root = 0;
    }

    int reads = cfg.tb_read_block == 0 ? 1 << 30 : cfg.tb_read_block;
    while (reads > 0 && f.walk_pos < t.tb.endId()) {
        TBEntry &entry = t.tb.at(f.walk_pos);

        // Skip roots that disappeared behind the walk.
        while (f.next_root < f.cur.load_roots.size()
               && f.cur.load_roots[f.next_root] < f.walk_pos) {
            ++f.next_root;
        }
        const bool is_root = f.next_root < f.cur.load_roots.size()
            && f.cur.load_roots[f.next_root] == f.walk_pos;

        bool dep = is_root;
        if (!dep) {
            for (int i = 0; i < 2; ++i) {
                const SrcRef &s = entry.src[i];
                if (s.kind != SrcRef::None
                    && ((f.dep_flags >> s.reg) & 1)) {
                    dep = true;
                }
            }
        }

        if (dep) {
            const int limit = isHead(t)
                ? SimConfig::kWindowSize
                : SimConfig::kWindowSize - 2 * SimConfig::kFetchBlock;
            if (dispatch_budget <= 0 || window_used >= limit)
                return; // resume here next cycle
            redispatchEntry(t, entry);
            --dispatch_budget;
            if (is_root)
                ++f.next_root;
            if (entry.has_dest)
                f.dep_flags |= 1u << entry.dest;
        } else if (entry.has_dest) {
            f.dep_flags &= ~(1u << entry.dest);
        }

        ++f.walk_pos;
        --reads;

        if (f.dep_flags == 0
            && f.next_root >= f.cur.load_roots.size()) {
            f.state = RecoveryFsm::State::Idle;
            noteRecoveryDone(t);
            return;
        }
    }

    if (f.walk_pos >= t.tb.endId()) {
        f.state = RecoveryFsm::State::Idle;
        noteRecoveryDone(t);
    }
}

void
DmtEngine::noteRecoveryDone(ThreadContext &t)
{
    const u64 walked = t.recov.walk_pos > t.recov.cur.start_tb_id
        ? t.recov.walk_pos - t.recov.cur.start_tb_id : 0;
    stats_.recovery_walk_hist.sample(static_cast<double>(walked));
    emitTrace(TraceStage::Recovery, TraceEventKind::RecoveryEnd, t.id,
              0, walked);
}

void
DmtEngine::doRecovery()
{
    // Recoveries are events, not the steady state: gate the stage on a
    // cheap flat scan so idle cycles skip the order walk entirely.
    bool any_busy = false;
    for (const auto &t : threads) {
        if (t->active && t->recov.busy()) {
            any_busy = true;
            break;
        }
    }
    if (!any_busy)
        return;

    // Each trace buffer has its own recovery pipe (Figure 1c); the
    // dispatch width applies per thread.  recoveryStepThread never
    // spawns or squashes, so the cached order is stable and can be
    // iterated by reference.
    const std::vector<ThreadId> &order = tree.order();
    for (ThreadId tid : order) {
        ThreadContext &t = ctx(tid);
        if (t.active && t.recov.busy()) {
            int budget = kRecoveryDispatchWidth;
            recoveryStepThread(t, budget);
        }
    }
}

} // namespace dmt
