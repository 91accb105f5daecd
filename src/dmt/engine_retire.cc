/**
 * @file
 * Retirement: early retirement (clearing the execution pipeline),
 * final retirement from the head thread's trace buffer with golden
 * checking, head-switch input validation, store drain to memory, and
 * late-divergence flushes (paper Sections 2.1, 2.2, 3.3).
 */

#include "dmt/engine.hh"

namespace dmt
{

// ---------------------------------------------------------------------
// Early retirement
// ---------------------------------------------------------------------

void
DmtEngine::earlyRetireThread(ThreadContext &t, int width)
{
    while (width > 0 && !t.pipe.empty()) {
        DynInst *d = pool.get(t.pipe.front());
        if (!d) {
            t.pipe.pop_front();
            continue;
        }
        if (d->squashed) {
            pool.release(d);
            t.pipe.pop_front();
            continue;
        }
        if (d->state != DynState::Done)
            break;

        d->early_retired = true;
        --window_used;
        ++stats_.early_retired;

        if (d->dest_phys != kNoPhysReg) {
            // Early retirement frees physical registers that are no
            // longer needed (paper Section 2.1): the result now lives
            // in the trace buffer data array, so even the authoritative
            // incarnation's register can go — readers check
            // result_valid before touching the tag.
            if (t.tb.contains(d->tb_id)
                && t.tb.at(d->tb_id).uid == d->uid) {
                TBEntry &entry = t.tb.at(d->tb_id);
                DMT_ASSERT(entry.result_valid,
                           "early retiring incomplete entry");
                entry.cur_phys = kNoPhysReg;
            }
            prf.free(d->dest_phys);
        }
        // A checkpoint that never got consumed (e.g. superseded branch)
        // is dead once the instruction leaves the pipeline.
        t.checkpoints.erase(d->tb_id);

        pool.release(d);
        t.pipe.pop_front();
        --width;
    }
}

void
DmtEngine::doEarlyRetire()
{
    for (const auto &tptr : threads) {
        if (tptr->active)
            earlyRetireThread(*tptr, SimConfig::kRetireWidth);
    }
}

// ---------------------------------------------------------------------
// Store drain
// ---------------------------------------------------------------------

void
DmtEngine::doStoreDrain()
{
    if (drain_q.empty())
        return;
    int budget = cfg.unlimited_fus ? 8 : FuPool::kMemPorts;
    while (!drain_q.empty() && budget > 0) {
        if (!cfg.unlimited_fus
            && !fus.tryIssue(OpClass::MemWrite, now_)) {
            break; // paper: drained stores compete for DCache ports
        }
        const i32 sq = drain_q.front();
        drain_q.pop_front();
        --budget;

        // Scalar copies before freeStore invalidates the entry.
        const LsqStore &st = lsq.store(sq);
        const Addr st_addr = st.addr;
        const int st_bytes = st.bytes;
        const u32 st_data = st.data;
        mem.write(st_addr, st_bytes, st_data);
        hier.dataAccess(st_addr, true);

        const Lsq::FreeStoreResult &res = lsq.freeStore(sq, false);
        DMT_ASSERT(res.orphaned_loads.empty(),
                   "drained store reported orphans");
        for (const DynRef &ref : res.stall_waiters) {
            DynInst *d = pool.get(ref);
            if (d && !d->squashed && d->state == DynState::Waiting)
                makeReady(d);
        }
    }
}

// ---------------------------------------------------------------------
// Head switch: validate the value-predicted inputs
// ---------------------------------------------------------------------

void
DmtEngine::headSwitch(ThreadContext &t)
{
    // All stores of prior threads must be in memory before this
    // thread's state can be declared architectural.
    if (!drain_q.empty())
        return;

    std::vector<DfItem> &mispredicted = head_mispred_scratch_;
    mispredicted.clear();
    for (int ri = 1; ri < kNumLogRegs; ++ri) {
        const LogReg r = static_cast<LogReg>(ri);
        IoInput &in = t.io.in[r];
        if (in.finalized)
            continue;

        // Final check: deliver the architectural value.  This wakes any
        // still-blocked consumers and, on a mismatch with the value
        // speculatively consumed, queues a recovery sequence.
        deliverInput(t, r, retire_regs[r], false);

        if (in.used) {
            ++stats_.inputs_used;
            if (!in.found_wrong) {
                ++stats_.inputs_hit;
                if (in.corrected)
                    ++stats_.inputs_df_correct;
                else if (in.valid_at_spawn)
                    ++stats_.inputs_valid_at_spawn;
                else
                    ++stats_.inputs_same_later;
            }
            if (in.found_wrong || in.corrected) {
                mispredicted.push_back(
                    {r, static_cast<u16>(last_mod_pc[r])});
            }
        }
        in.finalized = true;
    }

    if (cfg.dataflow_prediction && t.was_spawned) {
        if (!mispredicted.empty())
            df_pred.record(t.start_pc, mispredicted);
        else
            df_pred.clear(t.start_pc);
    }

    head_validated = true;
}

// ---------------------------------------------------------------------
// Final retirement
// ---------------------------------------------------------------------

void
DmtEngine::noteRetiredForPredictors(const TBEntry &entry)
{
    spawn_pred.onRetirePc(entry.pc);

    // Loop-exit detection: did control leave any watched loop body?
    // Excursions into called procedures don't count — only code reached
    // at the loop's own call depth is an exit.
    //
    // ORDER MATTERS here: loop_watches is kept in insertion (FIFO)
    // order so that the capacity eviction below — erase(begin()) at
    // cap 8 — drops the *oldest* watch.  Swap-and-pop in this erase
    // loop would scramble that order and change which watch gets
    // evicted, so the ordered erase is intentional (the list is at
    // most 8 entries, so the shift is cheap).
    for (size_t i = 0; i < loop_watches.size();) {
        LoopWatch &w = loop_watches[i];
        if (w.call_depth <= 0
            && (entry.pc < w.body_lo || entry.pc > w.body_hi)) {
            spawn_pred.recordLoopExit(w.branch_pc, entry.pc);
            loop_watches.erase(loop_watches.begin()
                               + static_cast<long>(i));
            continue;
        }
        if (entry.inst.isCall())
            ++w.call_depth;
        else if (entry.inst.isReturn())
            --w.call_depth;
        ++i;
    }

    if (entry.inst.isCall()) {
        spawn_pred.onRetireSpawnPoint(entry.pc + 4);
        return;
    }

    if (entry.inst.isBackwardBranch(entry.pc)
        && entry.trace_next_pc != entry.pc + 4) {
        // Taken loop-closing branch.
        spawn_pred.onRetireSpawnPoint(
            spawn_pred.predictAfterLoop(entry.pc));
        const Addr body_lo = entry.inst.branchTarget(entry.pc);
        bool known = false;
        for (const LoopWatch &w : loop_watches)
            known = known || w.branch_pc == entry.pc;
        if (!known) {
            // FIFO eviction of the oldest watch — relies on the list
            // staying in insertion order (see comment above).
            if (loop_watches.size() >= 8)
                loop_watches.erase(loop_watches.begin());
            loop_watches.push_back({entry.pc, body_lo, entry.pc, 0});
        }
    }
}

bool
DmtEngine::finalRetireEntry(ThreadContext &t, TBEntry &entry)
{
    DMT_ASSERT(entry.completed, "retiring incomplete entry");

    if (entry.has_dest) {
        retire_regs[entry.dest] = entry.result;
        last_mod_pc[entry.dest] = entry.pc;
    }

    // Progressive final check (paper Section 3.2.2): once the head
    // thread has stopped fetching, its last writer of each register is
    // final, so the successor's input can be validated as soon as that
    // writer retires — before the whole thread finishes.  (While the
    // head is still fetching, a later redefinition could arrive, so
    // the check must wait.)
    if (cfg.isDmt() && entry.has_dest && t.stopped && t.fq.empty()
        && t.tb.isLiveOut(entry.id)) {
        const ThreadId succ = tree.successor(t.id);
        if (succ != kNoThread)
            deliverInput(ctx(succ), entry.dest, entry.result, false);
    }

    RetireRecord rec;
    rec.pc = entry.pc;
    rec.dest = entry.has_dest ? entry.dest : -1;
    rec.dest_val = entry.result;
    if (entry.inst.isStore()) {
        const LsqStore &st = lsq.store(entry.sq_id);
        rec.is_store = true;
        rec.mem_addr = st.addr;
        rec.store_val = st.data;
        lsq.storeRetired(entry.sq_id, retired_total);
        drain_q.push_back(entry.sq_id);
        entry.sq_id = -1; // ownership moved to the drain queue
    }
    if (entry.lq_id >= 0) {
        lsq.freeLoad(entry.lq_id);
        entry.lq_id = -1;
        if (cfg.memdep_sync && entry.dispatch_count <= 1)
            memdepTrain(entry.pc, false); // never re-dispatched: clean
    }
    if (entry.inst.op == Opcode::OUT) {
        rec.emitted_out = true;
        rec.out_val = entry.result;
        out_stream.push_back(entry.result);
    }

    const bool ok = checker->onRetire(rec);
    DMT_ASSERT(ok, "%s", checker->error().c_str());

    // Lookahead accounting (Figures 8 and 9) and spawn-predictor
    // training; trySpawn, the predictor's only reader, runs on DMT
    // machines only.
    if (cfg.isDmt()) {
        noteRetiredForPredictors(entry);
        if (branch_eps.covered(entry.fetch_cycle, entry.branch_episode))
            ++stats_.la_fetch_beyond_mispredict;
        if (entry.first_exec_cycle != 0
            && branch_eps.covered(entry.first_exec_cycle,
                                  entry.branch_episode)) {
            ++stats_.la_exec_beyond_mispredict;
        }
        if (imiss_eps.covered(entry.fetch_cycle, entry.imiss_episode))
            ++stats_.la_fetch_beyond_imiss;
        if (entry.first_exec_cycle != 0
            && imiss_eps.covered(entry.first_exec_cycle,
                                 entry.imiss_episode)) {
            ++stats_.la_exec_beyond_imiss;
        }
        if (entry.branch_episode)
            branch_eps.ownerRetired(entry.branch_episode);
        if (entry.imiss_episode)
            imiss_eps.ownerRetired(entry.imiss_episode);
    }

    ++t.retired_count;
    ++retired_total;
    ++stats_.retired;
    emitTrace(TraceStage::Retire, TraceEventKind::InstRetire, t.id,
              entry.pc, entry.fetch_cycle, entry.id);
    if (retire_hook)
        retire_hook(entry, t.id);
    t.tb.popFront();
    return true;
}

void
DmtEngine::lateDivergenceFlush(ThreadContext &t, Addr target)
{
    // The divergent branch itself has already retired with its
    // corrected direction; the rest of *this thread's* trace is on the
    // wrong path and is refetched from the corrected target (paper
    // Section 3.3).  Later threads survive — control independence: if
    // the corrected path still reaches the successor's start PC their
    // work stands, and the join validation squashes them otherwise.
    inThreadSquash(t, t.tb.firstId(), target, nullptr);

    // Refetched instructions resolve their sources against the
    // architectural state at this point.
    for (int ri = 0; ri < kNumLogRegs; ++ri) {
        IoInput &in = t.io.in[static_cast<size_t>(ri)];
        in.valid = true;
        in.value = retire_regs[static_cast<size_t>(ri)];
        in.watch = kNoPhysReg;
        in.finalized = true;
    }
}

void
DmtEngine::fullyRetireThread(ThreadContext &t)
{
    // Superseded incarnations may still be in flight.
    for (const DynRef &ref : t.pipe) {
        DynInst *d = pool.get(ref);
        if (!d)
            continue;
        if (!d->squashed)
            squashDyn(d);
        pool.release(d);
    }
    t.pipe.clear();
    DMT_ASSERT(t.tb.empty(), "retiring thread with live entries");

    // Successor validation (paper Section 3.1.2): this thread's actual
    // join point is its final PC.  Any successor that does not start
    // exactly there was mispredicted (e.g. spawned after this thread
    // had already stopped) and is squashed with its subtree.
    if (!t.fetched_halt) {
        ThreadId succ;
        while ((succ = tree.successor(t.id)) != kNoThread
               && ctx(succ).start_pc != t.pc) {
            squashThreadTree(succ);
        }
    }

    if (t.was_spawned) {
        const bool joined = t.stopped && !t.fetched_halt;
        const double overlap = t.exec_total == 0
            ? 0.0
            : static_cast<double>(t.exec_while_spec)
                  / static_cast<double>(t.exec_total);
        const bool too_small =
            t.retired_count < static_cast<u64>(kMinThreadSize);
        // Threads that repeatedly went down wrong data-dependent
        // paths (divergence repairs) or whose inputs kept needing
        // repair (recovery walks) slowed execution down even if they
        // joined: distant speculation over serial memory state is the
        // classic case.
        const bool useful = joined && overlap >= kMinOverlapFrac
            && t.divergence_repairs <= 2
            && t.recoveries_started
                   <= 2 + t.retired_count / 64;
        spawn_pred.onThreadRetired(t.start_pc, useful, too_small);
        if (joined)
            ++stats_.threads_joined;
        stats_.thread_size.sample(static_cast<double>(t.retired_count));
        stats_.thread_overlap.sample(overlap);
    }
    stats_.thread_size_hist.sample(static_cast<double>(t.retired_count));
    emitTrace(TraceStage::Thread, TraceEventKind::ThreadRetire, t.id,
              t.start_pc, t.retired_count,
              t.stopped && !t.fetched_halt ? 1 : 0);

    tree.remove(t.id);
    t.active = false;
    ++t.gen;
    for (auto &waiters : io_waiters[static_cast<size_t>(t.id)])
        waiter_pool.clear(waiters);
    head_validated = false;
}

void
DmtEngine::finalRetireHead()
{
    const ThreadId head = tree.head();
    if (head == kNoThread)
        return;
    ThreadContext &t = ctx(head);

    if (!head_validated) {
        headSwitch(t);
        if (!head_validated) {
            ++stats_.st_headswitch;
            return;
        }
        emitTrace(TraceStage::Retire, TraceEventKind::HeadSwitch, t.id,
                  t.start_pc);
    }
    int width = SimConfig::kRetireWidth;
    while (width > 0) {
        if (t.tb.empty()) {
            if (t.recov.busy()) {
                ++stats_.st_recovery;
            } else if ((t.stopped || t.fetched_halt) && t.fq.empty()) {
                fullyRetireThread(t);
            } else if (width == SimConfig::kRetireWidth) {
                ++stats_.st_empty;
            }
            return;
        }
        TBEntry &entry = t.tb.at(t.tb.firstId());
        // Entries at or above the recovery low-water mark may still be
        // re-dispatched with corrected inputs; everything below it is
        // final and retires under the running walk.
        if (entry.id >= t.recov.lowWater()) {
            if (width == SimConfig::kRetireWidth)
                ++stats_.st_recovery;
            return;
        }
        if (!entry.completed) {
            if (width == SimConfig::kRetireWidth)
                ++stats_.st_incomplete;
            return;
        }

        if (entry.inst.isHalt()) {
            finalRetireEntry(t, entry);
            program_done = true;
            done_ = true;
            return;
        }

        // Read before the pop frees the slot.
        const bool divergent = entry.divergence;
        const Addr divergence_target = entry.divergence_target;
        finalRetireEntry(t, entry);
        --width;

        if (divergent) {
            lateDivergenceFlush(t, divergence_target);
            return;
        }
        if (t.recov.busy())
            return;
    }
}

void
DmtEngine::doFinalRetire()
{
    finalRetireHead();
}

} // namespace dmt
