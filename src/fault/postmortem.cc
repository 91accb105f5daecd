#include "fault/postmortem.hh"

#include <cstdio>

#include "common/json.hh"
#include "common/log.hh"
#include "dmt/engine.hh"
#include "trace/ring_sink.hh"

namespace dmt
{

namespace
{

const char *
recoveryStateName(RecoveryFsm::State s)
{
    switch (s) {
      case RecoveryFsm::State::Idle: return "idle";
      case RecoveryFsm::State::Latency: return "latency";
      case RecoveryFsm::State::Walk: return "walk";
    }
    return "?";
}

void
threadOn(JsonWriter &w, const ThreadContext &t)
{
    w.beginObject();
    w.key("tid").value(t.id);
    w.key("gen").value(t.gen);
    w.key("start_pc").value(static_cast<u64>(t.start_pc));
    w.key("pc").value(static_cast<u64>(t.pc));
    w.key("is_loop_thread").value(t.is_loop_thread);
    w.key("stopped").value(t.stopped);
    w.key("fetched_halt").value(t.fetched_halt);
    w.key("fetch_queue").value(static_cast<u64>(t.fq.size()));
    w.key("pipe").value(static_cast<u64>(t.pipe.size()));
    w.key("tb_first").value(t.tb.firstId());
    w.key("tb_end").value(t.tb.endId());
    w.key("tb_size").value(t.tb.size());
    w.key("retired").value(t.retired_count);
    w.key("checkpoints").value(static_cast<u64>(t.checkpoints.size()));
    w.key("recovery").beginObject();
    w.key("state").value(recoveryStateName(t.recov.state));
    w.key("queued").value(static_cast<u64>(t.recov.has_pending ? 1 : 0));
    w.key("walk_pos").value(t.recov.walk_pos);
    w.key("latency_left").value(t.recov.latency_left);
    w.key("low_water").value(t.recov.lowWater());
    w.endObject();
    w.endObject();
}

} // namespace

std::string
Postmortem::json(const DmtEngine &e, const std::string &kind,
                 const std::string &reason)
{
    JsonWriter w;
    w.beginObject();
    w.key("postmortem").value(std::string_view(kind));
    w.key("reason").value(std::string_view(reason));
    w.key("cycle").value(e.now_);
    w.key("retired_total").value(e.retired_total);
    w.key("program_done").value(e.program_done);
    w.key("window_used").value(e.window_used);
    w.key("window_size").value(SimConfig::kWindowSize);
    w.key("drain_queue").value(static_cast<u64>(e.drain_q.size()));
    w.key("phys_regs_total").value(e.prf.count());
    w.key("phys_regs_free").value(e.prf.numFree());
    w.key("dyninsts_live").value(e.pool.live());
    w.key("golden_ok").value(e.goldenOk());

    w.key("config");
    e.cfg.jsonOn(w);

    // head()/order() rebuild through a recursive preorder walk, which
    // never terminates on a corrupted (cyclic) tree — and a corrupted
    // tree is exactly what an invariant-audit post-mortem may be
    // looking at.  audit() is iterative and cycle-safe; gate on it.
    const bool tree_ok = e.tree.audit(nullptr);
    w.key("order_tree_intact").value(tree_ok);
    const ThreadId head = tree_ok ? e.tree.head() : kNoThread;
    w.key("head_tid").value(head);
    w.key("head_validated").value(e.head_validated);
    w.key("order").beginArray();
    if (tree_ok) {
        for (ThreadId tid : e.tree.order())
            w.value(tid);
    }
    w.endArray();

    w.key("threads").beginArray();
    for (const auto &t : e.threads) {
        if (t->active)
            threadOn(w, *t);
    }
    w.endArray();

    w.key("faults").beginObject();
    w.key("enabled").value(e.injector_.enabled());
    w.key("injected_total").value(e.injector_.injectedTotal());
    w.key("by_site").beginObject();
    for (int i = 0; i < kNumFaultSites; ++i) {
        const FaultSite s = static_cast<FaultSite>(i);
        w.key(faultSiteName(s)).value(e.injector_.injected(s));
    }
    w.endObject();
    w.endObject();

    w.key("stats").beginObject();
    w.key("cycles").value(e.stats_.cycles.value());
    w.key("retired").value(e.stats_.retired.value());
    w.key("dispatched").value(e.stats_.dispatched.value());
    w.key("issued").value(e.stats_.issued.value());
    w.key("threads_spawned").value(e.stats_.threads_spawned.value());
    w.key("threads_squashed").value(e.stats_.threads_squashed.value());
    w.key("recoveries").value(e.stats_.recoveries.value());
    w.key("recovery_dispatches")
        .value(e.stats_.recovery_dispatches.value());
    w.key("lsq_violations").value(e.stats_.lsq_violations.value());
    w.key("st_headswitch").value(e.stats_.st_headswitch.value());
    w.key("st_recovery").value(e.stats_.st_recovery.value());
    w.key("st_incomplete").value(e.stats_.st_incomplete.value());
    w.key("st_empty").value(e.stats_.st_empty.value());
    w.endObject();

    // Last-N telemetry events (PR-1 ring sink), oldest first.
    w.key("ring_events").beginArray();
    if (const RingSink *ring = e.tracer_.ring()) {
        for (size_t i = 0; i < ring->size(); ++i) {
            const TraceEvent &ev = ring->at(i);
            w.beginObject();
            w.key("cycle").value(ev.cycle);
            w.key("tid").value(ev.tid);
            w.key("stage").value(traceStageName(ev.stage));
            w.key("kind").value(traceEventKindName(ev.kind));
            w.key("pc").value(static_cast<u64>(ev.pc));
            w.key("a").value(ev.a);
            w.key("b").value(ev.b);
            w.endObject();
        }
    }
    w.endArray();

    w.endObject();
    return w.str();
}

std::string
Postmortem::dump(const DmtEngine &e, const std::string &kind,
                 const std::string &reason)
{
    std::string doc = json(e, kind, reason);
    const std::string &path = e.cfg.crash_file;
    if (!path.empty()) {
        if (std::FILE *f = std::fopen(path.c_str(), "w")) {
            std::fwrite(doc.data(), 1, doc.size(), f);
            std::fputc('\n', f);
            std::fclose(f);
            warn("post-mortem written to %s", path.c_str());
        } else {
            warn("cannot write post-mortem file %s", path.c_str());
        }
    }
    return doc;
}

} // namespace dmt
