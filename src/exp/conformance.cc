#include "exp/conformance.hh"

#include <utility>

#include "common/strutil.hh"
#include "dmt/engine.hh"
#include "sim/functional.hh"
#include "sim/mainmem.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

namespace dmt
{

namespace
{

/** Reference final state from a functional run-to-completion. */
struct FunctionalFinal
{
    ArchState st;
    MainMemory mem;
    u64 steps = 0;
};

bool
runReference(const Program &prog, u64 max_steps, FunctionalFinal *out,
             std::string *detail)
{
    out->st.reset(prog);
    out->mem.loadProgram(prog);
    out->steps = runFunctional(out->st, out->mem, prog, max_steps);
    if (!out->st.halted) {
        *detail = strprintf("functional reference did not halt within "
                            "%llu steps",
                            static_cast<unsigned long long>(max_steps));
        return false;
    }
    return true;
}

bool
compareFinalState(const DmtEngine &engine, const FunctionalFinal &ref,
                  std::string *detail)
{
    if (!engine.programCompleted()) {
        *detail = strprintf("engine did not complete (retired %llu of "
                            "%llu)",
                            static_cast<unsigned long long>(
                                engine.retiredTotal()),
                            static_cast<unsigned long long>(ref.steps));
        return false;
    }
    if (engine.retiredTotal() != ref.steps) {
        *detail = strprintf("retired count %llu != functional steps "
                            "%llu",
                            static_cast<unsigned long long>(
                                engine.retiredTotal()),
                            static_cast<unsigned long long>(ref.steps));
        return false;
    }
    for (LogReg r = 0; r < kNumLogRegs; ++r) {
        if (engine.retiredReg(r) != ref.st.reg(r)) {
            *detail = strprintf("register $%d: engine 0x%08x != "
                                "functional 0x%08x", r,
                                engine.retiredReg(r), ref.st.reg(r));
            return false;
        }
    }
    if (engine.outputStream() != ref.st.output) {
        *detail = strprintf("OUT stream mismatch (engine %zu values, "
                            "functional %zu)",
                            engine.outputStream().size(),
                            ref.st.output.size());
        return false;
    }
    if (!(engine.memory() == ref.mem)) {
        *detail = "final memory image differs from functional "
                  "reference";
        return false;
    }
    return true;
}

} // namespace

ConformanceReport
checkConformance(const std::string &workload,
                 const ConformanceOptions &opts)
{
    ConformanceReport rep;
    const Program prog = buildWorkload(workload);

    FunctionalFinal ref;
    std::string detail;
    if (!runReference(prog, opts.max_steps, &ref, &detail)) {
        rep.ok = false;
        rep.detail = workload + ": " + detail;
        return rep;
    }
    rep.functional_steps = ref.steps;

    // All-site injection storm: faults corrupt speculative-only state,
    // so recovery must land on the very same final state.
    SimConfig storm = SimConfig::dmt(6, 2);
    storm.fault.enabled = true;
    storm.fault.seed = opts.fault_seed;
    storm.fault.rateAll(opts.fault_rate);
    const std::pair<const char *, SimConfig> legs[] = {
        {"baseline", SimConfig::baseline()},
        {"dmt6", SimConfig::dmt(6, 2)},
        {"dmt6+fault-storm", storm},
    };
    for (auto [name, cfg] : legs) {
        // Budget just past completion: a machine that loses
        // instructions fails the retired-count compare instead of
        // running away.
        cfg.max_retired = ref.steps + 64;
        DmtEngine engine(cfg, prog);
        engine.run();
        if (!compareFinalState(engine, ref, &detail)) {
            rep.ok = false;
            rep.detail = workload + " [" + name + "]: " + detail;
            return rep;
        }
    }
    return rep;
}

} // namespace dmt
