/**
 * @file
 * Functional (untimed) core for checkpointed fast-forward.
 *
 * functionalStep() is built for lock-step golden checking: it
 * materializes a full StepResult and re-derives the opcode class and
 * memory-access shape of every instruction on every step.  Skipping a
 * multi-hundred-million-instruction prefix needs none of that, so
 * FunctionalCore executes through the superblock-translated
 * threaded-code engine (sim/translated_core.hh), whose architectural
 * state is bit-identical to stepping functionalStep() the same
 * distance.  functionalStep() stays the one reference; this class is
 * the stateful facade every fast-forward consumer (checkpoint
 * generation, sampled runs, BBV profiling, the serve daemon) uses:
 * architectural state, memory, instruction count, BBV hook and
 * checkpoint capture.  It owns one TranslatedCore, whose translation
 * cache is bounded by the program: at most one block per text index.
 */

#ifndef DMT_SIM_FUNCTIONAL_CORE_HH
#define DMT_SIM_FUNCTIONAL_CORE_HH

#include "casm/program.hh"
#include "sim/arch_state.hh"
#include "sim/mainmem.hh"
#include "sim/translated_core.hh"

namespace dmt
{

class BbvCollector;

/** Kept only because dmtbench/layers.cc still names an engine. */
enum class FfMode : u8
{
    Translated,
};

/** Fast-forward core: architectural state driven by TranslatedCore. */
class FunctionalCore
{
  public:
    /**
     * Bind to @p prog (kept by reference — it must outlive the core)
     * and reset to its initial conditions.  Fast-forward runs stream
     * OUT values (running hash + count) by default so architectural
     * state stays bounded; pass @p stream_output = false when a caller
     * needs the exact OUT vector (e.g. equivalence tests).
     */
    explicit FunctionalCore(const Program &prog,
                            bool stream_output = true);

    /** Re-initialize to the program's entry conditions (cached
     *  translations survive: they hold no architectural state). */
    void reset();

    /**
     * Execute up to @p max_instr instructions; stops early at HALT.
     * @return instructions actually executed in this call.
     */
    u64 run(u64 max_instr);

    /** Total instructions executed since reset() (checkpoint index). */
    u64 instrCount() const { return instr_count_; }

    bool halted() const { return state_.halted; }

    const ArchState &state() const { return state_; }
    const MainMemory &memory() const { return mem_; }
    const Program &program() const { return prog_; }

    /** Overwrite the architectural state (checkpoint resume). */
    void restore(const ArchState &state, const MainMemory &mem,
                 u64 instr_count);

    /** No-op kept only because dmtbench/layers.cc still calls it. */
    void setMode(FfMode) {}

    /**
     * Attach (or detach, with nullptr) a BBV collector: subsequent
     * run() calls report every taken control transfer to it under the
     * contract in sim/bbv.hh.  The collector is not owned and must
     * outlive the attachment; collection state spans run() calls, so
     * interval vectors are invariant to chunking.
     */
    void setBbv(BbvCollector *bbv) { bbv_ = bbv; }

    /** Translation telemetry accumulated since construction. */
    TranslationStats translationStats() const
    {
        return translated_.stats();
    }

  private:
    const Program &prog_;
    ArchState state_;
    MainMemory mem_;
    u64 instr_count_ = 0;
    BbvCollector *bbv_ = nullptr;
    /** Its blocks outlive reset() and restore(): they hold no
     *  architectural state. */
    TranslatedCore translated_;
};

} // namespace dmt

#endif // DMT_SIM_FUNCTIONAL_CORE_HH
