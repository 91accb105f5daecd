/**
 * @file
 * Differential exactness tests for the superblock-translated
 * fast-forward engine (sim/translated_core.hh).  The contract under
 * test: the engine produces architectural state bit-identical to
 * stepping functionalStep() — the oracle the golden checker and the
 * conformance harness use — the same distance: registers, PC, halt
 * flag, OUT stream (exact vector, count and hash), sparse memory pages
 * and executed-instruction count, for every conformance scenario, for
 * arbitrary mid-block budget stops and across checkpoint restore.
 *
 * Scenarios come from tests/scenarios.hh, so this sweep and the
 * conformance sweep cover the same program population.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "casm/assembler.hh"
#include "sim/checkpoint.hh"
#include "sim/functional.hh"
#include "sim/functional_core.hh"
#include "sim/translated_core.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

#include "scenarios.hh"

namespace dmt
{
namespace
{

/** Safety cap: every scenario program retires far less than this. */
constexpr u64 kRunCap = u64{1} << 24;

/**
 * The reference cursor: functionalStep() one instruction at a time,
 * with exact OUT vectors, behind FunctionalCore's run() shape.  A
 * fetch off the text segment halts without counting an instruction,
 * as in the engine.
 */
struct Oracle
{
    explicit Oracle(const Program &p) : prog(p)
    {
        state.reset(prog);
        mem.loadProgram(prog);
    }

    u64
    run(u64 max_instr)
    {
        u64 done = 0;
        while (done < max_instr && !state.halted) {
            const bool fetched = prog.validTextAddr(state.pc);
            functionalStep(state, mem, prog);
            done += fetched ? 1 : 0;
        }
        instr_count += done;
        return done;
    }

    bool halted() const { return state.halted; }

    const Program &prog;
    ArchState state;
    MainMemory mem;
    u64 instr_count = 0;
};

/** Every observable architectural fact the engine must reproduce. */
void
expectSameState(const Oracle &ref, const FunctionalCore &core,
                const std::string &ctx)
{
    const ArchState &st = core.state();
    EXPECT_EQ(ref.instr_count, core.instrCount()) << ctx;
    EXPECT_EQ(ref.state.pc, st.pc) << ctx;
    EXPECT_EQ(ref.state.halted, st.halted) << ctx;
    EXPECT_EQ(ref.state.regs, st.regs) << ctx;
    EXPECT_EQ(ref.state.output, st.output) << ctx;
    EXPECT_EQ(ref.state.out_count, st.out_count) << ctx;
    EXPECT_EQ(ref.state.out_hash, st.out_hash) << ctx;
    EXPECT_TRUE(ref.mem == core.memory()) << ctx;
}

/** Run @p core (engine or oracle) to HALT under the safety cap. */
template <typename Core>
void
runToHalt(Core &core, const std::string &ctx)
{
    u64 total = 0;
    while (!core.halted() && total < kRunCap)
        total += core.run(kRunCap - total);
    ASSERT_TRUE(core.halted()) << ctx << ": no HALT under the cap";
}

// ---- the scenario sweep ------------------------------------------------

class TranslatedConformance : public ::testing::TestWithParam<int>
{
};

TEST_P(TranslatedConformance, BitIdenticalToInterpreter)
{
    const int family_idx = GetParam() / seedsPerFamily();
    const u64 seed =
        static_cast<u64>(GetParam() % seedsPerFamily()) + 1;
    const GenParams p = scenarioParams(family_idx, seed);
    const std::string spec = p.canonicalSpec();
    const Program prog = buildWorkload(spec);

    // Exact OUT vectors (not just the digest): stream_output off.
    Oracle ref(prog);
    FunctionalCore xlat(prog, /*stream_output=*/false);

    // Phase 1: chunked lock-step over a prefix, cycling through chunk
    // sizes (including single-instruction steps) so budget stops land
    // mid-block, mid-loop and on every kind of control transfer.
    static constexpr u64 kChunks[] = {1, 1, 2, 3, 5, 7, 13, 64};
    size_t ci = 0;
    while (!ref.halted() && ref.instr_count < 1500) {
        const u64 chunk = kChunks[ci++ % (sizeof(kChunks)
                                          / sizeof(kChunks[0]))];
        const u64 dr = ref.run(chunk);
        const u64 dx = xlat.run(chunk);
        ASSERT_EQ(dr, dx) << spec << " @" << ref.instr_count;
        ASSERT_EQ(ref.state.pc, xlat.state().pc)
            << spec << " @" << ref.instr_count;
        if (dr == 0)
            break;
    }
    expectSameState(ref, xlat, spec + " (chunked prefix)");

    // Phase 2: run both to completion and compare the full final state.
    runToHalt(ref, spec);
    runToHalt(xlat, spec);
    expectSameState(ref, xlat, spec + " (completion)");

    // A halted core must stay halted and consume nothing.
    EXPECT_EQ(xlat.run(10), 0u) << spec;

    const TranslationStats xs = xlat.translationStats();
    EXPECT_GT(xs.blocks_translated, 0u) << spec;
    EXPECT_EQ(xs.instrs_executed, xlat.instrCount()) << spec;
}

INSTANTIATE_TEST_SUITE_P(
    Families, TranslatedConformance,
    ::testing::Range(0, static_cast<int>(genFamilies().size())
                            * seedsPerFamily()),
    [](const ::testing::TestParamInfo<int> &param_info) {
        const int fam = param_info.param / seedsPerFamily();
        const int seed = param_info.param % seedsPerFamily() + 1;
        return std::string(genFamilies()[static_cast<size_t>(fam)].name)
            + "_s" + std::to_string(seed);
    });

// ---- suite kernels -----------------------------------------------------

TEST(Translated, SuiteKernelsBitIdentical)
{
    for (const char *name : {"go", "m88ksim", "compress", "li",
                             "ijpeg", "perl", "vortex", "gcc"}) {
        const Program prog = buildWorkload(name);
        Oracle ref(prog);
        FunctionalCore xlat(prog, /*stream_output=*/false);
        runToHalt(ref, name);
        runToHalt(xlat, name);
        expectSameState(ref, xlat, name);
    }
}

// ---- translation-cache behaviour --------------------------------------

TEST(Translated, IndirectStressReturnsAndPtrchase)
{
    // Deep call trees return through JR — the inline next-block
    // predictor's hard case (one site, many return targets).
    {
        const Program prog = buildWorkload("gen:calltree:13:depth=5");
        Oracle ref(prog);
        FunctionalCore xlat(prog, /*stream_output=*/false);
        runToHalt(ref, "calltree reference");
        runToHalt(xlat, "calltree translated");
        expectSameState(ref, xlat, "calltree indirect stress");
        const TranslationStats xs = xlat.translationStats();
        EXPECT_GT(xs.indirect_hits + xs.indirect_misses, 0u);
    }
    // Pointer-chase stresses the data side: loads walking sparse pages.
    {
        const Program prog =
            buildWorkload("gen:ptrchase:11:trips=500:units=64");
        Oracle ref(prog);
        FunctionalCore xlat(prog, /*stream_output=*/false);
        runToHalt(ref, "ptrchase reference");
        runToHalt(xlat, "ptrchase translated");
        expectSameState(ref, xlat, "ptrchase data stress");
    }
}

TEST(Translated, HotLoopChainsBlocks)
{
    const Program prog = buildWorkload("gen:loopnest:5:trips=200");
    FunctionalCore xlat(prog, /*stream_output=*/false);
    runToHalt(xlat, "loopnest translated");
    const TranslationStats xs = xlat.translationStats();
    // Steady-state loops must run chained: far more hits than misses
    // (every miss is a one-time chain installation).
    EXPECT_GT(xs.chain_hits, 10 * xs.chain_misses);
    EXPECT_GT(xs.blocks_executed, xs.blocks_translated);
}

// ---- checkpoint pipeline -----------------------------------------------

TEST(Translated, CheckpointRestoreMidBlockResumesExactly)
{
    // Restore into a fresh core at an arbitrary (mid-block) position
    // and continue; the end state must match a straight oracle run.
    const Program prog = buildWorkload("gen:branchy:9:trips=60");
    Oracle ref(prog);
    runToHalt(ref, "branchy reference");

    FunctionalCore ff(prog, /*stream_output=*/false);
    ff.run(777); // deliberately not a block boundary
    FunctionalCore resumed(prog, /*stream_output=*/false);
    resumed.restore(ff.state(), ff.memory(), ff.instrCount());
    runToHalt(resumed, "branchy resumed");
    expectSameState(ref, resumed, "mid-block checkpoint resume");
}

TEST(Translated, StoreToSharedPageReadsBackInOneRun)
{
    // A restored core shares its pages with the checkpoint.  Its first
    // store to a page clones it; a load of the same word later in the
    // same run() must see the store, not the checkpoint's bytes that
    // the read TLB cached before it.
    const Program prog = assembleOrDie(R"(
            .data
    cell:   .word 41
            .text
            la   $t0, cell
            lw   $t1, 0($t0)
            addi $t1, $t1, 1
            sw   $t1, 0($t0)
            lw   $t2, 0($t0)
            out  $t2
            halt
    )");
    Oracle ref(prog);
    runToHalt(ref, "store/load reference");

    const Checkpoint ck =
        Checkpoint::capture(FunctionalCore(prog, /*stream_output=*/false));
    FunctionalCore resumed(prog, /*stream_output=*/false);
    resumed.restore(ck.state, ck.mem, ck.instr_count);
    ASSERT_EQ(resumed.memory().pageData(Program::kDataBase),
              ck.mem.pageData(Program::kDataBase))
        << "a restore shares the checkpoint's pages";
    resumed.run(kRunCap);
    ASSERT_TRUE(resumed.halted()) << "one run(), straight to HALT";
    expectSameState(ref, resumed, "store to a shared page");
    ASSERT_EQ(resumed.state().output.size(), 1u);
    EXPECT_EQ(resumed.state().output[0], 42u);
    EXPECT_EQ(ck.mem.read32(Program::kDataBase), 41u)
        << "the checkpoint's page changed under a restored core";
}

} // namespace
} // namespace dmt
