/**
 * @file
 * End-to-end smoke tests: every microkernel runs to completion on the
 * functional simulator, the baseline superscalar, and an aggressive
 * DMT machine; all three produce identical output streams (the golden
 * checker additionally validates every retired instruction).
 */

#include <gtest/gtest.h>

#include "dmt/engine.hh"
#include "reference_run.hh"
#include "workloads/workloads.hh"

namespace dmt
{
namespace
{

void
checkProgram(const Program &prog, const SimConfig &cfg)
{
    DmtEngine engine(cfg, prog);
    engine.run();
    ASSERT_TRUE(engine.programCompleted())
        << "program did not reach HALT";
    ASSERT_TRUE(engine.goldenOk()) << engine.goldenError();
    EXPECT_EQ(engine.outputStream(), referenceOutput(prog));
}

SimConfig
dmtConfig()
{
    SimConfig c = SimConfig::dmt(4, 2);
    return c;
}

TEST(Smoke, FibBaseline)
{
    checkProgram(mkFibRecursive(12), SimConfig::baseline());
}

TEST(Smoke, FibDmt)
{
    checkProgram(mkFibRecursive(12), dmtConfig());
}

TEST(Smoke, SumLoopDmt)
{
    checkProgram(mkSumLoop(500), dmtConfig());
}

TEST(Smoke, CallChainDmt)
{
    checkProgram(mkCallChain(300), dmtConfig());
}

TEST(Smoke, BranchyDmt)
{
    checkProgram(mkBranchy(400), dmtConfig());
}

TEST(Smoke, AliasStressDmt)
{
    checkProgram(mkAliasStress(200), dmtConfig());
}

TEST(Smoke, MatmulDmt)
{
    checkProgram(mkMatmul(8), dmtConfig());
}

TEST(Smoke, SortDmt)
{
    checkProgram(mkSort(40), dmtConfig());
}

TEST(Smoke, LinkedListDmt)
{
    checkProgram(mkLinkedList(60), dmtConfig());
}

TEST(Smoke, DeepRecursionDmt)
{
    checkProgram(mkDeepRecursion(40), dmtConfig());
}

TEST(Smoke, LoopBreakDmt)
{
    checkProgram(mkLoopBreak(30, 20), dmtConfig());
}

} // namespace
} // namespace dmt
