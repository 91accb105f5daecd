/**
 * @file
 * Differential fuzzing: structured random programs (see
 * fuzz_corpus.hh) are executed on the functional simulator, the
 * baseline superscalar and several DMT machines.  All must retire the
 * identical dynamic instruction stream (golden checker) and emit the
 * identical output.
 */

#include <gtest/gtest.h>

#include "dmt/engine.hh"
#include "fuzz_corpus.hh"
#include "reference_run.hh"

namespace dmt
{
namespace
{

class FuzzDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzDifferential, AllMachinesAgree)
{
    ProgramFuzzer fuzzer(static_cast<u64>(GetParam()) * 7919 + 17);
    const Program prog = fuzzer.generate();
    const std::vector<u32> want = referenceOutput(prog);

    std::vector<SimConfig> configs;
    configs.push_back(SimConfig::baseline());
    configs.push_back(SimConfig::dmt(2, 1));
    configs.push_back(SimConfig::dmt(4, 2));
    {
        SimConfig c = SimConfig::dmt(6, 2);
        c.tb_size = 64; // small trace buffers stress thread stalls
        c.tb_latency = 8;
        configs.push_back(c);
    }
    {
        SimConfig c = SimConfig::dmt(4, 2);
        c.early_divergence_repair = false; // paper-mode flushes
        c.unlimited_fus = false;
        configs.push_back(c);
    }

    for (const SimConfig &cfg : configs) {
        DmtEngine e(cfg, prog);
        e.run();
        ASSERT_TRUE(e.programCompleted())
            << "seed " << GetParam() << " cfg " << cfg.summary();
        ASSERT_TRUE(e.goldenOk())
            << "seed " << GetParam() << " cfg " << cfg.summary() << ": "
            << e.goldenError();
        EXPECT_EQ(e.outputStream(), want)
            << "seed " << GetParam() << " cfg " << cfg.summary();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential,
                         ::testing::Range(0, 30));

/** Same differential contract over the mixed corpus: seeded draws
 *  alternate between random programs and generated workload families,
 *  so the machines also face the generator's structural shapes. */
class MixedCorpusDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(MixedCorpusDifferential, AllMachinesAgree)
{
    const Program prog =
        fuzzCorpusProgram(static_cast<u64>(GetParam()) * 6271 + 5);
    const std::vector<u32> want = referenceOutput(prog);

    const std::vector<SimConfig> configs = {
        SimConfig::baseline(),
        SimConfig::dmt(4, 2),
        SimConfig::dmt(6, 2),
    };
    for (const SimConfig &cfg : configs) {
        DmtEngine e(cfg, prog);
        e.run();
        ASSERT_TRUE(e.programCompleted())
            << "seed " << GetParam() << " cfg " << cfg.summary();
        ASSERT_TRUE(e.goldenOk())
            << "seed " << GetParam() << " cfg " << cfg.summary() << ": "
            << e.goldenError();
        EXPECT_EQ(e.outputStream(), want)
            << "seed " << GetParam() << " cfg " << cfg.summary();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedCorpusDifferential,
                         ::testing::Range(0, 20));

} // namespace
} // namespace dmt
