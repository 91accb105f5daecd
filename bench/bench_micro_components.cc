/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own components —
 * not a paper figure, but they keep the substrate honest (and explain
 * where simulation wall-clock goes).
 */

#include <benchmark/benchmark.h>

#include "branch/predictor.hh"
#include "casm/assembler.hh"
#include "cli/env.hh"
#include "common/rng.hh"
#include "dmt/engine.hh"
#include "dmt/trace_buffer.hh"
#include "memory/hierarchy.hh"
#include "sim/functional.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace dmt;

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache({"bench", 16 * 1024, 2, 32});
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(static_cast<Addr>(rng.below(1 << 18)), false));
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_GsharePredictUpdate(benchmark::State &state)
{
    Gshare g(16, 12);
    Rng rng(2);
    u32 h = 0;
    for (auto _ : state) {
        const Addr pc = static_cast<Addr>(rng.below(1 << 20)) * 4;
        const bool taken = g.predict(pc, h);
        g.update(pc, h, !taken);
        h = g.pushHistory(h, taken);
        benchmark::DoNotOptimize(h);
    }
}
BENCHMARK(BM_GsharePredictUpdate);

void
BM_TraceBufferAppend(benchmark::State &state)
{
    TraceBuffer tb;
    tb.reset(512);
    Rng rng(3);
    for (auto _ : state) {
        if (tb.full()) {
            state.PauseTiming();
            tb.reset(512);
            state.ResumeTiming();
        }
        const Instruction inst{Opcode::ADD,
                               static_cast<LogReg>(rng.below(32)),
                               static_cast<LogReg>(rng.below(32)),
                               static_cast<LogReg>(rng.below(32)), 0};
        benchmark::DoNotOptimize(tb.append(inst, 0x400000).id);
    }
}
BENCHMARK(BM_TraceBufferAppend);

void
BM_FunctionalStep(benchmark::State &state)
{
    const Program prog = mkSumLoop(1 << 30);
    ArchState st;
    MainMemory mem;
    st.reset(prog);
    mem.loadProgram(prog);
    for (auto _ : state)
        benchmark::DoNotOptimize(functionalStep(st, mem, prog).pc);
}
BENCHMARK(BM_FunctionalStep);

void
BM_AssembleSource(benchmark::State &state)
{
    std::string src;
    for (int i = 0; i < 200; ++i)
        src += "addi $t0, $t0, 1\n";
    src += "halt\n";
    for (auto _ : state) {
        AsmResult r = assembleSource(src);
        benchmark::DoNotOptimize(r.ok);
    }
}
BENCHMARK(BM_AssembleSource);

void
BM_BaselineCycles(benchmark::State &state)
{
    const Program prog = mkSumLoop(1 << 30);
    SimConfig cfg = simConfigFromEnv(SimConfig::baseline());
    cfg.max_cycles = 2000;
    for (auto _ : state) {
        state.PauseTiming();
        DmtEngine e(cfg, prog);
        state.ResumeTiming();
        e.run();
        benchmark::DoNotOptimize(e.stats().retired.value());
    }
    state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_BaselineCycles)->Unit(benchmark::kMicrosecond);

void
BM_DmtCycles(benchmark::State &state)
{
    const Program prog = buildWorkload("go");
    SimConfig cfg = simConfigFromEnv(SimConfig::dmt(6, 2));
    cfg.max_cycles = 2000;
    for (auto _ : state) {
        state.PauseTiming();
        DmtEngine e(cfg, prog);
        state.ResumeTiming();
        e.run();
        benchmark::DoNotOptimize(e.stats().retired.value());
    }
    state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_DmtCycles)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
