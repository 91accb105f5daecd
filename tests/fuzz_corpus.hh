/**
 * @file
 * Shared structured-random program generator for the fuzz-style test
 * suites (differential fuzzing in test_fuzz.cc, fault-injection storms
 * in test_fault.cc).  Programs have nested calls, bounded loops,
 * hammock branches and byte/half/word memory traffic on a shared
 * scratch buffer.
 *
 * The generator guarantees termination: function i may only call
 * functions with larger indices, and every loop has a fixed trip count
 * with a protected counter register.
 */

#ifndef DMT_TESTS_FUZZ_CORPUS_HH
#define DMT_TESTS_FUZZ_CORPUS_HH

#include <vector>

#include "casm/builder.hh"
#include "common/rng.hh"
#include "workloads/generator.hh"

namespace dmt
{

class ProgramFuzzer
{
  public:
    explicit ProgramFuzzer(u64 seed) : rng(seed) {}

    Program
    generate()
    {
        using namespace reg;
        nfuncs = static_cast<int>(rng.range(2, 4));
        for (int i = 0; i < nfuncs; ++i)
            funcs.push_back(b.newLabel());
        scratch = b.newLabel("scratch");
        b.bindData(scratch);
        b.dataSpace(256);

        // main: seed the data registers, run a calling loop, dump state.
        for (LogReg r = t0; r <= t7; ++r)
            b.li(r, rng.next32());
        b.la(s7, scratch); // global scratch base, never clobbered
        const int main_iters = static_cast<int>(rng.range(2, 5));
        b.li(s6, static_cast<u32>(main_iters));
        const auto main_loop = b.newLabel();
        b.bind(main_loop);
        b.move(a0, t0);
        b.jal(funcs[0]);
        b.xor_(t0, t0, v0);
        b.addi(s6, s6, -1);
        b.bgtz(s6, main_loop);
        for (LogReg r = t0; r <= t7; ++r)
            b.out(r);
        b.halt();

        for (int i = 0; i < nfuncs; ++i)
            emitFunction(i);
        return b.finish();
    }

  private:
    LogReg
    dataReg()
    {
        return static_cast<LogReg>(reg::t0 + rng.below(8));
    }

    /** One straight-line-ish operation (no loops). */
    void
    emitOp(int depth, bool allow_call, int func_idx)
    {
        using namespace reg;
        const int kind = static_cast<int>(rng.below(10));
        const LogReg a = dataReg();
        const LogReg c = dataReg();
        switch (kind) {
          case 0:
            b.add(c, a, dataReg());
            break;
          case 1:
            b.sub(c, a, dataReg());
            break;
          case 2:
            b.xor_(c, a, dataReg());
            break;
          case 3:
            b.mul(c, a, dataReg());
            break;
          case 4:
            b.addi(c, a, static_cast<i32>(rng.range(-100, 100)));
            break;
          case 5:
            b.srl(c, a, static_cast<int>(rng.below(8)));
            break;
          case 6: { // store to scratch
              b.andi(t8, a, 0x3C);
              b.add(t8, t8, s7);
              const int sz = static_cast<int>(rng.below(3));
              if (sz == 0)
                  b.sw(c, 0, t8);
              else if (sz == 1)
                  b.sh(c, static_cast<i32>(rng.below(2)) * 2, t8);
              else
                  b.sb(c, static_cast<i32>(rng.below(4)), t8);
              break;
          }
          case 7: { // load from scratch
              b.andi(t8, a, 0x3C);
              b.add(t8, t8, s7);
              const int sz = static_cast<int>(rng.below(5));
              if (sz == 0)
                  b.lw(c, 0, t8);
              else if (sz == 1)
                  b.lh(c, 0, t8);
              else if (sz == 2)
                  b.lhu(c, 2, t8);
              else if (sz == 3)
                  b.lb(c, static_cast<i32>(rng.below(4)), t8);
              else
                  b.lbu(c, static_cast<i32>(rng.below(4)), t8);
              break;
          }
          case 8: { // hammock branch
              const auto skip = b.newLabel();
              const int cond = static_cast<int>(rng.below(3));
              if (cond == 0)
                  b.beq(a, dataReg(), skip);
              else if (cond == 1)
                  b.blt(a, dataReg(), skip);
              else
                  b.bnez(a, skip);
              const int inner = static_cast<int>(rng.range(1, 2));
              for (int i = 0; i < inner; ++i)
                  emitOp(depth + 1, false, func_idx);
              b.bind(skip);
              break;
          }
          case 9:
            if (allow_call && func_idx + 1 < nfuncs) {
                b.move(a0, a);
                b.jal(funcs[static_cast<size_t>(func_idx) + 1]);
                b.move(c, v0);
            } else {
                b.nor_(c, a, dataReg());
            }
            break;
        }
    }

    void
    emitLoop(int func_idx)
    {
        using namespace reg;
        const auto head = b.newLabel();
        b.li(t9, static_cast<u32>(rng.range(1, 6)));
        b.bind(head);
        const int ops = static_cast<int>(rng.range(1, 4));
        for (int i = 0; i < ops; ++i) {
            const bool call = rng.chance(0.3);
            if (call && func_idx + 1 < nfuncs) {
                // The callee clobbers t9: protect the loop counter.
                b.push_(t9);
                emitOp(0, true, func_idx);
                b.pop_(t9);
            } else {
                emitOp(0, false, func_idx);
            }
        }
        b.addi(t9, t9, -1);
        b.bgtz(t9, head);
    }

    void
    emitFunction(int idx)
    {
        using namespace reg;
        b.bind(funcs[static_cast<size_t>(idx)]);
        b.addi(sp, sp, -16);
        b.sw(ra, 12, sp);
        b.sw(s0, 8, sp);
        b.sw(s1, 4, sp);
        b.move(s0, a0);

        const int items = static_cast<int>(rng.range(2, 6));
        for (int i = 0; i < items; ++i) {
            if (rng.chance(0.35)) {
                emitLoop(idx);
            } else {
                emitOp(0, true, idx);
            }
        }
        if (rng.chance(0.5))
            b.out(dataReg());

        // v0 = mix of the argument and a data register.
        b.xor_(v0, s0, dataReg());
        b.lw(s1, 4, sp);
        b.lw(s0, 8, sp);
        b.lw(ra, 12, sp);
        b.addi(sp, sp, 16);
        b.ret();
    }

    Rng rng;
    AsmBuilder b;
    int nfuncs = 0;
    std::vector<AsmBuilder::Label> funcs;
    AsmBuilder::Label scratch = 0;
};

/**
 * Mixed corpus draw for fuzz and fault storms: a seeded, deterministic
 * choice between a structured-random ProgramFuzzer program and a
 * generated workload family with seeded knobs (workloads/generator.hh).
 * Storms thereby also exercise the generator's structural shapes —
 * recursion trees, aliasing streams, software queues, pointer chases,
 * dispatch loops — which the random corpus cannot produce.
 */
inline Program
fuzzCorpusProgram(u64 seed)
{
    Rng pick(seed * 0x9e3779b97f4a7c15ull + 0xC0FFEEull);
    if (pick.below(2) == 0)
        return ProgramFuzzer(seed).generate();
    const auto &fams = genFamilies();
    GenParams p;
    p.family = fams[pick.below(fams.size())].name;
    p.seed = seed;
    p.depth = 2 + static_cast<int>(pick.below(4));
    p.trips = 3 + static_cast<int>(pick.below(12));
    p.entropy = static_cast<int>(pick.below(101));
    p.alias = static_cast<int>(pick.below(101));
    p.units = 6 + static_cast<int>(pick.below(30));
    return buildGenWorkload(p);
}

} // namespace dmt

#endif // DMT_TESTS_FUZZ_CORPUS_HH
