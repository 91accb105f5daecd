#include "workloads/generator.hh"

#include <algorithm>

#include "casm/builder.hh"
#include "common/env.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/strutil.hh"

namespace dmt
{

using namespace reg;

namespace
{

// ---- knob plumbing -----------------------------------------------------

struct KnobRange
{
    const char *key;
    int GenParams::*field;
    int lo;
    int hi;
};

/** Alphabetical by key — the canonicalSpec() rendering order. */
constexpr KnobRange kKnobs[] = {
    {"alias", &GenParams::alias, 0, 100},
    {"depth", &GenParams::depth, 1, 10},
    {"entropy", &GenParams::entropy, 0, 100},
    {"trips", &GenParams::trips, 1, 100000},
    {"units", &GenParams::units, 1, 65536},
};

/** Split preserving empty fields (splitFields() drops them, which
 *  would let "gen::5" or "gen:loopnest::3" parse as valid). */
std::vector<std::string>
splitExact(std::string_view s, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    for (size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            out.emplace_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

int
familyIndex(std::string_view name)
{
    const auto &fams = genFamilies();
    for (size_t i = 0; i < fams.size(); ++i) {
        if (name == fams[i].name)
            return static_cast<int>(i);
    }
    return -1;
}

// ---- shared emission helpers ------------------------------------------

/** Per-family deterministic RNG: the spec is the only entropy source. */
Rng
specRng(const GenParams &p)
{
    // splitmix64 scrambles thoroughly; mixing in the family index keeps
    // gen:calltree:7 and gen:loopnest:7 structurally unrelated.
    return Rng(p.seed * 0x9e3779b97f4a7c15ull
               + static_cast<u64>(familyIndex(p.family)) * 0x1000193);
}

/** Percentage -> threshold against an 8-bit uniform draw (0..256). */
u32
pctThreshold(int pct)
{
    return static_cast<u32>((pct * 256 + 50) / 100);
}

/** In-program xorshift32 step on @p state (nonzero stays nonzero). */
void
emitXorshift(AsmBuilder &b, LogReg state, LogReg tmp)
{
    b.sll(tmp, state, 13);
    b.xor_(state, state, tmp);
    b.srl(tmp, state, 17);
    b.xor_(state, state, tmp);
    b.sll(tmp, state, 5);
    b.xor_(state, state, tmp);
}

/**
 * cond = ((state >> shift) & 255) < thr_reg.  With a well-mixed state
 * the branch on @p cond fires with probability thr/256 — the knob that
 * turns an entropy/alias percentage into data-dependent control flow.
 */
void
emitByteBelow(AsmBuilder &b, LogReg cond, LogReg state, int shift,
              LogReg thr_reg)
{
    if (shift > 0)
        b.srl(cond, state, shift);
    else
        b.move(cond, state);
    b.andi(cond, cond, 255);
    b.sltu(cond, cond, thr_reg);
}

/** Nonzero 32-bit PRNG seed for the program's xorshift register. */
u32
progSeed(Rng &r)
{
    return r.next32() | 1u;
}

// ---- family: calltree --------------------------------------------------
//
// Seeded recursive tree walk: `units` rounds call walk(depth, x).
// Each non-leaf level always recurses once and takes a *second*
// recursive call with probability `entropy` (data-dependent), so
// entropy sweeps the shape from a call chain to a full binary tree —
// exactly the call-depth/frequency axis DMT spawn prediction cares
// about.  `alias` is the fraction of frames that spill/reload through
// a 16-word shared area, creating cross-frame memory dependences.

Program
genCalltree(const GenParams &p)
{
    Rng r = specRng(p);
    AsmBuilder b;
    const auto shared = b.newLabel("shared");
    b.bindData(shared);
    b.dataSpace(64);

    const auto walk = b.newLabel("walk");
    const auto round = b.newLabel();

    b.la(s7, shared);
    b.li(s6, pctThreshold(p.entropy));
    b.li(s5, pctThreshold(p.alias));
    b.li(s0, 0);                              // acc
    b.li(s1, static_cast<u32>(p.units));      // rounds
    b.li(s2, progSeed(r));                    // PRNG
    b.bind(round);
    b.li(a0, static_cast<u32>(p.depth));
    b.move(a1, s2);
    b.jal(walk);
    b.add(s0, s0, v0);
    emitXorshift(b, s2, t0);
    b.addi(s1, s1, -1);
    b.bgtz(s1, round);
    b.out(s0);
    // Shared-area checksum so the spill traffic is architecturally
    // visible.
    const auto ck = b.newLabel();
    b.li(t0, 0);
    b.li(t1, 0);
    b.bind(ck);
    b.sll(t2, t0, 2);
    b.add(t2, t2, s7);
    b.lw(t3, 0, t2);
    b.xor_(t1, t1, t3);
    b.addi(t0, t0, 1);
    b.slti(t4, t0, 16);
    b.bnez(t4, ck);
    b.out(t1);
    b.halt();

    // walk(d = a0, x = a1) -> v0.  Clobbers t-regs; preserves s-regs.
    b.bind(walk);
    const auto rec = b.newLabel();
    const auto skip2 = b.newLabel();
    const auto nospill = b.newLabel();
    b.bnez(a0, rec);
    b.sll(v0, a1, 1);                         // leaf: mix(x)
    b.xor_(v0, v0, a1);
    b.addi(v0, v0, 13);
    b.ret();

    b.bind(rec);
    b.addi(sp, sp, -16);
    b.sw(ra, 12, sp);
    b.sw(s0, 8, sp);
    b.sw(s1, 4, sp);
    b.move(s0, a0);                           // d
    b.move(s1, a1);                           // x
    b.addi(a0, s0, -1);
    b.xori(a1, s1, 0x5bdu);
    b.jal(walk);
    emitByteBelow(b, t0, s1, 0, s6);          // entropy: second call?
    b.beqz(t0, skip2);
    b.sw(v0, 0, sp);                          // keep first result
    b.addi(a0, s0, -1);
    b.add(a1, s1, v0);
    b.jal(walk);
    b.lw(t1, 0, sp);
    b.add(v0, v0, t1);
    b.bind(skip2);
    b.add(v0, v0, s0);
    emitByteBelow(b, t2, s1, 8, s5);          // alias: spill frame?
    b.beqz(t2, nospill);
    b.andi(t3, s1, 60);                       // shared slot 0..15
    b.add(t3, t3, s7);
    b.sw(v0, 0, t3);
    b.lw(t4, 0, t3);
    b.add(v0, v0, t4);
    b.bind(nospill);
    b.lw(s1, 4, sp);
    b.lw(s0, 8, sp);
    b.lw(ra, 12, sp);
    b.addi(sp, sp, 16);
    b.ret();
    return b.finish();
}

// ---- family: loopnest --------------------------------------------------
//
// `units` x `trips` nest with a multiplicative loop-carried dependence
// on the accumulator.  Every inner iteration issues one memory access
// whose slot is hot (first 2 words) with probability `alias`, else
// spread over a 64-word buffer; stores and loads alternate by
// iteration parity.  An `entropy` hammock adds data-dependent extra
// work, perturbing the loop body's branch behaviour.

Program
genLoopnest(const GenParams &p)
{
    Rng r = specRng(p);
    AsmBuilder b;
    const auto buf = b.newLabel("buf");
    b.bindData(buf);
    b.dataSpace(256);

    b.la(s7, buf);
    b.li(s6, pctThreshold(p.entropy));
    b.li(s5, pctThreshold(p.alias));
    b.li(s4, progSeed(r));                    // PRNG
    b.li(s0, 0);                              // acc
    b.li(t8, static_cast<u32>(p.units));      // outer bound
    b.li(t9, static_cast<u32>(p.trips));      // inner bound
    b.li(s1, 0);                              // i
    const auto outer = b.newLabel();
    const auto inner = b.newLabel();
    const auto do_load = b.newLabel();
    const auto mem_done = b.newLabel();
    const auto no_extra = b.newLabel();
    b.bind(outer);
    b.li(s2, 0);                              // j
    b.bind(inner);
    b.sll(t0, s0, 1);                         // acc = acc*3 ^ (i+j)
    b.add(s0, t0, s0);
    b.add(t1, s1, s2);
    b.xor_(s0, s0, t1);
    emitXorshift(b, s4, t0);
    // Slot select: hot window with probability `alias`.
    emitByteBelow(b, t2, s4, 0, s5);
    b.srl(t3, s4, 8);
    b.andi(t3, t3, 252);                      // cold: 64-word spread
    b.sll(t4, t2, 31);
    b.sra(t4, t4, 31);                        // t4 = hot ? ~0 : 0
    b.andi(t5, s4, 4);                        // hot: slot 0 or 1
    b.and_(t5, t5, t4);
    b.nor_(t4, t4, zero);
    b.and_(t3, t3, t4);
    b.or_(t3, t3, t5);
    b.add(t3, t3, s7);
    b.andi(t6, s2, 1);                        // odd j loads, even stores
    b.bnez(t6, do_load);
    b.sw(s0, 0, t3);
    b.b(mem_done);
    b.bind(do_load);
    b.lw(t7, 0, t3);
    b.add(s0, s0, t7);
    b.bind(mem_done);
    emitByteBelow(b, t0, s4, 16, s6);         // entropy hammock
    b.beqz(t0, no_extra);
    b.mul(t1, s0, s2);
    b.xor_(s0, s0, t1);
    b.bind(no_extra);
    b.addi(s2, s2, 1);
    b.blt(s2, t9, inner);
    b.addi(s1, s1, 1);
    b.blt(s1, t8, outer);
    b.out(s0);
    const auto ck = b.newLabel();
    b.li(t0, 0);
    b.li(t1, 0);
    b.bind(ck);
    b.sll(t2, t0, 2);
    b.add(t2, t2, s7);
    b.lw(t3, 0, t2);
    b.xor_(t1, t1, t3);
    b.addi(t0, t0, 1);
    b.slti(t4, t0, 64);
    b.bnez(t4, ck);
    b.out(t1);
    b.halt();
    return b.finish();
}

// ---- family: branchy ---------------------------------------------------
//
// `trips` iterations over min(units, 32) static branch sites.  Each
// site's taken probability is the `entropy` percentage with a seeded
// per-site skew, so one program mixes near-deterministic and coin-flip
// branches the way the paper's branchy integer codes do.

Program
genBranchy(const GenParams &p)
{
    Rng r = specRng(p);
    AsmBuilder b;
    const int sites = std::min(p.units, 32);

    b.li(s4, progSeed(r));                    // PRNG
    b.li(s0, 0);                              // acc
    b.li(s1, static_cast<u32>(p.trips));      // iterations
    b.li(s2, 0);                              // taken count
    const auto loop = b.newLabel();
    b.bind(loop);
    for (int i = 0; i < sites; ++i) {
        emitXorshift(b, s4, t0);
        // Seeded per-site skew of +-25 around the entropy threshold.
        const int skew = static_cast<int>(r.range(-25, 25));
        const int thr = std::clamp(
            static_cast<int>(pctThreshold(p.entropy)) + skew, 0, 256);
        const auto skip = b.newLabel();
        b.andi(t1, s4, 255);
        b.li(t2, static_cast<u32>(thr));
        b.sltu(t1, t1, t2);
        b.beqz(t1, skip);
        b.addi(s2, s2, 1);
        switch (r.below(3)) {
          case 0:
            b.xor_(s0, s0, s4);
            break;
          case 1:
            b.add(s0, s0, s2);
            break;
          default:
            b.sll(t3, s0, 1);
            b.xor_(s0, t3, s0);
            break;
        }
        b.bind(skip);
    }
    b.addi(s1, s1, -1);
    b.bgtz(s1, loop);
    b.out(s0);
    b.out(s2);
    b.halt();
    return b.finish();
}

// ---- family: alias -----------------------------------------------------
//
// Mixed-width store/load traffic over a `units`-word buffer.  With
// probability `alias` an access lands in the hot 32-byte window
// (dense forwarding and dependence violations); otherwise it spreads
// over the whole buffer.  Byte stores under word loads exercise
// partial-overlap forwarding, the LSQ's hardest case.

Program
genAlias(const GenParams &p)
{
    Rng r = specRng(p);
    AsmBuilder b;
    // Power-of-two word count so slot selection is a mask.  Clamped to
    // [16, 4096]: the mask is an andi immediate and must encode in 16
    // bits ((4096-1)<<2 = 0x3FFC).
    u32 words = 16;
    while (words < 4096 && words * 2 <= static_cast<u32>(p.units))
        words *= 2;
    const auto buf = b.newLabel("buf");
    b.bindData(buf);
    b.dataSpace(words * 4);

    b.la(s7, buf);
    b.li(s5, pctThreshold(p.alias));
    b.li(s4, progSeed(r));
    b.li(s0, 0);                              // acc
    b.li(s1, static_cast<u32>(p.trips));      // iterations
    const auto loop = b.newLabel();
    const auto cold = b.newLabel();
    const auto addr_done = b.newLabel();
    b.bind(loop);
    emitXorshift(b, s4, t0);
    emitByteBelow(b, t1, s4, 0, s5);
    b.beqz(t1, cold);
    b.srl(t2, s4, 8);
    b.andi(t2, t2, 28);                       // hot: 8 words
    b.b(addr_done);
    b.bind(cold);
    b.srl(t2, s4, 8);
    b.andi(t2, t2, (words - 1) << 2);         // cold: whole buffer
    b.bind(addr_done);
    b.add(t2, t2, s7);
    // Word store, narrow readback (contained forwards).
    b.sw(s4, 0, t2);
    b.lbu(t3, 1, t2);
    b.lhu(t4, 2, t2);
    b.add(s0, s0, t3);
    b.add(s0, s0, t4);
    // Byte store under the word, full-word readback (partial overlap).
    b.sb(s1, 2, t2);
    b.lw(t5, 0, t2);
    b.xor_(s0, s0, t5);
    b.addi(s1, s1, -1);
    b.bgtz(s1, loop);
    b.out(s0);
    b.halt();
    return b.finish();
}

// ---- family: prodcons --------------------------------------------------
//
// Producer-consumer over a 16-slot ring with head/tail indices kept in
// memory: the producer bursts min(trips, 12) items, the consumer
// drains the same burst, and the round repeats until ~`units` items
// have flowed.  Index loads depend on the previous round's index
// stores — the serialized inter-"thread" communication pattern of a
// software queue.

Program
genProdcons(const GenParams &p)
{
    Rng r = specRng(p);
    AsmBuilder b;
    const auto ring = b.newLabel("ring");
    b.bindData(ring);
    b.dataSpace(16 * 4 + 8);                  // slots, head, tail

    const int burst = std::min(p.trips, 12);
    const int rounds = std::max(1, p.units / burst);

    b.la(s7, ring);
    b.li(s4, progSeed(r));
    b.li(s0, 0);                              // acc
    b.li(s1, static_cast<u32>(rounds));
    const auto round = b.newLabel();
    const auto produce = b.newLabel();
    const auto consume = b.newLabel();
    b.bind(round);
    // Produce `burst` items.
    b.li(s2, static_cast<u32>(burst));
    b.bind(produce);
    emitXorshift(b, s4, t0);
    b.lw(t1, 68, s7);                         // tail
    b.andi(t2, t1, 15);
    b.sll(t2, t2, 2);
    b.add(t2, t2, s7);
    b.add(t3, s4, t1);                        // item value
    b.sw(t3, 0, t2);
    b.addi(t1, t1, 1);
    b.sw(t1, 68, s7);
    b.addi(s2, s2, -1);
    b.bgtz(s2, produce);
    // Consume `burst` items.
    b.li(s2, static_cast<u32>(burst));
    b.bind(consume);
    b.lw(t1, 64, s7);                         // head
    b.andi(t2, t1, 15);
    b.sll(t2, t2, 2);
    b.add(t2, t2, s7);
    b.lw(t3, 0, t2);
    b.add(t4, t3, t1);
    b.xor_(s0, s0, t4);
    b.addi(t1, t1, 1);
    b.sw(t1, 64, s7);
    b.addi(s2, s2, -1);
    b.bgtz(s2, consume);
    b.addi(s1, s1, -1);
    b.bgtz(s1, round);
    b.out(s0);
    b.lw(t0, 64, s7);
    b.out(t0);                                // items consumed
    b.halt();
    return b.finish();
}

// ---- family: ptrchase --------------------------------------------------
//
// `units` 8-byte nodes linked into one seeded permutation cycle; the
// walk takes `trips` dependent-load steps.  Every next-pointer load
// feeds the following address — the serial pointer-chasing dependence
// chain where lookahead, not width, decides performance.

Program
genPtrchase(const GenParams &p)
{
    Rng r = specRng(p);
    AsmBuilder b;
    const u32 n = static_cast<u32>(p.units);

    // Seeded single-cycle permutation via Fisher-Yates.
    std::vector<u32> order(n);
    for (u32 i = 0; i < n; ++i)
        order[i] = i;
    for (u32 i = n - 1; i > 0; --i)
        std::swap(order[i], order[r.below(i + 1)]);

    const Addr base = b.dataAddr() + Program::kDataBase;
    std::vector<u32> words(2 * n);
    for (u32 i = 0; i < n; ++i) {
        const u32 node = order[i];
        const u32 succ = order[(i + 1) % n];
        words[2 * node] = r.next32() & 0xFFFF;          // value
        words[2 * node + 1] = base + 8 * succ;          // next
    }
    const auto nodes = b.newLabel("nodes");
    b.bindData(nodes);
    b.dataWords(words);

    b.la(t1, nodes);                          // cursor (first node)
    b.li(t2, static_cast<u32>(p.trips));      // steps
    b.li(s2, 0);                              // acc
    const auto chase = b.newLabel();
    b.bind(chase);
    b.lw(t3, 0, t1);
    b.add(s2, s2, t3);
    b.lw(t1, 4, t1);                          // address-forming load
    b.addi(t2, t2, -1);
    b.bgtz(t2, chase);
    b.out(s2);
    b.halt();
    return b.finish();
}

// ---- family: evloop ----------------------------------------------------
//
// Event-loop dispatch: `units` precomputed event codes drive a
// compare-chain dispatcher that calls one of four handler procedures
// per event (the call-per-step structure of m88ksim/perl).  `entropy`
// skews the code distribution from all-handler-0 (perfectly
// predictable dispatch) to uniform; handlers below the `alias`
// percentile bank into one shared cell, the rest into private cells.

Program
genEvloop(const GenParams &p)
{
    Rng r = specRng(p);
    AsmBuilder b;
    constexpr int kHandlers = 4;

    std::vector<u32> codes(static_cast<size_t>(p.units));
    for (u32 &c : codes) {
        // With probability `entropy`, a uniform handler; else 0.
        c = r.below(256) < pctThreshold(p.entropy)
                ? static_cast<u32>(r.below(kHandlers)) : 0u;
    }
    const auto events = b.newLabel("events");
    b.bindData(events);
    b.dataWords(codes);
    const auto cells = b.newLabel("cells");
    b.bindData(cells);
    b.dataSpace(kHandlers * 4 + 4);           // private cells + shared

    std::vector<AsmBuilder::Label> handlers;
    for (int i = 0; i < kHandlers; ++i)
        handlers.push_back(b.newLabel());

    b.la(s0, events);
    b.la(s7, cells);
    b.li(s1, static_cast<u32>(p.units));
    b.li(s2, 0);                              // acc
    const auto loop = b.newLabel();
    const auto next = b.newLabel();
    b.bind(loop);
    b.lw(t0, 0, s0);
    for (int i = 0; i < kHandlers - 1; ++i) {
        const auto not_i = b.newLabel();
        b.addi(t1, t0, -i);
        b.bnez(t1, not_i);
        b.jal(handlers[static_cast<size_t>(i)]);
        b.b(next);
        b.bind(not_i);
    }
    b.jal(handlers[kHandlers - 1]);
    b.bind(next);
    b.addi(s0, s0, 4);
    b.addi(s1, s1, -1);
    b.bgtz(s1, loop);
    b.out(s2);
    const auto ck = b.newLabel();
    b.li(t0, 0);
    b.li(t1, 0);
    b.bind(ck);
    b.sll(t2, t0, 2);
    b.add(t2, t2, s7);
    b.lw(t3, 0, t2);
    b.xor_(t1, t1, t3);
    b.addi(t0, t0, 1);
    b.slti(t4, t0, kHandlers + 1);
    b.bnez(t4, ck);
    b.out(t1);
    b.halt();

    // Leaf handlers: mutate acc and a memory cell, no frame needed.
    for (int i = 0; i < kHandlers; ++i) {
        b.bind(handlers[static_cast<size_t>(i)]);
        const bool shared = (i * 100) / kHandlers < p.alias;
        const i32 cell_off = shared ? kHandlers * 4 : i * 4;
        b.lw(t2, cell_off, s7);
        b.addi(t3, t2, 3 + 2 * i);
        b.sw(t3, cell_off, s7);
        switch (i) {
          case 0:
            b.add(s2, s2, t3);
            break;
          case 1:
            b.xor_(s2, s2, t3);
            break;
          case 2:
            b.sll(t4, s2, 1);
            b.add(s2, t4, t3);
            break;
          default:
            b.sub(s2, s2, t3);
            break;
        }
        b.ret();
    }
    return b.finish();
}

using FamilyBuilder = Program (*)(const GenParams &);

struct FamilyEntry
{
    GenFamilyInfo info;
    FamilyBuilder build;
};

const std::vector<FamilyEntry> &
familyTable()
{
    static const std::vector<FamilyEntry> table = {
        {{"calltree", "seeded recursive call tree",
          "depth, entropy (2nd-call rate), alias (frame spills), units"},
         &genCalltree},
        {{"loopnest", "loop nest with carried dependence",
          "units x trips, entropy (hammock), alias (hot-slot rate)"},
         &genLoopnest},
        {{"branchy", "skewed data-dependent branch field",
          "trips, units (sites, <=32), entropy (taken rate)"},
         &genBranchy},
        {{"alias", "mixed-width aliasing store/load stream",
          "trips, units (buffer words), alias (hot-window rate)"},
         &genAlias},
        {{"prodcons", "producer-consumer ring queue",
          "units (items), trips (burst, <=12)"},
         &genProdcons},
        {{"ptrchase", "seeded pointer-chasing cycle",
          "units (nodes), trips (steps)"},
         &genPtrchase},
        {{"evloop", "event-loop handler dispatch",
          "units (events), entropy (code skew), alias (shared cell)"},
         &genEvloop},
    };
    return table;
}

} // namespace

const std::vector<GenFamilyInfo> &
genFamilies()
{
    static const std::vector<GenFamilyInfo> infos = [] {
        std::vector<GenFamilyInfo> v;
        for (const FamilyEntry &e : familyTable())
            v.push_back(e.info);
        return v;
    }();
    return infos;
}

std::string
GenParams::canonicalSpec() const
{
    std::string s = strprintf("gen:%s:%llu", family.c_str(),
                              static_cast<unsigned long long>(seed));
    for (const KnobRange &k : kKnobs)
        s += strprintf(":%s=%d", k.key, this->*(k.field));
    return s;
}

bool
isGenSpec(std::string_view name)
{
    return trim(name).substr(0, 4) == "gen:";
}

bool
parseGenSpec(std::string_view spec, GenParams *out, std::string *err)
{
    std::string scratch;
    std::string &e = err ? *err : scratch;
    *out = GenParams{};

    const std::string_view body = trim(spec);
    const std::vector<std::string> fields = splitExact(body, ':');
    if (fields.size() < 3 || fields[0] != "gen") {
        e = "workload spec must be gen:<family>:<seed>[:knob=value...]";
        return false;
    }
    if (familyIndex(fields[1]) < 0) {
        std::string known;
        for (const GenFamilyInfo &f : genFamilies()) {
            if (!known.empty())
                known += ", ";
            known += f.name;
        }
        e = "unknown workload family \"" + fields[1] + "\" (families: "
            + known + ")";
        return false;
    }
    out->family = fields[1];
    if (!parseU64(fields[2], &out->seed)) {
        e = "bad seed \"" + fields[2] + "\" (need a decimal integer)";
        return false;
    }

    bool seen[std::size(kKnobs)] = {};
    for (size_t i = 3; i < fields.size(); ++i) {
        const std::string &f = fields[i];
        const size_t eq = f.find('=');
        if (eq == std::string::npos || eq == 0) {
            e = "bad knob \"" + f + "\" (need knob=value)";
            return false;
        }
        const std::string key = f.substr(0, eq);
        const std::string val = f.substr(eq + 1);
        size_t ki = 0;
        for (; ki < std::size(kKnobs); ++ki) {
            if (key == kKnobs[ki].key)
                break;
        }
        if (ki == std::size(kKnobs)) {
            e = "unknown knob \"" + key
                + "\" (knobs: alias, depth, entropy, trips, units)";
            return false;
        }
        if (seen[ki]) {
            e = "duplicate knob \"" + key + "\"";
            return false;
        }
        seen[ki] = true;
        u64 v = 0;
        if (!parseU64(val, &v)) {
            e = "knob " + key + ": bad value \"" + val
                + "\" (need a decimal integer)";
            return false;
        }
        const KnobRange &k = kKnobs[ki];
        if (v < static_cast<u64>(k.lo) || v > static_cast<u64>(k.hi)) {
            e = strprintf("knob %s=%llu out of range [%d, %d]", k.key,
                          static_cast<unsigned long long>(v), k.lo,
                          k.hi);
            return false;
        }
        out->*(k.field) = static_cast<int>(v);
    }
    return true;
}

Program
buildGenWorkload(const GenParams &params)
{
    for (const FamilyEntry &e : familyTable()) {
        if (params.family == e.info.name)
            return e.build(params);
    }
    fatal("unknown workload family '%s'", params.family.c_str());
}

Program
buildGenWorkload(const std::string &spec)
{
    GenParams p;
    std::string err;
    if (!parseGenSpec(spec, &p, &err))
        fatal("workload spec \"%s\": %s", spec.c_str(), err.c_str());
    return buildGenWorkload(p);
}

} // namespace dmt
