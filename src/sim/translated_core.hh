/**
 * @file
 * Superblock-translated fast-forward engine: a threaded-code
 * execution core in the style of Valgrind's per-block translate →
 * cache → chain pipeline.
 *
 * functionalStep() pays a per-instruction decode-and-dispatch tax: an
 * opcode-class switch, an out-of-line aluCompute() call with its own
 * opcode switch, a hash-map page walk per memory access and a full
 * StepResult.  TranslatedCore amortizes all of that once per *block*:
 * superblocks are discovered at runtime by straight-line decode from
 * the entry PC across direct jumps and calls (J/JAL are inlined with
 * tail duplication) to the first indirect or otherwise unresolvable
 * transfer (or a length cap), translated into a dense array of
 * pre-resolved micro-op records — operands folded to register indices
 * and immediates, shift amounts pre-masked, LUI/link values
 * pre-computed, memory ops pre-classified into per-width handlers —
 * and executed by a computed-goto dispatch loop (a GNU extension that
 * GCC and Clang both support).
 *
 * Translations live in a cache keyed by block start index in the text
 * segment and are never dropped: a core holds at most one block per
 * text instruction, so the cache is bounded by the program it runs.
 * Direct block→block successors — jump targets, taken-branch side
 * exits, fall-throughs — are chained on first use so hot loops run
 * block to block with zero per-instruction dispatch overhead; indirect
 * transfers (JR/JALR) resolve through a flat PC-indexed block table —
 * one bounds check and one load, monomorphic or megamorphic alike.
 *
 * Determinism contract: execution is bit-for-bit identical to stepping
 * functionalStep() the same distance — registers, sparse-page memory
 * (absent pages are never allocated by loads), OUT stream, PC, halt
 * flag and executed-instruction count, including exact mid-block stops
 * when an instruction budget runs out (the dispatch loop retires the
 * budget per instruction, so a run() can stop anywhere a checkpoint
 * needs it).  tests/test_translated.cc enforces this differentially
 * across the conformance scenario matrix.
 */

#ifndef DMT_SIM_TRANSLATED_CORE_HH
#define DMT_SIM_TRANSLATED_CORE_HH

#include <vector>

#include "casm/program.hh"
#include "sim/arch_state.hh"
#include "sim/mainmem.hh"

namespace dmt
{

class BbvCollector;

/** Translation-cache and dispatch telemetry. */
struct TranslationStats
{
    u64 blocks_translated = 0; ///< translate() calls
    u64 chain_hits = 0;     ///< direct-exit transfers through a live link
    u64 chain_misses = 0;   ///< direct-exit transfers needing a lookup
    u64 indirect_hits = 0;   ///< JR/JALR flat-table dispatches
    u64 indirect_misses = 0; ///< JR/JALR targets not yet translated
    u64 blocks_executed = 0;
    u64 instrs_executed = 0;

    TranslationStats &operator+=(const TranslationStats &o);
    TranslationStats operator-(const TranslationStats &o) const;
};

/**
 * Translate-and-execute engine over one immutable Program.  Holds no
 * architectural state of its own: run() advances the caller's
 * ArchState/MainMemory, so checkpoint restore and reset need no
 * translator involvement and cached blocks survive both.
 */
class TranslatedCore
{
  public:
    /** Superblock length cap (instructions) before a fall-through
     *  transfer closes the block. */
    static constexpr u32 kMaxBlockLen = 256;

    /** Bind to @p prog (kept by reference — must outlive the core). */
    explicit TranslatedCore(const Program &prog);

    /**
     * Execute up to @p max_instr instructions from state.pc, exactly
     * like stepping functionalStep(); stops early at HALT or when the
     * PC leaves the text segment.
     *
     * With @p bbv attached, every taken control transfer — block-exit
     * jumps and branches plus the J/JAL ops inlined into superblocks —
     * reports (target, instructions since the previous boundary) to
     * the collector, and the trailing run is flushed on exit; see
     * sim/bbv.hh for the cross-engine contract.  Collection is a
     * per-transfer delta off the existing budget counter, so the
     * per-instruction dispatch path is untouched.
     *
     * @return instructions actually executed.
     */
    u64 run(ArchState &state, MainMemory &mem, u64 max_instr,
            BbvCollector *bbv = nullptr);

    const TranslationStats &stats() const { return stats_; }

  private:
    /** One pre-resolved execution record (see translated_core.cc). */
    struct MicroOp
    {
        u32 imm;  ///< folded immediate / shift amount / link value
        u32 aux;  ///< next PC for sequential ops; exit index / own PC
                  ///< for block-ending control ops (see translate())
        /** Handler label for computed-goto dispatch, resolved at
         *  translation time so dispatch is a single dependent load
         *  before the indirect jump. */
        const void *handler;
        u8 kind;  ///< Opcode value, or a synthetic kind (GOTO, inlined
                  ///< J/JAL) past kNumOpcodes
        u8 rd;    ///< destination slot (kNumLogRegs = r0 write dump);
                  ///< taken-exit index for conditional branches
        u8 rs;
        u8 rt;
    };

    /** One control-flow edge out of a block.  A chained transfer jumps
     *  straight through pre-resolved pointers into the target block
     *  (code == nullptr means unchained); blocks are never dropped, so
     *  a link stays valid for the life of the core and the hot path
     *  carries no liveness check.  Pointers into a Block's vectors stay
     *  valid across blocks_ growth because vector moves keep the heap
     *  buffers, and translated blocks are never resized in place. */
    struct alignas(32) Exit
    {
        const MicroOp *code = nullptr; ///< chained target block entry
        const Exit *exits = nullptr;   ///< chained target exit table
        /** Chained target's first handler label, duplicated out of
         *  code[0] so a taken transfer resolves its indirect jump
         *  after ONE load from this (already hot) Exit instead of the
         *  dependent pair code → code->handler; that shaves a load
         *  latency off every host-mispredicted transfer, which is
         *  where branch-heavy guests spend their time. */
        const void *entry = nullptr;
        Addr target_pc = 0; ///< folded target
    }; // 32 bytes, aligned: a taken transfer touches one line

    struct Block
    {
        std::vector<MicroOp> code;
        std::vector<Exit> exits;
    };

    /** Pre-resolved entry pointers for one translated block, ready to
     *  load straight into the dispatch cursors. */
    struct alignas(32) TargetRef
    {
        const MicroOp *code = nullptr; ///< null: not translated
        const Exit *exits = nullptr;
        const void *entry = nullptr; ///< code[0]'s handler (see Exit)
    }; // 32 bytes: an indirect dispatch loads exactly one line

    static constexpr u32 kNoPage = ~u32{0};
    static constexpr u32 kTlbEntries = 16;
    static constexpr Addr kPageMask = MainMemory::kPageSize - 1;

    /** Entry pointers of the block starting at text index
     *  @p start_idx, translated on first use. */
    const TargetRef &lookupOrTranslate(u32 start_idx);
    u32 addExit(Block *b, Addr target);

    const u8 *readPage(const MainMemory &mem, Addr ea);
    u8 *writePage(MainMemory &mem, Addr ea);

    const Program &prog_;
    /** Handler label table exported by run() before the first
     *  translation (computed labels are function-scope). */
    const void *const *labels_ = nullptr;
    /** Translated blocks, at most one per text index. */
    std::vector<Block> blocks_;
    /** Block start index (PC-derived) → entry pointers, code == null
     *  when absent.  A flat text-sized table rather than a hash map:
     *  lookups sit on the indirect-jump miss path (where they make a
     *  predictor miss almost as cheap as a hit), and text segments are
     *  small.  The program image is immutable for the life of the
     *  core, so start-PC keying is content keying. */
    std::vector<TargetRef> idx2block_;
    TranslationStats stats_;

    /** Direct-mapped page-pointer caches, rebuilt per run() so a
     *  checkpoint restore() can swap the memory image freely.  Within
     *  a run() no one copies the memory, so a page stays private once
     *  written; writePage() refreshes the read slot of the page it
     *  makes writable, because that write may have cloned a shared
     *  page away from the block the read slot still names. */
    struct TlbR { u32 page = kNoPage; const u8 *base = nullptr; };
    struct TlbW { u32 page = kNoPage; u8 *base = nullptr; };
    TlbR rtlb_[kTlbEntries];
    TlbW wtlb_[kTlbEntries];
};

} // namespace dmt

#endif // DMT_SIM_TRANSLATED_CORE_HH
