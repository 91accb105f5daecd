/**
 * @file
 * Architectural checkpoints: a snapshot of functional machine state —
 * registers, PC, OUT-stream digest, sparse memory pages — plus the
 * retired-instruction position it corresponds to.  A checkpoint is
 * everything a detailed DmtEngine (or another FunctionalCore) needs to
 * resume mid-stream, so a phase window's is shared by every sweep cell
 * over its workload.  Checkpoints live in memory only; each carries
 * the hash of the program image (text, data, entry) it was taken
 * from, and an engine refuses to resume one against another image.
 * Its memory shares pages copy-on-write with the core it was taken
 * from and with every engine, checker fork or core resumed from it
 * (sim/mainmem.hh): capture and resume copy one pointer per page, and
 * a page is cloned only when one of them first writes it.
 */

#ifndef DMT_SIM_CHECKPOINT_HH
#define DMT_SIM_CHECKPOINT_HH

#include "sim/arch_state.hh"
#include "sim/mainmem.hh"

namespace dmt
{

class FunctionalCore;
class Program;

/** Resumable architectural snapshot at a retired-instruction count. */
struct Checkpoint
{
    ArchState state;
    MainMemory mem;
    /** Instructions retired before this state (the resume position). */
    u64 instr_count = 0;
    /** programHash() of the image this snapshot belongs to. */
    u64 prog_hash = 0;

    /** FNV-1a digest of a program image (text + data + entry). */
    static u64 programHash(const Program &prog);

    /** Snapshot a functional core's current architectural state. */
    static Checkpoint capture(const FunctionalCore &core);

    /** capture() for a caller that already holds programHash() of the
     *  core's program, which costs a pass over the data segment. */
    static Checkpoint capture(const FunctionalCore &core, u64 prog_hash);
};

} // namespace dmt

#endif // DMT_SIM_CHECKPOINT_HH
