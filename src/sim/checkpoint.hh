/**
 * @file
 * Architectural checkpoints: a snapshot of functional machine state —
 * registers, PC, OUT-stream digest, sparse memory pages — plus the
 * retired-instruction position it corresponds to.  A checkpoint is
 * everything a detailed DmtEngine (or another FunctionalCore) needs to
 * resume mid-stream, so a phase window's is shared by every sweep cell
 * over its workload and — through the binary save/load format and a
 * checkpoint directory — any window's across simulator invocations.
 *
 * A saved checkpoint is one checksummed record (common/record.hh): a
 * magic/version, the hash of the program image (text, data, entry) as
 * the record key, and an FNV-1a footer over the payload.  A file taken
 * against a different program version, torn by a crash or corrupted
 * by a single flipped bit refuses to load, so the caller rebuilds the
 * checkpoint instead of silently resuming nonsense state.
 */

#ifndef DMT_SIM_CHECKPOINT_HH
#define DMT_SIM_CHECKPOINT_HH

#include <string>

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

    /**
     * Write the checkpoint to @p path (binary, atomic via temp-file +
     * rename so concurrent sweep workers never observe a torn file).
     * @return false (with a warn()) when the file cannot be written.
     */
    bool save(const std::string &path) const;

    /**
     * Load a checkpoint, validating magic, version, program hash and
     * the payload's integrity footer.
     * @return false when the file is missing, torn, corrupted, of a
     *         different format version, or taken against a different
     *         program; @p err (optional) receives the reason.
     */
    static bool load(const std::string &path, u64 expect_prog_hash,
                     Checkpoint *out, std::string *err = nullptr);
};

} // namespace dmt

#endif // DMT_SIM_CHECKPOINT_HH
