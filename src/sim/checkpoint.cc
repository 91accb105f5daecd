#include "sim/checkpoint.hh"

#include "casm/program.hh"
#include "common/record.hh"
#include "sim/functional_core.hh"

namespace dmt
{

namespace
{

std::string_view
bytesOf(const void *data, size_t n)
{
    return {static_cast<const char *>(data), n};
}

} // namespace

u64
Checkpoint::programHash(const Program &prog)
{
    u64 h = ArchState::kOutHashInit;
    for (const Instruction &inst : prog.text) {
        const u8 fields[4] = {static_cast<u8>(inst.op), inst.rd, inst.rs,
                              inst.rt};
        h = fnv1aHash(bytesOf(fields, sizeof(fields)), h);
        const u32 imm = static_cast<u32>(inst.imm);
        h = fnv1aHash(bytesOf(&imm, sizeof(imm)), h);
    }
    h = fnv1aHash(bytesOf(prog.data.data(), prog.data.size()), h);
    const u32 entry = prog.entry;
    return fnv1aHash(bytesOf(&entry, sizeof(entry)), h);
}

Checkpoint
Checkpoint::capture(const FunctionalCore &core)
{
    return capture(core, programHash(core.program()));
}

Checkpoint
Checkpoint::capture(const FunctionalCore &core, u64 prog_hash)
{
    Checkpoint ck;
    ck.state = core.state();
    ck.mem = core.memory();
    ck.instr_count = core.instrCount();
    ck.prog_hash = prog_hash;
    return ck;
}

} // namespace dmt
