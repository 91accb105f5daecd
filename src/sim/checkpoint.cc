#include "sim/checkpoint.hh"

#include "casm/program.hh"
#include "common/record.hh"
#include "sim/functional_core.hh"

namespace dmt
{

namespace
{

/** Record magic: the format version.  A change rejects (and rebuilds)
 *  every older file rather than misreading it. */
constexpr char kMagic[8] = {'D', 'M', 'T', 'C', 'K', 'P', 'T', '2'};

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

bool
Checkpoint::save(const std::string &path) const
{
    // The program hash is the record key, so it is not repeated here.
    std::string buf;
    buf.reserve(256 + mem.numPages() * (MainMemory::kPageSize + 4));
    putLe64(&buf, instr_count);
    putLe32(&buf, state.pc);
    putLe32(&buf, state.halted ? 1 : 0);
    for (const u32 r : state.regs)
        putLe32(&buf, r);
    putLe64(&buf, state.out_count);
    putLe64(&buf, state.out_hash);
    putLe32(&buf, static_cast<u32>(state.output.size()));
    for (const u32 v : state.output)
        putLe32(&buf, v);
    putLe32(&buf, static_cast<u32>(mem.numPages()));
    mem.forEachPage([&](u32 idx, const u8 *bytes) {
        putLe32(&buf, idx);
        buf.append(bytesOf(bytes, MainMemory::kPageSize));
    });
    return writeRecord(path, kMagic, prog_hash, buf);
}

bool
Checkpoint::load(const std::string &path, u64 expect_prog_hash,
                 Checkpoint *out, std::string *err)
{
    const auto fail = [&](const std::string &why) {
        if (err)
            *err = path + ": " + why;
        return false;
    };

    std::string buf, why;
    switch (readRecord(path, kMagic, expect_prog_hash, &buf, &why)) {
      case RecordRead::Missing:
        return fail("cannot open");
      case RecordRead::Rejected:
        return fail(why);
      case RecordRead::Ok:
        break;
    }

    ByteReader rd{reinterpret_cast<const u8 *>(buf.data()), buf.size()};
    Checkpoint ck;
    ck.prog_hash = expect_prog_hash;
    u32 halted = 0, out_n = 0, page_n = 0;
    if (!rd.u64At(&ck.instr_count) || !rd.u32At(&ck.state.pc)
        || !rd.u32At(&halted))
        return fail("truncated header");
    ck.state.halted = halted != 0;
    for (u32 &r : ck.state.regs) {
        if (!rd.u32At(&r))
            return fail("truncated registers");
    }
    if (!rd.u64At(&ck.state.out_count) || !rd.u64At(&ck.state.out_hash)
        || !rd.u32At(&out_n))
        return fail("truncated output digest");
    ck.state.output.resize(out_n);
    for (u32 &v : ck.state.output) {
        if (!rd.u32At(&v))
            return fail("truncated output stream");
    }
    if (!rd.u32At(&page_n))
        return fail("truncated page count");
    for (u32 i = 0; i < page_n; ++i) {
        u32 idx;
        if (!rd.u32At(&idx) || rd.left < MainMemory::kPageSize)
            return fail("truncated page data");
        ck.mem.setPageRaw(idx, rd.p);
        rd.p += MainMemory::kPageSize;
        rd.left -= MainMemory::kPageSize;
    }
    if (rd.left != 0)
        return fail("trailing bytes");

    *out = std::move(ck);
    return true;
}

} // namespace dmt
