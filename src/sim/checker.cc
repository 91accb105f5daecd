#include "sim/checker.hh"

#include "casm/program.hh"
#include "common/strutil.hh"
#include "isa/disasm.hh"

namespace dmt
{

GoldenChecker::GoldenChecker(const Program &prog_,
                             const ArchState &state_, const MainMemory &mem_)
    : prog(prog_), state(state_), mem(mem_)
{
}

bool
GoldenChecker::onRetire(const RetireRecord &rec)
{
    if (!ok())
        return false;

    const auto fail = [&](const std::string &what, u64 want, u64 got) {
        error_ = strprintf(
            "golden mismatch at retired #%llu pc=0x%x (%s): %s: "
            "expected 0x%llx, got 0x%llx",
            static_cast<unsigned long long>(verified_), rec.pc,
            disassemble(prog.fetch(rec.pc), rec.pc).c_str(), what.c_str(),
            static_cast<unsigned long long>(want),
            static_cast<unsigned long long>(got));
        return false;
    };

    if (state.halted)
        return fail("retire after golden HALT", 0, rec.pc);
    if (state.pc != rec.pc)
        return fail("control flow (pc)", state.pc, rec.pc);

    const StepResult golden = functionalStep(state, mem, prog);

    if (golden.dest != rec.dest) {
        return fail("destination register",
                    static_cast<u64>(static_cast<i64>(golden.dest)),
                    static_cast<u64>(static_cast<i64>(rec.dest)));
    }
    if (golden.dest >= 0 && golden.dest_val != rec.dest_val)
        return fail("result value", golden.dest_val, rec.dest_val);
    if (golden.is_store != rec.is_store)
        return fail("store-ness", golden.is_store, rec.is_store);
    if (golden.is_store) {
        if (golden.mem_addr != rec.mem_addr)
            return fail("store address", golden.mem_addr, rec.mem_addr);
        if (golden.store_val != rec.store_val)
            return fail("store value", golden.store_val, rec.store_val);
    }
    if (golden.emitted_out != rec.emitted_out)
        return fail("OUT emission", golden.emitted_out, rec.emitted_out);
    if (golden.emitted_out && golden.out_val != rec.out_val)
        return fail("OUT value", golden.out_val, rec.out_val);

    ++verified_;
    return true;
}

} // namespace dmt
