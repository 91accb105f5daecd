#include "dmt/trace_buffer.hh"

namespace dmt
{

TBEntry &
TraceBuffer::append(const Instruction &inst, Addr pc)
{
    DMT_ASSERT(!full(), "append to full trace buffer");

    // Reset the slot from a constant fresh entry: that is plain
    // vector moves, where assigning TBEntry{} builds a zeroed
    // temporary on the stack and copies it in.
    static constexpr TBEntry kFresh{};
    const u64 id = endId();
    TBEntry &entry = store_[slotOf(id)];
    entry = kFresh;
    entry.id = id;
    entry.inst = inst;
    entry.pc = pc;

    // Trace-buffer rename: map register sources to the thread-local
    // last writer, or to the thread input register file.
    const int nsrc = inst.numSrcs();
    for (int i = 0; i < nsrc; ++i) {
        const LogReg r = inst.src(i);
        if (r == 0)
            continue; // r0 reads as constant zero, no dependency
        u64 writer;
        if (lastWriter(r, &writer)) {
            // The producer may already have finally retired (only for
            // the head thread); readers then take the architectural
            // retirement value.  SrcRef keeps the id either way.
            entry.src[i] = SrcRef{SrcRef::TbEntry, r, writer};
        } else {
            entry.src[i] = SrcRef{SrcRef::ThreadInput, r, 0};
        }
    }

    const int dest = inst.effectiveDest();
    if (dest >= 0) {
        entry.has_dest = true;
        entry.dest = static_cast<LogReg>(dest);
        last_writer_[entry.dest] = id;
        has_writer[entry.dest] = 1;
    }

    ++count_;
    ++total_appended;
    return entry;
}

} // namespace dmt
