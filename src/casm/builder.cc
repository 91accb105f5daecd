#include "casm/builder.hh"

#include "common/log.hh"

namespace dmt
{

AsmBuilder::Label
AsmBuilder::newLabel(std::string name)
{
    labels.push_back({std::move(name), false, 0});
    return static_cast<Label>(labels.size()) - 1;
}

void
AsmBuilder::bind(Label l)
{
    auto &info = labels.at(static_cast<size_t>(l));
    DMT_ASSERT(!info.bound, "label '%s' bound twice", info.name.c_str());
    info.bound = true;
    info.addr = pcAt(text.size());
}

void
AsmBuilder::bindData(Label l)
{
    auto &info = labels.at(static_cast<size_t>(l));
    DMT_ASSERT(!info.bound, "label '%s' bound twice", info.name.c_str());
    info.bound = true;
    info.addr = dataAddr();
}

Addr
AsmBuilder::dataAddr() const
{
    return Program::kDataBase + static_cast<Addr>(data.size());
}

Addr
AsmBuilder::dataWords(const std::vector<u32> &values)
{
    dataAlign(4);
    const Addr start = dataAddr();
    for (u32 v : values) {
        for (int b = 0; b < 4; ++b)
            data.push_back(static_cast<u8>(v >> (8 * b)));
    }
    return start;
}

Addr
AsmBuilder::dataSpace(u32 n)
{
    const Addr start = dataAddr();
    data.insert(data.end(), n, 0);
    return start;
}

Addr
AsmBuilder::dataBytes(const std::vector<u8> &bytes)
{
    const Addr start = dataAddr();
    data.insert(data.end(), bytes.begin(), bytes.end());
    return start;
}

void
AsmBuilder::dataAlign(u32 n)
{
    DMT_ASSERT(n > 0, "bad alignment");
    while (data.size() % n != 0)
        data.push_back(0);
}

void
AsmBuilder::dataRef(int bytes, Label target, i64 addend)
{
    DMT_ASSERT(bytes == 1 || bytes == 2 || bytes == 4,
               "bad data reference width %d", bytes);
    fixups.push_back({data.size(), target, FixKind::Data, bytes, addend});
    data.insert(data.end(), static_cast<size_t>(bytes), 0);
}

Addr
AsmBuilder::pcAt(size_t idx) const
{
    return Program::kTextBase + static_cast<Addr>(idx) * 4;
}

void
AsmBuilder::emit(Instruction inst)
{
    DMT_ASSERT(!finished, "emit after finish()");
    text.push_back(inst);
}

void
AsmBuilder::emitRef(Instruction inst, FixKind kind, Label target,
                    i64 addend)
{
    DMT_ASSERT(kind != FixKind::Data, "data reference in text");
    fixups.push_back({text.size(), target, kind, 0, addend});
    emit(inst);
}

// ---- ALU ----------------------------------------------------------------

void AsmBuilder::add(LogReg rd, LogReg rs, LogReg rt)
{ emit({Opcode::ADD, rd, rs, rt, 0}); }
void AsmBuilder::sub(LogReg rd, LogReg rs, LogReg rt)
{ emit({Opcode::SUB, rd, rs, rt, 0}); }
void AsmBuilder::and_(LogReg rd, LogReg rs, LogReg rt)
{ emit({Opcode::AND, rd, rs, rt, 0}); }
void AsmBuilder::or_(LogReg rd, LogReg rs, LogReg rt)
{ emit({Opcode::OR, rd, rs, rt, 0}); }
void AsmBuilder::xor_(LogReg rd, LogReg rs, LogReg rt)
{ emit({Opcode::XOR, rd, rs, rt, 0}); }
void AsmBuilder::nor_(LogReg rd, LogReg rs, LogReg rt)
{ emit({Opcode::NOR, rd, rs, rt, 0}); }
void AsmBuilder::slt(LogReg rd, LogReg rs, LogReg rt)
{ emit({Opcode::SLT, rd, rs, rt, 0}); }
void AsmBuilder::sltu(LogReg rd, LogReg rs, LogReg rt)
{ emit({Opcode::SLTU, rd, rs, rt, 0}); }
void AsmBuilder::mul(LogReg rd, LogReg rs, LogReg rt)
{ emit({Opcode::MUL, rd, rs, rt, 0}); }
void AsmBuilder::mulh(LogReg rd, LogReg rs, LogReg rt)
{ emit({Opcode::MULH, rd, rs, rt, 0}); }
void AsmBuilder::div_(LogReg rd, LogReg rs, LogReg rt)
{ emit({Opcode::DIV, rd, rs, rt, 0}); }
void AsmBuilder::divu(LogReg rd, LogReg rs, LogReg rt)
{ emit({Opcode::DIVU, rd, rs, rt, 0}); }
void AsmBuilder::rem(LogReg rd, LogReg rs, LogReg rt)
{ emit({Opcode::REM, rd, rs, rt, 0}); }
void AsmBuilder::remu(LogReg rd, LogReg rs, LogReg rt)
{ emit({Opcode::REMU, rd, rs, rt, 0}); }

void
AsmBuilder::sll(LogReg rd, LogReg rs, int shamt)
{
    DMT_ASSERT(shamt >= 0 && shamt < 32, "bad shift amount %d", shamt);
    emit({Opcode::SLL, rd, rs, 0, shamt});
}

void
AsmBuilder::srl(LogReg rd, LogReg rs, int shamt)
{
    DMT_ASSERT(shamt >= 0 && shamt < 32, "bad shift amount %d", shamt);
    emit({Opcode::SRL, rd, rs, 0, shamt});
}

void
AsmBuilder::sra(LogReg rd, LogReg rs, int shamt)
{
    DMT_ASSERT(shamt >= 0 && shamt < 32, "bad shift amount %d", shamt);
    emit({Opcode::SRA, rd, rs, 0, shamt});
}

void AsmBuilder::sllv(LogReg rd, LogReg rs, LogReg rt)
{ emit({Opcode::SLLV, rd, rs, rt, 0}); }
void AsmBuilder::srlv(LogReg rd, LogReg rs, LogReg rt)
{ emit({Opcode::SRLV, rd, rs, rt, 0}); }
void AsmBuilder::srav(LogReg rd, LogReg rs, LogReg rt)
{ emit({Opcode::SRAV, rd, rs, rt, 0}); }

void AsmBuilder::addi(LogReg rd, LogReg rs, i32 imm)
{ emit({Opcode::ADDI, rd, rs, 0, imm}); }
void AsmBuilder::andi(LogReg rd, LogReg rs, u32 imm)
{ emit({Opcode::ANDI, rd, rs, 0, static_cast<i32>(imm & 0xFFFF)}); }
void AsmBuilder::ori(LogReg rd, LogReg rs, u32 imm)
{ emit({Opcode::ORI, rd, rs, 0, static_cast<i32>(imm & 0xFFFF)}); }
void AsmBuilder::xori(LogReg rd, LogReg rs, u32 imm)
{ emit({Opcode::XORI, rd, rs, 0, static_cast<i32>(imm & 0xFFFF)}); }
void AsmBuilder::slti(LogReg rd, LogReg rs, i32 imm)
{ emit({Opcode::SLTI, rd, rs, 0, imm}); }
void AsmBuilder::sltiu(LogReg rd, LogReg rs, i32 imm)
{ emit({Opcode::SLTIU, rd, rs, 0, imm}); }
void AsmBuilder::lui(LogReg rd, u32 imm16)
{ emit({Opcode::LUI, rd, 0, 0, static_cast<i32>(imm16 & 0xFFFF)}); }

// ---- memory ---------------------------------------------------------------

void AsmBuilder::lw(LogReg rd, i32 off, LogReg base)
{ emit({Opcode::LW, rd, base, 0, off}); }
void AsmBuilder::lh(LogReg rd, i32 off, LogReg base)
{ emit({Opcode::LH, rd, base, 0, off}); }
void AsmBuilder::lhu(LogReg rd, i32 off, LogReg base)
{ emit({Opcode::LHU, rd, base, 0, off}); }
void AsmBuilder::lb(LogReg rd, i32 off, LogReg base)
{ emit({Opcode::LB, rd, base, 0, off}); }
void AsmBuilder::lbu(LogReg rd, i32 off, LogReg base)
{ emit({Opcode::LBU, rd, base, 0, off}); }
void AsmBuilder::sw(LogReg rt, i32 off, LogReg base)
{ emit({Opcode::SW, 0, base, rt, off}); }
void AsmBuilder::sh(LogReg rt, i32 off, LogReg base)
{ emit({Opcode::SH, 0, base, rt, off}); }
void AsmBuilder::sb(LogReg rt, i32 off, LogReg base)
{ emit({Opcode::SB, 0, base, rt, off}); }

// ---- control ----------------------------------------------------------------

void AsmBuilder::beq(LogReg rs, LogReg rt, Label t)
{ emitRef({Opcode::BEQ, 0, rs, rt, 0}, FixKind::Branch, t); }
void AsmBuilder::bne(LogReg rs, LogReg rt, Label t)
{ emitRef({Opcode::BNE, 0, rs, rt, 0}, FixKind::Branch, t); }
void AsmBuilder::blt(LogReg rs, LogReg rt, Label t)
{ emitRef({Opcode::BLT, 0, rs, rt, 0}, FixKind::Branch, t); }
void AsmBuilder::bge(LogReg rs, LogReg rt, Label t)
{ emitRef({Opcode::BGE, 0, rs, rt, 0}, FixKind::Branch, t); }
void AsmBuilder::bltu(LogReg rs, LogReg rt, Label t)
{ emitRef({Opcode::BLTU, 0, rs, rt, 0}, FixKind::Branch, t); }
void AsmBuilder::bgeu(LogReg rs, LogReg rt, Label t)
{ emitRef({Opcode::BGEU, 0, rs, rt, 0}, FixKind::Branch, t); }

void AsmBuilder::beqz(LogReg rs, Label t) { beq(rs, reg::zero, t); }
void AsmBuilder::bnez(LogReg rs, Label t) { bne(rs, reg::zero, t); }
void AsmBuilder::bltz(LogReg rs, Label t) { blt(rs, reg::zero, t); }
void AsmBuilder::bgez(LogReg rs, Label t) { bge(rs, reg::zero, t); }
void AsmBuilder::bgtz(LogReg rs, Label t) { blt(reg::zero, rs, t); }
void AsmBuilder::blez(LogReg rs, Label t) { bge(reg::zero, rs, t); }
void AsmBuilder::b(Label t) { beq(reg::zero, reg::zero, t); }

void AsmBuilder::j(Label t)
{ emitRef({Opcode::J, 0, 0, 0, 0}, FixKind::Abs, t); }
void AsmBuilder::jal(Label t)
{ emitRef({Opcode::JAL, reg::ra, 0, 0, 0}, FixKind::Abs, t); }

void AsmBuilder::jr(LogReg rs) { emit({Opcode::JR, 0, rs, 0, 0}); }
void AsmBuilder::jalr(LogReg rs) { emit({Opcode::JALR, reg::ra, rs, 0, 0}); }
void AsmBuilder::ret() { jr(reg::ra); }

// ---- pseudo / misc -----------------------------------------------------------

void
AsmBuilder::li(LogReg rd, u32 value)
{
    const i32 sval = static_cast<i32>(value);
    if (sval >= -32768 && sval <= 32767) {
        addi(rd, reg::zero, sval);
    } else if (value <= 0xFFFF) {
        ori(rd, reg::zero, value);
    } else {
        lui(rd, value >> 16);
        ori(rd, rd, value & 0xFFFF);
    }
}

void
AsmBuilder::la(LogReg rd, Label label, i64 addend)
{
    emitRef({Opcode::LUI, rd, 0, 0, 0}, FixKind::LuiHi, label, addend);
    emitRef({Opcode::ORI, rd, rd, 0, 0}, FixKind::OriLo, label, addend);
}

void AsmBuilder::move(LogReg rd, LogReg rs) { add(rd, rs, reg::zero); }
void AsmBuilder::nop() { emit(makeNop()); }
void AsmBuilder::halt() { emit(makeHalt()); }
void AsmBuilder::out(LogReg rs) { emit({Opcode::OUT, 0, rs, 0, 0}); }

void
AsmBuilder::push_(LogReg rs)
{
    addi(reg::sp, reg::sp, -4);
    sw(rs, 0, reg::sp);
}

void
AsmBuilder::pop_(LogReg rd)
{
    lw(rd, 0, reg::sp);
    addi(reg::sp, reg::sp, 4);
}

void
AsmBuilder::enter(int frame_bytes)
{
    DMT_ASSERT(frame_bytes >= 4 && frame_bytes % 4 == 0,
               "bad frame size %d", frame_bytes);
    addi(reg::sp, reg::sp, -frame_bytes);
    sw(reg::ra, frame_bytes - 4, reg::sp);
}

void
AsmBuilder::leave(int frame_bytes)
{
    DMT_ASSERT(frame_bytes >= 4 && frame_bytes % 4 == 0,
               "bad frame size %d", frame_bytes);
    lw(reg::ra, frame_bytes - 4, reg::sp);
    addi(reg::sp, reg::sp, frame_bytes);
    ret();
}

Program
AsmBuilder::finish()
{
    DMT_ASSERT(!finished, "finish() called twice");
    finished = true;

    for (const auto &fix : fixups) {
        const auto &info = labels.at(static_cast<size_t>(fix.label));
        if (!info.bound) {
            fatal("unbound label %d ('%s')", fix.label,
                  info.name.c_str());
        }
        const i64 target = static_cast<i64>(info.addr) + fix.addend;
        const u32 addr = static_cast<u32>(target);
        if (fix.kind == FixKind::Data) {
            for (int b = 0; b < fix.bytes; ++b)
                data.at(fix.at + static_cast<size_t>(b)) =
                    static_cast<u8>(addr >> (8 * b));
            continue;
        }
        Instruction &inst = text.at(fix.at);
        switch (fix.kind) {
          case FixKind::Branch:
            inst.imm = static_cast<i32>(
                target - static_cast<i64>(pcAt(fix.at)) - 4);
            break;
          case FixKind::Abs:
            inst.imm = static_cast<i32>(addr);
            break;
          case FixKind::LuiHi:
            inst.imm = static_cast<i32>(addr >> 16);
            break;
          case FixKind::OriLo:
            inst.imm = static_cast<i32>(addr & 0xFFFF);
            break;
          case FixKind::Data:
            break;
        }
    }

    Program prog;
    prog.text = std::move(text);
    prog.data = std::move(data);
    prog.entry = Program::kTextBase;
    for (const auto &info : labels) {
        if (info.bound && !info.name.empty())
            prog.symbols[info.name] = info.addr;
    }
    return prog;
}

} // namespace dmt
