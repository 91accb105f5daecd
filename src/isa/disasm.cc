#include "isa/disasm.hh"

#include "common/strutil.hh"
#include "isa/regs.hh"

namespace dmt
{

std::string
disassemble(const Instruction &inst, Addr pc)
{
    const OpInfo &info = inst.info();
    const char *m = info.mnemonic;
    // Only the fields the form carries are named: the others may hold
    // anything.
    const auto rd = [&] { return regName(inst.rd); };
    const auto rs = [&] { return regName(inst.rs); };
    const auto rt = [&] { return regName(inst.rt); };

    switch (info.form) {
      case Form::RRR:
        return strprintf("%s %s, %s, %s", m, rd().c_str(), rs().c_str(),
                         rt().c_str());
      case Form::RRI:
      case Form::RRIU:
      case Form::Shift:
        return strprintf("%s %s, %s, %d", m, rd().c_str(), rs().c_str(),
                         inst.imm);
      case Form::Lui:
        return strprintf("%s %s, 0x%x", m, rd().c_str(), inst.imm);
      case Form::Load:
        return strprintf("%s %s, %d(%s)", m, rd().c_str(), inst.imm,
                         rs().c_str());
      case Form::Store:
        return strprintf("%s %s, %d(%s)", m, rt().c_str(), inst.imm,
                         rs().c_str());
      case Form::Branch:
        return strprintf("%s %s, %s, 0x%x", m, rs().c_str(), rt().c_str(),
                         inst.branchTarget(pc));
      case Form::Jump:
        return strprintf("%s 0x%x", m, inst.jumpTarget());
      case Form::JumpReg:
        if (info.isCall)
            return strprintf("%s %s, %s", m, rd().c_str(), rs().c_str());
        return strprintf("%s %s", m, rs().c_str());
      case Form::Out:
        return strprintf("%s %s", m, rs().c_str());
      case Form::None:
        break;
    }
    return m;
}

} // namespace dmt
