#include "isa/inst.hh"

namespace dmt
{

const char *
mnemonic(Opcode op)
{
    return opInfo(op).mnemonic;
}

int
Instruction::memBytes() const
{
    switch (op) {
      case Opcode::LW:
      case Opcode::SW:
        return 4;
      case Opcode::LH:
      case Opcode::LHU:
      case Opcode::SH:
        return 2;
      case Opcode::LB:
      case Opcode::LBU:
      case Opcode::SB:
        return 1;
      default:
        return 0;
    }
}

bool
Instruction::memSigned() const
{
    return op == Opcode::LB || op == Opcode::LH;
}

Instruction
makeNop()
{
    return Instruction{};
}

Instruction
makeHalt()
{
    Instruction i;
    i.op = Opcode::HALT;
    return i;
}

} // namespace dmt
