#include "isa/encoding.hh"

#include "common/bitutils.hh"
#include "common/strutil.hh"

namespace dmt
{

namespace
{

enum class Format { R, I, J };

Format
formatOf(Form form)
{
    switch (form) {
      case Form::Jump:
        return Format::J;
      case Form::RRI:
      case Form::RRIU:
      case Form::Lui:
      case Form::Load:
      case Form::Store:
      case Form::Branch:
        return Format::I;
      default:
        return Format::R;
    }
}

/** True when the form's 16-bit immediate is zero-extended. */
bool
zeroExtends(Form form)
{
    return form == Form::RRIU || form == Form::Lui;
}

} // namespace

bool
encodeInst(const Instruction &inst, u32 *word, std::string *err)
{
    const auto fail = [&](const std::string &msg) {
        if (err)
            *err = msg;
        return false;
    };

    const u32 op = static_cast<u32>(inst.op);
    if (op >= static_cast<u32>(kNumOpcodes))
        return fail("bad opcode");
    if (inst.rd >= 32 || inst.rs >= 32 || inst.rt >= 32)
        return fail("register index out of range");

    const Form form = inst.info().form;
    u32 w = insertBits(op, 31, 26);
    switch (formatOf(form)) {
      case Format::R: {
          const bool shift = form == Form::Shift;
          if (shift && (inst.imm < 0 || inst.imm > 31))
              return fail("shift amount out of range");
          if (!shift && inst.imm != 0)
              return fail("R-type carries an immediate");
          w |= insertBits(inst.rd, 25, 21);
          w |= insertBits(inst.rs, 20, 16);
          w |= insertBits(inst.rt, 15, 11);
          w |= insertBits(static_cast<u32>(inst.imm), 10, 0);
          break;
      }
      case Format::I: {
          i32 field = inst.imm;
          if (inst.isCondBranch()) {
              if (field & 3)
                  return fail("branch offset not word aligned");
              field >>= 2;
          }
          if (zeroExtends(form)) {
              if (field < 0 || field > 0xFFFF)
                  return fail(strprintf("logical immediate 0x%x out of "
                                        "range", field));
          } else if (field < -32768 || field > 32767) {
              return fail(strprintf("immediate %d out of range", field));
          }
          // Stores and branches carry their second source in the rd slot.
          const u32 top = (inst.isStore() || inst.isCondBranch())
              ? inst.rt : inst.rd;
          w |= insertBits(top, 25, 21);
          w |= insertBits(inst.rs, 20, 16);
          w |= insertBits(static_cast<u32>(field) & 0xFFFF, 15, 0);
          break;
      }
      case Format::J: {
          const u32 target = static_cast<u32>(inst.imm);
          if (target & 3)
              return fail("jump target not word aligned");
          if ((target >> 2) >= (1u << 26))
              return fail("jump target out of 26-bit range");
          if (inst.op == Opcode::JAL && inst.rd != 31)
              return fail("JAL must link through r31");
          w |= insertBits(target >> 2, 25, 0);
          break;
      }
    }
    *word = w;
    return true;
}

Instruction
decodeInst(u32 word)
{
    const u32 opField = bits(word, 31, 26);
    if (opField >= static_cast<u32>(kNumOpcodes))
        return makeHalt();

    Instruction inst;
    inst.op = static_cast<Opcode>(opField);

    const Form form = inst.info().form;
    switch (formatOf(form)) {
      case Format::R:
        inst.rd = static_cast<LogReg>(bits(word, 25, 21));
        inst.rs = static_cast<LogReg>(bits(word, 20, 16));
        inst.rt = static_cast<LogReg>(bits(word, 15, 11));
        inst.imm = static_cast<i32>(bits(word, 10, 0));
        break;
      case Format::I: {
          const u32 top = bits(word, 25, 21);
          if (inst.isStore() || inst.isCondBranch()) {
              inst.rt = static_cast<LogReg>(top);
          } else {
              inst.rd = static_cast<LogReg>(top);
          }
          inst.rs = static_cast<LogReg>(bits(word, 20, 16));
          const u32 raw = bits(word, 15, 0);
          if (zeroExtends(form)) {
              inst.imm = static_cast<i32>(raw);
          } else {
              inst.imm = signExtend(raw, 16);
          }
          if (inst.isCondBranch())
              inst.imm <<= 2;
          break;
      }
      case Format::J:
        inst.imm = static_cast<i32>(bits(word, 25, 0) << 2);
        if (inst.op == Opcode::JAL)
            inst.rd = 31;
        break;
    }
    return inst;
}

} // namespace dmt
