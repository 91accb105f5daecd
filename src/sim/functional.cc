#include "sim/functional.hh"

#include "casm/program.hh"
#include "common/log.hh"

namespace dmt
{

StepResult
functionalStep(ArchState &state, MainMemory &mem, const Program &prog)
{
    StepResult r;
    r.pc = state.pc;

    if (!prog.validTextAddr(state.pc)) {
        r.inst = makeHalt();
        r.halted = true;
        state.halted = true;
        r.next_pc = state.pc;
        return r;
    }

    const Instruction &inst = prog.fetch(state.pc);
    r.inst = inst;
    Addr next_pc = state.pc + 4;

    const u32 rs_val = state.reg(inst.rs);
    const u32 rt_val = state.reg(inst.rt);

    switch (opInfo(inst.op).opClass) {
      case OpClass::IntAlu:
      case OpClass::IntMul:
      case OpClass::IntDiv: {
          const u32 v = aluCompute(inst, rs_val, rt_val);
          state.setReg(inst.rd, v);
          if (inst.effectiveDest() >= 0) {
              r.dest = inst.effectiveDest();
              r.dest_val = v;
          }
          break;
      }
      case OpClass::MemRead: {
          r.is_load = true;
          r.mem_addr = memEffectiveAddr(inst, rs_val);
          r.mem_bytes = inst.memBytes();
          const u32 v = mem.read(r.mem_addr, r.mem_bytes,
                                 inst.memSigned());
          state.setReg(inst.rd, v);
          if (inst.effectiveDest() >= 0) {
              r.dest = inst.effectiveDest();
              r.dest_val = v;
          }
          break;
      }
      case OpClass::MemWrite: {
          r.is_store = true;
          r.mem_addr = memEffectiveAddr(inst, rs_val);
          r.mem_bytes = inst.memBytes();
          r.store_val = rt_val;
          mem.write(r.mem_addr, r.mem_bytes, rt_val);
          break;
      }
      case OpClass::Control: {
          switch (inst.op) {
            case Opcode::J:
              next_pc = inst.jumpTarget();
              break;
            case Opcode::JAL:
              state.setReg(inst.rd, state.pc + 4);
              r.dest = inst.effectiveDest();
              r.dest_val = state.pc + 4;
              next_pc = inst.jumpTarget();
              break;
            case Opcode::JR:
              next_pc = rs_val;
              break;
            case Opcode::JALR:
              // Read rs before the (possibly aliasing) link write.
              next_pc = rs_val;
              state.setReg(inst.rd, state.pc + 4);
              if (inst.effectiveDest() >= 0) {
                  r.dest = inst.effectiveDest();
                  r.dest_val = state.pc + 4;
              }
              break;
            default:
              if (branchTaken(inst, rs_val, rt_val))
                  next_pc = inst.branchTarget(state.pc);
              break;
          }
          break;
      }
      case OpClass::Other:
        if (inst.op == Opcode::HALT) {
            r.halted = true;
            state.halted = true;
            next_pc = state.pc;
        } else if (inst.op == Opcode::OUT) {
            r.emitted_out = true;
            r.out_val = rs_val;
            state.emitOut(rs_val);
        }
        break;
    }

    r.next_pc = next_pc;
    state.pc = next_pc;
    return r;
}

u64
runFunctional(ArchState &state, MainMemory &mem, const Program &prog,
              u64 max_steps)
{
    u64 steps = 0;
    while (!state.halted) {
        functionalStep(state, mem, prog);
        if (++steps >= max_steps) {
            // Throwing (not exiting) lets sweeps treat a runaway
            // functional prefix as one failed cell, like any other
            // contained SimError.
            panic("functional run exceeded %llu steps",
                  static_cast<unsigned long long>(max_steps));
        }
    }
    return steps;
}

} // namespace dmt
