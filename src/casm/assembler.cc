#include "casm/assembler.hh"

#include <algorithm>
#include <map>

#include "casm/builder.hh"
#include "common/log.hh"
#include "common/strutil.hh"
#include "isa/regs.hh"

namespace dmt
{

std::string
AsmResult::errorText() const
{
    std::string out;
    for (const auto &e : errors)
        out += strprintf("line %d: %s\n", e.line, e.message.c_str());
    return out;
}

namespace
{

/** Parsed form of one source statement. */
struct Statement
{
    int line = 0;
    std::vector<std::string> labels;
    std::string mnemonic;            // lowercased; empty for label-only
    std::vector<std::string> operands;
    std::string stringArg;           // for .asciiz
    bool hasStringArg = false;
};

bool
splitStatement(const std::string &raw, int line_no, Statement *out,
               std::string *err)
{
    std::string s = raw;
    // Strip comments, but not inside string literals.
    bool in_str = false;
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '"' && (i == 0 || s[i - 1] != '\\'))
            in_str = !in_str;
        if (!in_str && (s[i] == '#' || s[i] == ';')) {
            s.resize(i);
            break;
        }
    }

    out->line = line_no;

    std::string_view rest = trim(s);
    // Peel off leading labels.
    while (true) {
        size_t colon = rest.find(':');
        if (colon == std::string_view::npos)
            break;
        std::string_view head = trim(rest.substr(0, colon));
        // A colon inside an operand list (unlikely) would have spaces or
        // commas before it; only treat it as a label if head looks like
        // an identifier.
        bool ident = !head.empty();
        for (char c : head) {
            if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_'
                  || c == '.')) {
                ident = false;
                break;
            }
        }
        if (!ident)
            break;
        out->labels.emplace_back(head);
        rest = trim(rest.substr(colon + 1));
    }

    if (rest.empty())
        return true;

    // Mnemonic is the first whitespace-delimited token.
    size_t sp = rest.find_first_of(" \t");
    out->mnemonic = toLower(rest.substr(0, sp));
    if (sp == std::string_view::npos)
        return true;
    std::string_view ops = trim(rest.substr(sp));

    if (out->mnemonic == ".asciiz") {
        // Single quoted string operand.
        if (ops.size() < 2 || ops.front() != '"' || ops.back() != '"') {
            *err = ".asciiz expects a quoted string";
            return false;
        }
        std::string unescaped;
        for (size_t i = 1; i + 1 < ops.size(); ++i) {
            char c = ops[i];
            if (c == '\\' && i + 2 < ops.size()) {
                ++i;
                switch (ops[i]) {
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case '0': c = '\0'; break;
                  case '\\': c = '\\'; break;
                  case '"': c = '"'; break;
                  default: c = ops[i]; break;
                }
            }
            unescaped.push_back(c);
        }
        out->stringArg = unescaped;
        out->hasStringArg = true;
        return true;
    }

    // Comma-separated operands; memory operands keep their parentheses.
    std::string cur;
    for (char c : ops) {
        if (c == ',') {
            auto t = trim(cur);
            if (!t.empty())
                out->operands.emplace_back(t);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    auto t = trim(cur);
    if (!t.empty())
        out->operands.emplace_back(t);
    return true;
}

using Label = AsmBuilder::Label;
using FixKind = AsmBuilder::FixKind;

/** An operand that may name an address: a literal, or name[+/-N]. */
struct Value
{
    i64 num = 0;        ///< the literal, or the name's addend
    Label label = -1;   ///< the name's label; -1 for a literal
};

/** beqz rs, L is beq rs, $zero, L; a swapped one compares $zero, rs. */
struct PseudoBranch
{
    const char *mnemonic;
    Opcode op;
    bool swap;
};

constexpr PseudoBranch kPseudoBranches[] = {
    {"beqz", Opcode::BEQ, false}, {"bnez", Opcode::BNE, false},
    {"bltz", Opcode::BLT, false}, {"bgez", Opcode::BGE, false},
    {"bgtz", Opcode::BLT, true},  {"blez", Opcode::BGE, true},
};

/** Assembles statements in one pass through an AsmBuilder. */
class Assembler
{
  public:
    AsmResult run(std::string_view source);

  private:
    enum class Segment { Text, Data };

    /** A name in the source, as a builder label bound where the name
     *  is defined. */
    struct Name
    {
        Label label = -1;
        bool defined = false;
        int first_line = 0;         ///< first use, for "cannot evaluate"
        std::string first_text;
    };

    AsmBuilder b;
    std::map<std::string, Name> names;
    std::vector<AsmError> errors;
    Segment seg = Segment::Text;
    std::string entry;
    const Statement *cur = nullptr;

    bool
    err(std::string msg)
    {
        errors.push_back({cur->line, std::move(msg)});
        return false;
    }

    Addr
    pc() const
    {
        return Program::kTextBase + static_cast<Addr>(b.textSize()) * 4;
    }

    Name &named(const std::string &name);
    void define(const std::string &label);
    bool wantOps(size_t n);
    bool reg(size_t i, LogReg *out);
    bool number(size_t i, const char *what, i64 *out);
    bool value(size_t i, Value *out);
    bool memOperand(size_t i, LogReg *base, i32 *offset);
    void emitValue(Instruction inst, FixKind kind, const Value &v);
    void wide(LogReg rd, const Value &v);

    void statement(const Statement &st);
    bool directive();
    bool real(Opcode op);
    bool pseudo();
};

Assembler::Name &
Assembler::named(const std::string &name)
{
    auto [it, fresh] = names.try_emplace(name);
    if (fresh)
        it->second.label = b.newLabel(name);
    return it->second;
}

void
Assembler::define(const std::string &label)
{
    Name &n = named(label);
    if (n.defined) {
        err(strprintf("duplicate label '%s'", label.c_str()));
        return;
    }
    n.defined = true;
    if (seg == Segment::Text)
        b.bind(n.label);
    else
        b.bindData(n.label);
}

bool
Assembler::wantOps(size_t n)
{
    if (cur->operands.size() != n) {
        return err(strprintf("'%s' expects %zu operands, got %zu",
                             cur->mnemonic.c_str(), n,
                             cur->operands.size()));
    }
    return true;
}

bool
Assembler::reg(size_t i, LogReg *out)
{
    if (!parseReg(cur->operands[i], out))
        return err(strprintf("bad register '%s'", cur->operands[i].c_str()));
    return true;
}

/** An operand that can never hold an address: a literal only. */
bool
Assembler::number(size_t i, const char *what, i64 *out)
{
    if (!parseInt(cur->operands[i], out)) {
        return err(strprintf("%s '%s' must be a number", what,
                             cur->operands[i].c_str()));
    }
    return true;
}

bool
Assembler::value(size_t i, Value *out)
{
    const std::string &text = cur->operands[i];
    if (parseInt(text, &out->num))
        return true;
    // name, name+N, name-N
    const size_t pos = text.find_first_of("+-", 1);
    out->num = 0;
    if (pos != std::string::npos && !parseInt(text.substr(pos), &out->num))
        return err(strprintf("cannot evaluate '%s'", text.c_str()));
    Name &n = named(std::string(trim(std::string_view(text).substr(0, pos))));
    if (n.first_line == 0) {
        n.first_line = cur->line;
        n.first_text = text;
    }
    out->label = n.label;
    return true;
}

/** "imm(reg)", "(reg)", or a bare "imm" with base $zero. */
bool
Assembler::memOperand(size_t i, LogReg *base, i32 *offset)
{
    const std::string_view text = cur->operands[i];
    const size_t open = text.find('(');
    const size_t close = text.rfind(')');
    const std::string_view off_text = trim(text.substr(0, open));
    i64 off = 0;
    bool ok = off_text.empty() || parseInt(off_text, &off);
    *base = 0;
    if (open != std::string_view::npos) {
        ok = ok && close != std::string_view::npos && close > open
            && parseReg(text.substr(open + 1, close - open - 1), base);
    }
    if (!ok) {
        return err(strprintf("bad memory operand '%s'",
                             cur->operands[i].c_str()));
    }
    if (off < -32768 || off > 32767)
        return err("memory offset out of range");
    *offset = static_cast<i32>(off);
    return true;
}

/** Emit @p inst with @p v as its immediate: a literal is resolved now,
 *  a name in finish(). */
void
Assembler::emitValue(Instruction inst, FixKind kind, const Value &v)
{
    if (v.label >= 0) {
        b.emitRef(inst, kind, v.label, v.num);
        return;
    }
    inst.imm = static_cast<i32>(kind == FixKind::Branch
                                    ? v.num - static_cast<i64>(pc()) - 4
                                    : v.num);
    b.emit(inst);
}

/** LUI+ORI of @p v into @p rd. */
void
Assembler::wide(LogReg rd, const Value &v)
{
    if (v.label >= 0) {
        b.la(rd, v.label, v.num);
        return;
    }
    const u32 x = static_cast<u32>(v.num);
    b.lui(rd, x >> 16);
    b.ori(rd, rd, x & 0xFFFF);
}

bool
Assembler::directive()
{
    const std::string &m = cur->mnemonic;
    const auto &ops = cur->operands;
    if (m == ".text" || m == ".data") {
        seg = m == ".text" ? Segment::Text : Segment::Data;
        return true;
    }
    if (m == ".entry") {
        if (ops.size() != 1)
            return err(".entry expects one label");
        entry = ops[0];
        return true;
    }
    if (seg != Segment::Data)
        return err(strprintf("data directive '%s' outside .data", m.c_str()));

    i64 n = 0;
    if (m == ".word" || m == ".half" || m == ".byte") {
        // Packed as written: no implicit alignment.
        const int bytes = m == ".word" ? 4 : m == ".half" ? 2 : 1;
        for (size_t i = 0; i < ops.size(); ++i) {
            Value v;
            if (!value(i, &v))
                continue;
            if (v.label >= 0) {
                b.dataRef(bytes, v.label, v.num);
                continue;
            }
            // Signed or unsigned, the value must fit as written.
            const int bits = 8 * bytes;
            if (v.num < -(i64{1} << (bits - 1)) || v.num >= i64{1} << bits) {
                err(strprintf("%s value %lld out of range", m.c_str(),
                              static_cast<long long>(v.num)));
                continue;
            }
            std::vector<u8> le(static_cast<size_t>(bytes));
            for (int k = 0; k < bytes; ++k)
                le[static_cast<size_t>(k)] = static_cast<u8>(v.num >> (8 * k));
            b.dataBytes(le);
        }
    } else if (m == ".space") {
        if (ops.size() != 1 || !parseInt(ops[0], &n) || n < 0)
            return err(".space expects a size");
        b.dataSpace(static_cast<u32>(n));
    } else if (m == ".align") {
        if (ops.size() != 1 || !parseInt(ops[0], &n) || n <= 0)
            return err(".align expects an alignment");
        b.dataAlign(static_cast<u32>(n));
    } else if (m == ".asciiz") {
        std::vector<u8> bytes(cur->stringArg.begin(), cur->stringArg.end());
        bytes.push_back(0);
        b.dataBytes(bytes);
    } else {
        return err(strprintf("unknown directive '%s'", m.c_str()));
    }
    return true;
}

/** A real instruction: its operands follow from the opcode's form. */
bool
Assembler::real(Opcode op)
{
    const OpInfo &info = opInfo(op);
    Instruction inst{op};
    Value v;
    i64 n = 0;
    switch (info.form) {
      case Form::RRR:
        if (!wantOps(3) || !reg(0, &inst.rd) || !reg(1, &inst.rs)
            || !reg(2, &inst.rt)) {
            return false;
        }
        break;
      case Form::RRI:
      case Form::RRIU:
        if (!wantOps(3) || !reg(0, &inst.rd) || !reg(1, &inst.rs)
            || !value(2, &v)) {
            return false;
        }
        if (v.label < 0
            && (info.form == Form::RRIU ? v.num < 0 || v.num > 0xFFFF
                                        : v.num < -32768 || v.num > 32767)) {
            return err(strprintf("immediate %lld out of range",
                                 static_cast<long long>(v.num)));
        }
        emitValue(inst, FixKind::Abs, v);
        return true;
      case Form::Shift:
        if (!wantOps(3) || !reg(0, &inst.rd) || !reg(1, &inst.rs)
            || !number(2, "shift amount", &n)) {
            return false;
        }
        if (n < 0 || n > 31)
            return err("shift amount out of range");
        inst.imm = static_cast<i32>(n);
        break;
      case Form::Lui:
        if (!wantOps(2) || !reg(0, &inst.rd)
            || !number(1, "lui immediate", &n)) {
            return false;
        }
        if (n < 0 || n > 0xFFFF)
            return err("lui immediate out of range");
        inst.imm = static_cast<i32>(n);
        break;
      case Form::Load:
      case Form::Store:
        if (!wantOps(2) || !reg(0, info.isStore ? &inst.rt : &inst.rd)
            || !memOperand(1, &inst.rs, &inst.imm)) {
            return false;
        }
        break;
      case Form::Branch:
        if (!wantOps(3) || !reg(0, &inst.rs) || !reg(1, &inst.rt)
            || !value(2, &v)) {
            return false;
        }
        emitValue(inst, FixKind::Branch, v);
        return true;
      case Form::Jump:
        if (!wantOps(1) || !value(0, &v))
            return false;
        if (info.isCall)
            inst.rd = reg::ra;
        emitValue(inst, FixKind::Abs, v);
        return true;
      case Form::JumpReg:
        if (!info.isCall) {
            if (!wantOps(1) || !reg(0, &inst.rs))
                return false;
        } else if (cur->operands.size() == 1) {
            // jalr rs links through $ra
            inst.rd = reg::ra;
            if (!reg(0, &inst.rs))
                return false;
        } else if (!wantOps(2) || !reg(0, &inst.rd) || !reg(1, &inst.rs)) {
            return false;
        }
        break;
      case Form::Out:
        if (!wantOps(1) || !reg(0, &inst.rs))
            return false;
        break;
      case Form::None:
        if (!wantOps(0))
            return false;
        break;
    }
    b.emit(inst);
    return true;
}

bool
Assembler::pseudo()
{
    const std::string &m = cur->mnemonic;
    LogReg rd;
    LogReg rs;
    Value v;
    i64 n;
    if (m == "li" || m == "la") {
        if (!wantOps(2) || !reg(0, &rd) || !value(1, &v))
            return false;
        // Only a literal li that fits 16 bits, signed or not, is short.
        if (m == "li" && v.label < 0 && v.num >= -32768 && v.num <= 0xFFFF)
            b.li(rd, static_cast<u32>(v.num));
        else
            wide(rd, v);
        return true;
    }
    if (m == "move" || m == "not" || m == "neg") {
        if (!wantOps(2) || !reg(0, &rd) || !reg(1, &rs))
            return false;
        if (m == "move")
            b.move(rd, rs);
        else if (m == "not")
            b.nor_(rd, rs, reg::zero);
        else
            b.sub(rd, reg::zero, rs);
        return true;
    }
    if (m == "subi") {
        if (!wantOps(3) || !reg(0, &rd) || !reg(1, &rs)
            || !number(2, "subi immediate", &n)) {
            return false;
        }
        if (n < -32767 || n > 32768)
            return err("subi immediate out of range");
        b.addi(rd, rs, static_cast<i32>(-n));
        return true;
    }
    if (m == "b" || m == "call") {
        if (!wantOps(1) || !value(0, &v))
            return false;
        if (m == "b")
            emitValue({Opcode::BEQ, 0, reg::zero, reg::zero, 0},
                      FixKind::Branch, v);
        else
            emitValue({Opcode::JAL, reg::ra, 0, 0, 0}, FixKind::Abs, v);
        return true;
    }
    for (const PseudoBranch &pb : kPseudoBranches) {
        if (m != pb.mnemonic)
            continue;
        if (!wantOps(2) || !reg(0, &rs) || !value(1, &v))
            return false;
        emitValue(pb.swap ? Instruction{pb.op, 0, reg::zero, rs, 0}
                          : Instruction{pb.op, 0, rs, reg::zero, 0},
                  FixKind::Branch, v);
        return true;
    }
    if (m == "ret") {
        if (!wantOps(0))
            return false;
        b.ret();
        return true;
    }
    if (m == "push" || m == "pop") {
        if (!wantOps(1) || !reg(0, &rd))
            return false;
        if (m == "push")
            b.push_(rd);
        else
            b.pop_(rd);
        return true;
    }
    return err(strprintf("unknown mnemonic '%s'", m.c_str()));
}

void
Assembler::statement(const Statement &st)
{
    cur = &st;
    for (const auto &label : st.labels)
        define(label);
    if (st.mnemonic.empty())
        return;
    if (st.mnemonic[0] == '.') {
        directive();
        return;
    }
    if (seg != Segment::Text) {
        err("instruction outside .text");
        return;
    }
    for (int i = 0; i < kNumOpcodes; ++i) {
        const Opcode op = static_cast<Opcode>(i);
        if (st.mnemonic == opInfo(op).mnemonic) {
            real(op);
            return;
        }
    }
    pseudo();
}

AsmResult
Assembler::run(std::string_view source)
{
    const auto lines = splitLines(source);
    for (size_t i = 0; i < lines.size(); ++i) {
        const int line = static_cast<int>(i) + 1;
        Statement st;
        std::string perr;
        if (splitStatement(lines[i], line, &st, &perr))
            statement(st);
        else
            errors.push_back({line, perr});
    }
    for (const auto &[name, n] : names) {
        if (!n.defined) {
            errors.push_back({n.first_line,
                              strprintf("cannot evaluate '%s'",
                                        n.first_text.c_str())});
        }
    }
    std::stable_sort(errors.begin(), errors.end(),
                     [](const AsmError &x, const AsmError &y) {
                         return x.line < y.line;
                     });
    const auto e = names.find(entry);
    if (!entry.empty() && (e == names.end() || !e->second.defined)) {
        errors.push_back({0, strprintf("undefined entry label '%s'",
                                       entry.c_str())});
    }

    AsmResult result;
    result.errors = std::move(errors);
    result.ok = result.errors.empty();
    if (result.ok) {
        result.program = b.finish();
        if (!entry.empty())
            result.program.entry = result.program.symbol(entry);
    }
    return result;
}

} // namespace

AsmResult
assembleSource(std::string_view source)
{
    return Assembler().run(source);
}

Program
assembleOrDie(std::string_view source)
{
    AsmResult r = assembleSource(source);
    if (!r.ok)
        fatal("assembly failed:\n%s", r.errorText().c_str());
    return std::move(r.program);
}

} // namespace dmt
