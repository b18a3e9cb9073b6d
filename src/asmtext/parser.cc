#include "asmtext/parser.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <tuple>

#include "asmtext/lex.h"

namespace lfi::asmtext {

namespace {

using arch::AddrMode;
using arch::Cond;
using arch::Extend;
using arch::FpSize;
using arch::Inst;
using arch::Mn;
using arch::Reg;
using arch::Shift;
using arch::VReg;
using arch::Width;
using namespace lex;

// ----- Operand-level token model -----

// A parsed operand, classified.
struct Operand {
  enum class Kind : uint8_t {
    kReg,      // x0 / w3 / sp / wsp / xzr / wzr
    kVReg,     // s0 / d4 / q2 / v1.4s / v1.2d
    kImm,      // #123 / 123 / #-8 / #0x10
    kMem,      // [ ... ] possibly with ! ; post-index imm handled by caller
    kShift,    // lsl #3 / lsr #1 / asr #2 / ror #4
    kExtend,   // uxtw / sxtw #2 / ...
    kLo12,     // :lo12:sym
    kLabel,    // bare identifier (also condition codes)
  };
  Kind kind = Kind::kLabel;
  Reg reg;
  Width reg_width = Width::kX;
  VReg vreg;
  FpSize fsize = FpSize::kD;
  int64_t imm = 0;
  // Memory sub-operands (flattened; Kind::kMem only).
  Reg mem_base;
  enum class OffKind : uint8_t { kNone, kImm, kReg, kLo12 };
  OffKind off_kind = OffKind::kNone;
  int64_t off_imm = 0;
  Reg off_reg;
  Width off_width = Width::kX;
  enum class ExtKind : uint8_t { kNone, kShift, kExtend };
  ExtKind ext_kind = ExtKind::kNone;
  bool writeback = false;
  // Shift/extend payload.
  Shift shift = Shift::kLsl;
  Extend ext = Extend::kUxtx;
  std::optional<int64_t> amount;
  // Symbol payload (kLabel, kLo12): a view into the source line.
  std::string_view sym;
};

// Operand tokens per line; no instruction takes more than five.
constexpr size_t kMaxOperands = 8;

// The operands of one line, in a fixed array. One spare slot lets the
// cmp/cmn/tst aliases prepend their zero register.
class Operands {
 public:
  size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  const Operand& operator[](size_t k) const { return v_[k]; }
  void clear() { n_ = 0; }
  Operand& push_back() {
    v_[n_] = Operand{};
    return v_[n_++];
  }
  void push_front(const Operand& op) {
    std::copy_backward(v_.begin(), v_.begin() + n_, v_.begin() + n_ + 1);
    v_[0] = op;
    ++n_;
  }

 private:
  std::array<Operand, kMaxOperands + 1> v_;
  size_t n_ = 0;
};

// ----- Mnemonics -----

// How a mnemonic's operands become an instruction (see BuildInst).
enum class Form : uint8_t {
  kAdd, kAddSub, kCmp, kLogical, kTst, kNeg, kMov, kMovWide, kShiftAlias,
  kExtendAlias, kBitfield, kMul, kReg3, kCcmp, kExtr, kRor, kCsel, kCset,
  kUnary, kAdr, kLoadStore, kPair, kExclusive, kStxr, kBranch, kIndirect,
  kRet, kFp3, kFsqrt, kFmadd, kFcmp, kScvtf, kFcvtzs, kFmov, kNop, kTrap,
  kRtcall, kHostcall,
};

// `arg` flags of kAddSub/kCmp.
constexpr uint8_t kSub = 1, kSetFlags = 2;
// `arg` flag of kLoadStore (the rest of `arg` is the access size).
constexpr uint8_t kSigned = 0x80;

struct Mnemonic {
  std::string_view name;
  Form form;
  Mn mn;              // the instruction built
  Mn alt = Mn::kNop;  // immediate (kLogical, kCcmp) or vector (kFp3) form
  // kAddSub/kCmp: kSub | kSetFlags; kLoadStore: access size | kSigned;
  // kShiftAlias: 1 for lsl; kExtendAlias: imms; kMul: operand count.
  uint8_t arg = 0;
};

// Sorted by name for binary search.
constexpr Mnemonic kMnemonics[] = {
    {"add", Form::kAdd, Mn::kAddImm},
    {"adds", Form::kAddSub, Mn::kAddImm, Mn::kNop, kSetFlags},
    {"adr", Form::kAdr, Mn::kAdr}, {"adrp", Form::kAdr, Mn::kAdrp},
    {"and", Form::kLogical, Mn::kAndReg, Mn::kAndImm},
    {"ands", Form::kLogical, Mn::kAndsReg, Mn::kAndsImm},
    {"asr", Form::kShiftAlias, Mn::kSbfm}, {"b", Form::kBranch, Mn::kB},
    {"bic", Form::kLogical, Mn::kBicReg}, {"bl", Form::kBranch, Mn::kBl},
    {"blr", Form::kIndirect, Mn::kBlr}, {"br", Form::kIndirect, Mn::kBr},
    {"brk", Form::kTrap, Mn::kBrk}, {"cbnz", Form::kBranch, Mn::kCbnz},
    {"cbz", Form::kBranch, Mn::kCbz},
    {"ccmn", Form::kCcmp, Mn::kCcmn, Mn::kCcmnImm},
    {"ccmp", Form::kCcmp, Mn::kCcmp, Mn::kCcmpImm},
    {"clz", Form::kUnary, Mn::kClz},
    {"cmn", Form::kCmp, Mn::kAddImm, Mn::kNop, kSetFlags},
    {"cmp", Form::kCmp, Mn::kAddImm, Mn::kNop, kSub | kSetFlags},
    {"csel", Form::kCsel, Mn::kCsel}, {"cset", Form::kCset, Mn::kCsinc},
    {"csinc", Form::kCsel, Mn::kCsinc}, {"csinv", Form::kCsel, Mn::kCsinv},
    {"csneg", Form::kCsel, Mn::kCsneg},
    {"eor", Form::kLogical, Mn::kEorReg, Mn::kEorImm},
    {"extr", Form::kExtr, Mn::kExtr},
    {"fadd", Form::kFp3, Mn::kFadd, Mn::kVFadd},
    {"fcmp", Form::kFcmp, Mn::kFcmp}, {"fcvtzs", Form::kFcvtzs, Mn::kFcvtzs},
    {"fdiv", Form::kFp3, Mn::kFdiv}, {"fmadd", Form::kFmadd, Mn::kFmadd},
    {"fmov", Form::kFmov, Mn::kFmov},
    {"fmul", Form::kFp3, Mn::kFmul, Mn::kVFmul},
    {"fsqrt", Form::kFsqrt, Mn::kFsqrt}, {"fsub", Form::kFp3, Mn::kFsub},
    {"hostcall", Form::kHostcall, Mn::kNop},
    {"ldar", Form::kExclusive, Mn::kLdar}, {"ldp", Form::kPair, Mn::kLdp},
    {"ldr", Form::kLoadStore, Mn::kLdr},
    {"ldrb", Form::kLoadStore, Mn::kLdr, Mn::kNop, 1},
    {"ldrh", Form::kLoadStore, Mn::kLdr, Mn::kNop, 2},
    {"ldrsb", Form::kLoadStore, Mn::kLdr, Mn::kNop, kSigned | 1},
    {"ldrsh", Form::kLoadStore, Mn::kLdr, Mn::kNop, kSigned | 2},
    {"ldrsw", Form::kLoadStore, Mn::kLdr, Mn::kNop, kSigned | 4},
    {"ldur", Form::kLoadStore, Mn::kLdr},
    {"ldxr", Form::kExclusive, Mn::kLdxr},
    {"lsl", Form::kShiftAlias, Mn::kUbfm, Mn::kNop, 1},
    {"lsr", Form::kShiftAlias, Mn::kUbfm},
    {"madd", Form::kMul, Mn::kMadd, Mn::kNop, 4},
    {"mneg", Form::kMul, Mn::kMsub, Mn::kNop, 3},
    {"mov", Form::kMov, Mn::kNop}, {"movk", Form::kMovWide, Mn::kMovk},
    {"movn", Form::kMovWide, Mn::kMovn}, {"movz", Form::kMovWide, Mn::kMovz},
    {"msub", Form::kMul, Mn::kMsub, Mn::kNop, 4},
    {"mul", Form::kMul, Mn::kMadd, Mn::kNop, 3},
    {"neg", Form::kNeg, Mn::kSubReg}, {"nop", Form::kNop, Mn::kNop},
    {"orr", Form::kLogical, Mn::kOrrReg, Mn::kOrrImm},
    {"rbit", Form::kUnary, Mn::kRbit}, {"ret", Form::kRet, Mn::kRet},
    {"rev", Form::kUnary, Mn::kRev}, {"ror", Form::kRor, Mn::kExtr},
    {"rtcall", Form::kRtcall, Mn::kNop}, {"sbfm", Form::kBitfield, Mn::kSbfm},
    {"scvtf", Form::kScvtf, Mn::kScvtf}, {"sdiv", Form::kReg3, Mn::kSdiv},
    {"smulh", Form::kReg3, Mn::kSmulh}, {"stlr", Form::kExclusive, Mn::kStlr},
    {"stp", Form::kPair, Mn::kStp}, {"str", Form::kLoadStore, Mn::kStr},
    {"strb", Form::kLoadStore, Mn::kStr, Mn::kNop, 1},
    {"strh", Form::kLoadStore, Mn::kStr, Mn::kNop, 2},
    {"stur", Form::kLoadStore, Mn::kStr}, {"stxr", Form::kStxr, Mn::kStxr},
    {"sub", Form::kAddSub, Mn::kAddImm, Mn::kNop, kSub},
    {"subs", Form::kAddSub, Mn::kAddImm, Mn::kNop, kSub | kSetFlags},
    {"svc", Form::kTrap, Mn::kSvc},
    {"sxtb", Form::kExtendAlias, Mn::kSbfm, Mn::kNop, 7},
    {"sxth", Form::kExtendAlias, Mn::kSbfm, Mn::kNop, 15},
    {"sxtw", Form::kExtendAlias, Mn::kSbfm, Mn::kNop, 31},
    {"tbnz", Form::kBranch, Mn::kTbnz}, {"tbz", Form::kBranch, Mn::kTbz},
    {"tst", Form::kTst, Mn::kAndsReg, Mn::kAndsImm},
    {"ubfm", Form::kBitfield, Mn::kUbfm}, {"udiv", Form::kReg3, Mn::kUdiv},
    {"umulh", Form::kReg3, Mn::kUmulh},
    {"uxtb", Form::kExtendAlias, Mn::kUbfm, Mn::kNop, 7},
    {"uxth", Form::kExtendAlias, Mn::kUbfm, Mn::kNop, 15},
};

constexpr bool MnemonicsSorted() {
  for (size_t k = 1; k < std::size(kMnemonics); ++k) {
    if (!(kMnemonics[k - 1].name < kMnemonics[k].name)) return false;
  }
  return true;
}
static_assert(MnemonicsSorted(), "kMnemonics must stay sorted");

// Looks up a lowercase mnemonic; nullptr if unknown.
const Mnemonic* LookupMnemonic(std::string_view m) {
  const auto* end = std::end(kMnemonics);
  const auto* it = std::lower_bound(
      std::begin(kMnemonics), end, m,
      [](const Mnemonic& e, std::string_view key) { return e.name < key; });
  return it != end && it->name == m ? it : nullptr;
}

// One tokenized instruction line.
struct Line {
  // Lowercased mnemonic (in `lower_buf`, or the raw text if too long to
  // be a known one).
  std::string_view mnemonic;
  const Mnemonic* entry = nullptr;
  Operands ops;
  // Post-index immediate appearing after a memory operand: `[x0], #8`.
  std::optional<int64_t> post_imm;
  char lower_buf[16];
};

// ----- Token classification -----

// Index of `s` in `names`, compared case-insensitively; -1 if absent.
template <size_t N>
int IndexOf(std::string_view s, const std::string_view (&names)[N]) {
  for (size_t k = 0; k < N; ++k) {
    if (EqualsLower(s, names[k])) return static_cast<int>(k);
  }
  return -1;
}

// Condition, shift and extend names, in encoding order.
constexpr std::string_view kCondNames[] = {"eq", "ne", "hs", "lo", "mi",
                                           "pl", "vs", "vc", "hi", "ls",
                                           "ge", "lt", "gt", "le", "al"};
constexpr std::string_view kShiftNames[] = {"lsl", "lsr", "asr", "ror"};
constexpr std::string_view kExtendNames[] = {
    "uxtb", "uxth", "uxtw", "uxtx", "sxtb", "sxth", "sxtw", "sxtx"};

std::optional<Cond> ParseCond(std::string_view s) {
  if (EqualsLower(s, "cs")) return Cond::kHs;
  if (EqualsLower(s, "cc")) return Cond::kLo;
  const int k = IndexOf(s, kCondNames);
  if (k < 0) return std::nullopt;
  return static_cast<Cond>(k);
}

Cond Invert(Cond c) {
  return static_cast<Cond>(static_cast<uint8_t>(c) ^ 1);
}

// Decimal register number in `digits` if it is at most `max`.
std::optional<uint8_t> RegNumber(std::string_view digits, int max) {
  if (digits.empty()) return std::nullopt;
  int n = 0;
  for (char c : digits) {
    if (!IsDigit(c)) return std::nullopt;
    if (n <= max) n = n * 10 + (c - '0');
  }
  if (n > max) return std::nullopt;
  return static_cast<uint8_t>(n);
}

// Parses a register name. Returns nullopt if `s` is not a register.
std::optional<std::pair<Reg, Width>> ParseGpr(std::string_view s) {
  if (s.size() < 2) return std::nullopt;
  const char c = ToLower(s[0]);
  if (c != 'x' && c != 'w') {
    if (EqualsLower(s, "sp")) return {{Reg::Sp(), Width::kX}};
    return std::nullopt;
  }
  const Width w = c == 'x' ? Width::kX : Width::kW;
  if (auto n = RegNumber(s.substr(1), 30)) return {{Reg::X(*n), w}};
  if (EqualsLower(s, "wsp")) return {{Reg::Sp(), Width::kW}};
  if (EqualsLower(s, "xzr")) return {{Reg::Zr(), Width::kX}};
  if (EqualsLower(s, "wzr")) return {{Reg::Zr(), Width::kW}};
  return std::nullopt;
}

std::optional<std::pair<VReg, FpSize>> ParseVReg(std::string_view s) {
  if (s.size() < 2) return std::nullopt;
  const char c = ToLower(s[0]);
  if (c == 'v') {
    const auto dot = s.find('.');
    if (dot == std::string_view::npos) return std::nullopt;
    const auto n = RegNumber(s.substr(1, dot - 1), 31);
    if (!n) return std::nullopt;
    const std::string_view arr = s.substr(dot + 1);
    if (EqualsLower(arr, "4s")) return {{VReg::V(*n), FpSize::kV4S}};
    if (EqualsLower(arr, "2d")) return {{VReg::V(*n), FpSize::kV2D}};
    return std::nullopt;
  }
  if (c != 's' && c != 'd' && c != 'q') return std::nullopt;
  const auto n = RegNumber(s.substr(1), 31);
  if (!n) return std::nullopt;
  const FpSize fs =
      c == 's' ? FpSize::kS : (c == 'd' ? FpSize::kD : FpSize::kQ);
  return {{VReg::V(*n), fs}};
}

std::optional<Shift> ParseShiftName(std::string_view s) {
  const int k = IndexOf(s, kShiftNames);
  if (k < 0) return std::nullopt;
  return static_cast<Shift>(k);
}

std::optional<Extend> ParseExtendName(std::string_view s) {
  const int k = IndexOf(s, kExtendNames);
  if (k < 0) return std::nullopt;
  return static_cast<Extend>(k);
}

bool StartsNumber(std::string_view tok) {
  return tok.front() == '#' || IsDigit(tok.front()) || tok.front() == '-';
}

// Parses a non-memory operand token into `op`.
Status ParseSimpleOperand(std::string_view tok, Operand* op) {
  tok = Trim(tok);
  if (tok.empty()) return Status::Fail("empty operand");
  if (auto g = ParseGpr(tok)) {
    op->kind = Operand::Kind::kReg;
    std::tie(op->reg, op->reg_width) = *g;
    return Status::Ok();
  }
  if (auto v = ParseVReg(tok)) {
    op->kind = Operand::Kind::kVReg;
    std::tie(op->vreg, op->fsize) = *v;
    return Status::Ok();
  }
  if (StartsNumber(tok)) {
    const Number n = ParseNumber(tok);
    if (!n.ok()) {
      return BadNumber(n, tok, "bad immediate: " + std::string(tok));
    }
    op->kind = Operand::Kind::kImm;
    op->imm = n.value;
    return Status::Ok();
  }
  if (tok.substr(0, 6) == ":lo12:") {
    op->kind = Operand::Kind::kLo12;
    op->sym = tok.substr(6);
    return Status::Ok();
  }
  // shift/extend with optional amount: "lsl #3", "uxtw", "sxtw #2"
  {
    const auto space = tok.find_first_of(" \t");
    const std::string_view head =
        space == std::string_view::npos ? tok : tok.substr(0, space);
    const std::string_view rest =
        space == std::string_view::npos ? std::string_view{}
                                        : Trim(tok.substr(space));
    if (auto sh = ParseShiftName(head)) {
      const Number n = ParseNumber(rest);
      if (!n.ok()) {
        return BadNumber(n, tok, "shift needs amount: " + std::string(tok));
      }
      op->kind = Operand::Kind::kShift;
      op->shift = *sh;
      op->amount = n.value;
      return Status::Ok();
    }
    if (auto ex = ParseExtendName(head)) {
      op->kind = Operand::Kind::kExtend;
      op->ext = *ex;
      if (!rest.empty()) {
        const Number n = ParseNumber(rest);
        if (!n.ok()) {
          return BadNumber(n, tok, "bad extend amount: " + std::string(tok));
        }
        op->amount = n.value;
      }
      return Status::Ok();
    }
  }
  // Condition code or label: context decides; report as label and let the
  // mnemonic handler reinterpret when it expects a condition.
  op->kind = Operand::Kind::kLabel;
  op->sym = tok;
  return Status::Ok();
}

// Parses a [ ... ] memory operand (without any post-index part).
Status ParseMemOperand(std::string_view tok, Operand* op) {
  op->kind = Operand::Kind::kMem;
  tok = Trim(tok);
  if (tok.back() == '!') {
    op->writeback = true;
    tok = Trim(tok.substr(0, tok.size() - 1));
  }
  if (tok.size() < 2 || tok.front() != '[' || tok.back() != ']') {
    return Status::Fail("bad memory operand: " + std::string(tok));
  }
  std::string_view parts[3];
  size_t nparts = 0;
  SplitOperands(Trim(tok.substr(1, tok.size() - 2)), [&](std::string_view p) {
    if (nparts < 3) parts[nparts] = p;
    return ++nparts <= 3;
  });
  if (nparts == 0 || nparts > 3) {
    return Status::Fail("bad memory operand arity");
  }
  auto base = ParseGpr(parts[0]);
  if (!base || base->first.IsZr()) {
    return Status::Fail("bad base register: " + std::string(parts[0]));
  }
  op->mem_base = base->first;
  if (nparts >= 2) {
    Operand sub;
    if (auto st = ParseSimpleOperand(parts[1], &sub); !st.ok()) return st;
    switch (sub.kind) {
      case Operand::Kind::kImm:
        op->off_kind = Operand::OffKind::kImm;
        op->off_imm = sub.imm;
        break;
      case Operand::Kind::kReg:
        op->off_kind = Operand::OffKind::kReg;
        op->off_reg = sub.reg;
        op->off_width = sub.reg_width;
        break;
      case Operand::Kind::kLo12:
        op->off_kind = Operand::OffKind::kLo12;
        break;
      default:
        return Status::Fail("bad memory offset");
    }
  }
  if (nparts == 3) {
    Operand sub;
    if (auto st = ParseSimpleOperand(parts[2], &sub); !st.ok()) return st;
    if (sub.kind == Operand::Kind::kShift) {
      op->ext_kind = Operand::ExtKind::kShift;
      op->shift = sub.shift;
      op->amount = sub.amount;
    } else if (sub.kind == Operand::Kind::kExtend) {
      op->ext_kind = Operand::ExtKind::kExtend;
      op->ext = sub.ext;
      op->amount = sub.amount;
    } else {
      return Status::Fail("bad memory extend");
    }
  }
  return Status::Ok();
}

// Splits an instruction line into its mnemonic and classified operands.
Status Tokenize(std::string_view line, Line* out) {
  line = Trim(line);
  out->ops.clear();
  out->post_imm.reset();
  const auto sp = line.find_first_of(" \t");
  const std::string_view m =
      sp == std::string_view::npos ? line : line.substr(0, sp);
  if (m.size() <= sizeof out->lower_buf) {
    for (size_t k = 0; k < m.size(); ++k) out->lower_buf[k] = ToLower(m[k]);
    out->mnemonic = std::string_view(out->lower_buf, m.size());
    out->entry = LookupMnemonic(out->mnemonic);
  } else {
    out->mnemonic = m;
    out->entry = nullptr;
  }
  if (sp == std::string_view::npos) return Status::Ok();
  std::string_view toks[kMaxOperands];
  size_t ntoks = 0;
  SplitOperands(Trim(line.substr(sp)), [&](std::string_view t) {
    if (ntoks < kMaxOperands) toks[ntoks] = t;
    return ++ntoks <= kMaxOperands;
  });
  if (ntoks > kMaxOperands) return Status::Fail("too many operands");
  for (size_t k = 0; k < ntoks; ++k) {
    if (!toks[k].empty() && toks[k].front() == '[') {
      Operand& mem = out->ops.push_back();
      if (auto st = ParseMemOperand(toks[k], &mem); !st.ok()) return st;
      // Post-index: `[xN], #i` arrives as a following immediate token.
      if (k + 1 < ntoks && !mem.writeback &&
          mem.off_kind == Operand::OffKind::kNone && !toks[k + 1].empty() &&
          StartsNumber(toks[k + 1])) {
        const Number n = ParseNumber(toks[k + 1]);
        if (!n.ok()) {
          return BadNumber(n, toks[k + 1], "bad post-index immediate");
        }
        out->post_imm = n.value;
        ++k;
      }
      continue;
    }
    if (auto st = ParseSimpleOperand(toks[k], &out->ops.push_back());
        !st.ok()) {
      return st;
    }
  }
  return Status::Ok();
}

// ----- Mnemonic assembly: build Inst values from operand lists -----

// A built statement plus the symbol it references (reloc != kNone), as a
// view into the source line.
struct Built {
  AsmStmt stmt;
  std::string_view target;
};

Built OfInst(const Inst& i) { return {AsmStmt::OfInst(i), {}}; }

Built WithReloc(const Inst& i, Reloc reloc, std::string_view target) {
  Built b{AsmStmt::OfInst(i), target};
  b.stmt.reloc = reloc;
  return b;
}

Error ErrLine(std::string m) { return Error{std::move(m)}; }

// Fills `inst.mem` from a kMem operand plus optional post-index immediate.
Status FillMem(const Operand& m, std::optional<int64_t> post, Inst* inst) {
  // The rewriter negates offsets; -2^63 has no 64-bit negation.
  if (post.value_or(m.off_imm) == INT64_MIN) {
    return Status::Fail("memory offset out of range");
  }
  inst->mem.base = m.mem_base;
  if (post.has_value()) {
    inst->mem.mode = AddrMode::kPostIndex;
    inst->mem.imm = *post;
    return Status::Ok();
  }
  if (m.off_kind == Operand::OffKind::kNone ||
      m.off_kind == Operand::OffKind::kImm) {
    inst->mem.mode = m.writeback ? AddrMode::kPreIndex : AddrMode::kImm;
    inst->mem.imm = m.off_imm;  // 0 without an offset
    return Status::Ok();
  }
  if (m.off_kind == Operand::OffKind::kLo12) {
    return Status::Fail(":lo12: in memory operands unsupported; "
                        "materialize the address with add first");
  }
  // Register offset.
  if (m.writeback) return Status::Fail("writeback with register offset");
  inst->mem.index = m.off_reg;
  inst->mem.shift = static_cast<uint8_t>(m.amount.value_or(0));
  AddrMode mode;
  if (m.ext_kind == Operand::ExtKind::kNone) {
    if (m.off_width != Width::kX) {
      return Status::Fail("register offset without extend must be an x reg");
    }
    mode = AddrMode::kRegLsl;
  } else if (m.ext_kind == Operand::ExtKind::kShift) {
    if (m.shift != Shift::kLsl) {
      return Status::Fail("only lsl shifts in addressing modes");
    }
    mode = AddrMode::kRegLsl;
  } else {
    switch (m.ext) {
      case Extend::kUxtw: mode = AddrMode::kRegUxtw; break;
      case Extend::kSxtw: mode = AddrMode::kRegSxtw; break;
      case Extend::kSxtx: case Extend::kUxtx: mode = AddrMode::kRegLsl; break;
      default: return Status::Fail("bad addressing-mode extend");
    }
    if (mode != AddrMode::kRegLsl && m.off_width != Width::kW) {
      return Status::Fail("uxtw/sxtw offset must be a w register");
    }
  }
  inst->mem.mode = mode;
  return Status::Ok();
}

Result<Built> FromStatus(const Status& st, const Inst& i) {
  if (!st.ok()) return Error{st.error()};
  return OfInst(i);
}

bool IsReg(const Operand& o) { return o.kind == Operand::Kind::kReg; }
bool IsImm(const Operand& o) { return o.kind == Operand::Kind::kImm; }
bool IsMem(const Operand& o) { return o.kind == Operand::Kind::kMem; }
bool IsVReg(const Operand& o) { return o.kind == Operand::Kind::kVReg; }

// Builds an add/sub-family instruction from `rd, rn, <imm|reg>` operands
// with optional shift/extend. Handles the imm/shifted/extended split.
Result<Built> BuildAddSub(bool sub, bool setflags, const Line& l) {
  if (l.ops.size() < 3) return ErrLine("add/sub needs 3 operands");
  const Operand& rd = l.ops[0];
  const Operand& rn = l.ops[1];
  const Operand& src = l.ops[2];
  if (!IsReg(rd) || !IsReg(rn)) return ErrLine("add/sub operand types");
  Inst i;
  i.width = rd.reg_width;
  i.rd = rd.reg;
  i.rn = rn.reg;
  if (IsImm(src)) {
    i.mn = sub ? (setflags ? Mn::kSubsImm : Mn::kSubImm)
               : (setflags ? Mn::kAddsImm : Mn::kAddImm);
    i.imm = src.imm;
    if (l.ops.size() > 3) return ErrLine("junk after add imm");
    // Negative immediates flip add<->sub.
    if (i.imm < 0) {
      if (i.imm == INT64_MIN) return ErrLine("add/sub immediate out of range");
      i.imm = -i.imm;
      i.mn = sub ? (setflags ? Mn::kAddsImm : Mn::kAddImm)
                 : (setflags ? Mn::kSubsImm : Mn::kSubImm);
    }
    return OfInst(i);
  }
  if (src.kind == Operand::Kind::kLo12) {
    if (sub || setflags) return ErrLine(":lo12: only valid on add");
    i.mn = Mn::kAddImm;
    return WithReloc(i, Reloc::kLo12, src.sym);
  }
  if (!IsReg(src)) return ErrLine("add/sub source");
  i.rm = src.reg;
  const bool has_mod = l.ops.size() > 3;
  if (has_mod && l.ops[3].kind == Operand::Kind::kExtend) {
    const Operand& e = l.ops[3];
    if (setflags) return ErrLine("adds/subs ext unsupported");
    i.mn = sub ? Mn::kSubExt : Mn::kAddExt;
    i.ext = e.ext;
    i.shift_amount = static_cast<uint8_t>(e.amount.value_or(0));
    return OfInst(i);
  }
  // Mixed register widths (add xD, xN, wM, uxtw) imply the extended form
  // even without a trailing modifier token.
  if (rd.reg_width == Width::kX && src.reg_width == Width::kW) {
    return ErrLine("w source in x add requires an extend specifier");
  }
  // SP in rd/rn requires extended or immediate form; the encoder handles
  // the uxtx conversion for plain adds.
  i.mn = sub ? (setflags ? Mn::kSubsReg : Mn::kSubReg)
             : (setflags ? Mn::kAddsReg : Mn::kAddReg);
  if (has_mod) {
    const Operand& sh = l.ops[3];
    if (sh.kind != Operand::Kind::kShift) return ErrLine("bad add modifier");
    i.shift = sh.shift;
    i.shift_amount = static_cast<uint8_t>(sh.amount.value_or(0));
    if (l.ops.size() > 4) return ErrLine("junk after add");
  }
  return OfInst(i);
}

// `mn` is the register form; `imm_mn` the bitmask-immediate form, kNop if
// there is none.
Result<Built> BuildLogical(Mn mn, Mn imm_mn, const Line& l) {
  if (l.ops.size() < 3) return ErrLine("logical needs 3 operands");
  if (!IsReg(l.ops[0]) || !IsReg(l.ops[1])) return ErrLine("logical operands");
  Inst i;
  i.width = l.ops[0].reg_width;
  i.rd = l.ops[0].reg;
  i.rn = l.ops[1].reg;
  if (IsImm(l.ops[2])) {
    if (imm_mn == Mn::kNop) {
      return ErrLine("no immediate form for this logical op");
    }
    i.mn = imm_mn;
    i.imm = l.ops[2].imm;
    if (i.width == Width::kW) i.imm &= 0xffffffff;
    return OfInst(i);
  }
  if (!IsReg(l.ops[2])) {
    return ErrLine("logical operand types");
  }
  i.mn = mn;
  i.rm = l.ops[2].reg;
  if (l.ops.size() == 4) {
    if (l.ops[3].kind != Operand::Kind::kShift) return ErrLine("bad shift");
    i.shift = l.ops[3].shift;
    i.shift_amount = static_cast<uint8_t>(l.ops[3].amount.value_or(0));
  }
  return OfInst(i);
}

Result<Built> BuildLoadStore(const Mnemonic& e, const Line& l) {
  Inst i;
  const bool load = e.mn == Mn::kLdr;
  // Size 0: from the register width below.
  i.msize = static_cast<uint8_t>(e.arg & ~kSigned);
  i.msigned = (e.arg & kSigned) != 0;
  if (l.ops.size() != 2 || !IsMem(l.ops[1])) {
    return ErrLine(std::string(l.mnemonic) + " needs `rt, [mem]`");
  }
  if (IsVReg(l.ops[0])) {
    if (i.msize != 0 || i.msigned) return ErrLine("fp ld/st variant");
    i.mn = load ? Mn::kLdrF : Mn::kStrF;
    i.vt = l.ops[0].vreg;
    i.fsize = l.ops[0].fsize;
    switch (i.fsize) {
      case FpSize::kS: i.msize = 4; break;
      case FpSize::kD: i.msize = 8; break;
      case FpSize::kQ: i.msize = 16; break;
      default: return ErrLine("bad fp transfer register");
    }
  } else if (IsReg(l.ops[0])) {
    i.mn = e.mn;
    i.rt = l.ops[0].reg;
    i.width = l.ops[0].reg_width;
    if (i.msize == 0) i.msize = i.width == Width::kX ? 8 : 4;
    if (i.msigned && i.msize == 4 && i.width != Width::kX) {
      return ErrLine("ldrsw must target an x register");
    }
    if (!i.msigned && i.msize < 4 && i.width != Width::kW) {
      return ErrLine("ldrb/ldrh target must be a w register");
    }
  } else {
    return ErrLine("bad transfer register");
  }
  return FromStatus(FillMem(l.ops[1], l.post_imm, &i), i);
}

Result<Built> BuildBranch(Mn mn, const Line& l, Cond cond) {
  Inst i;
  i.mn = mn;
  i.cond = cond;
  size_t lab = 0;
  if (mn == Mn::kCbz || mn == Mn::kCbnz) {
    if (l.ops.size() != 2 || !IsReg(l.ops[0])) return ErrLine("cbz operands");
    i.rt = l.ops[0].reg;
    i.width = l.ops[0].reg_width;
    lab = 1;
  } else if (mn == Mn::kTbz || mn == Mn::kTbnz) {
    if (l.ops.size() != 3 || !IsReg(l.ops[0]) || !IsImm(l.ops[1])) {
      return ErrLine("tbz operands");
    }
    i.rt = l.ops[0].reg;
    i.bit = static_cast<uint8_t>(l.ops[1].imm);
    i.width = i.bit >= 32 ? Width::kX : Width::kW;
    lab = 2;
  } else if (l.ops.size() != 1) {
    return ErrLine("branch needs a target");
  }
  if (l.ops[lab].kind != Operand::Kind::kLabel) return ErrLine("bad target");
  return WithReloc(i, Reloc::kBranch, l.ops[lab].sym);
}

// Prepends the zero register the cmp/cmn/tst aliases imply.
void PrependZr(Line* l) {
  Operand zr;
  zr.kind = Operand::Kind::kReg;
  zr.reg = Reg::Zr();
  zr.reg_width = l->ops.empty() ? Width::kX : l->ops[0].reg_width;
  l->ops.push_front(zr);
}

// True if the operands are exactly `kinds`: R general register, V fp/vector
// register, I immediate, M memory, L label, ? anything.
bool Match(const Operands& ops, std::string_view kinds) {
  if (ops.size() != kinds.size()) return false;
  for (size_t k = 0; k < kinds.size(); ++k) {
    const Operand::Kind kind = ops[k].kind;
    switch (kinds[k]) {
      case 'R': if (kind != Operand::Kind::kReg) return false; break;
      case 'V': if (kind != Operand::Kind::kVReg) return false; break;
      case 'I': if (kind != Operand::Kind::kImm) return false; break;
      case 'M': if (kind != Operand::Kind::kMem) return false; break;
      case 'L': if (kind != Operand::Kind::kLabel) return false; break;
      default: break;
    }
  }
  return true;
}

// Sets the width and the rd, rn[, rm] registers from ops[0..n).
void SetRegs(const Operands& ops, size_t n, Inst* i) {
  i->width = ops[0].reg_width;
  i->rd = ops[0].reg;
  i->rn = ops[1].reg;
  if (n > 2) i->rm = ops[2].reg;
}

Result<Built> BuildInst(Line& l) {
  const std::string_view m = l.mnemonic;
  const auto& ops = l.ops;

  // b.cond
  if (m.size() > 2 && ToLower(m[0]) == 'b' && m[1] == '.') {
    auto c = ParseCond(m.substr(2));
    if (!c || *c == Cond::kAl) return ErrLine("bad branch condition");
    return BuildBranch(Mn::kBCond, l, *c);
  }
  if (l.entry == nullptr) return ErrLine("unknown mnemonic: " + LowerCopy(m));
  const Mnemonic& e = *l.entry;
  Inst i;
  i.mn = e.mn;
  switch (e.form) {
    case Form::kAdd:
      if (ops.empty() || !IsVReg(ops[0])) return BuildAddSub(false, false, l);
      // Vector integer add: add vD.4s, vN.4s, vM.4s
      if (!Match(ops, "VVV")) return ErrLine("vector add operands");
      i.mn = Mn::kVAdd;
      i.fsize = ops[0].fsize;
      if (i.fsize != FpSize::kV4S && i.fsize != FpSize::kV2D) {
        return ErrLine("vector add arrangement");
      }
      i.vd = ops[0].vreg;
      i.vn = ops[1].vreg;
      i.vm = ops[2].vreg;
      return OfInst(i);
    case Form::kAddSub:
      return BuildAddSub(e.arg & kSub, e.arg & kSetFlags, l);
    case Form::kCmp:
      // cmp a, b == subs zr, a, b.
      PrependZr(&l);
      return BuildAddSub(e.arg & kSub, true, l);
    case Form::kTst:
      PrependZr(&l);
      return BuildLogical(e.mn, e.alt, l);
    case Form::kLogical:
      return BuildLogical(e.mn, e.alt, l);
    case Form::kNeg:
      if (!Match(ops, "RR")) return ErrLine("neg operands");
      SetRegs(ops, 2, &i);
      i.rn = Reg::Zr();
      i.rm = ops[1].reg;
      return OfInst(i);
    case Form::kMov:
      if (ops.size() != 2 || !IsReg(ops[0])) return ErrLine("mov operands");
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      if (IsImm(ops[1])) {
        const int64_t v = ops[1].imm;
        // movz/movn with a single 16-bit payload; wider constants must be
        // written as explicit movz/movk pairs.
        if (v >= 0 && v <= 0xffff) {
          i.mn = Mn::kMovz;
          i.imm = v;
        } else if (v < 0 && ~v <= 0xffff) {
          i.mn = Mn::kMovn;
          i.imm = ~v;
        } else {
          return ErrLine("mov immediate too wide; use movz/movk");
        }
        return OfInst(i);
      }
      if (!IsReg(ops[1])) return ErrLine("mov source");
      // mov to/from sp uses add #0; otherwise orr zr.
      if (ops[0].reg.IsSp() || ops[1].reg.IsSp()) {
        i.mn = Mn::kAddImm;
        i.rn = ops[1].reg;
        i.imm = 0;
        return OfInst(i);
      }
      i.mn = Mn::kOrrReg;
      i.rn = Reg::Zr();
      i.rm = ops[1].reg;
      return OfInst(i);
    case Form::kMovWide:
      if (ops.size() < 2 || !IsReg(ops[0]) || !IsImm(ops[1])) {
        return ErrLine("movz operands");
      }
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.imm = ops[1].imm;
      if (ops.size() == 3) {
        if (ops[2].kind != Operand::Kind::kShift ||
            ops[2].shift != Shift::kLsl) {
          return ErrLine("movz shift");
        }
        i.shift_amount = static_cast<uint8_t>(ops[2].amount.value_or(0));
      }
      return OfInst(i);
    case Form::kShiftAlias: {
      if (!Match(ops, "RRI")) {
        return ErrLine("register-shift forms unsupported");
      }
      SetRegs(ops, 2, &i);
      const uint8_t bits = i.width == Width::kX ? 64 : 32;
      const uint8_t s = static_cast<uint8_t>(ops[2].imm);
      if (s >= bits) return ErrLine("shift amount too large");
      const bool lsl = e.arg != 0;
      i.immr = lsl ? static_cast<uint8_t>((bits - s) % bits) : s;
      i.imms = static_cast<uint8_t>(lsl ? bits - 1 - s : bits - 1);
      return OfInst(i);
    }
    case Form::kExtendAlias:
      if (!Match(ops, "RR")) return ErrLine("extend alias operands");
      SetRegs(ops, 2, &i);
      i.imms = e.arg;
      return OfInst(i);
    case Form::kBitfield:
      if (!Match(ops, "RRII")) return ErrLine("bfm operands");
      SetRegs(ops, 2, &i);
      i.immr = static_cast<uint8_t>(ops[2].imm);
      i.imms = static_cast<uint8_t>(ops[3].imm);
      return OfInst(i);
    case Form::kMul:
      if (!Match(ops, e.arg == 4 ? "RRRR" : "RRR")) {
        return ErrLine("mul operands");
      }
      SetRegs(ops, 3, &i);
      i.ra = e.arg == 4 ? ops[3].reg : Reg::Zr();
      return OfInst(i);
    case Form::kReg3:
      if (ops.size() != 3) return ErrLine("3-reg op operands");
      SetRegs(ops, 3, &i);
      return OfInst(i);
    case Form::kCcmp: {
      // ccmp rn, rm|#imm5, #nzcv, cond
      if (!Match(ops, "R?IL")) return ErrLine("ccmp operands");
      auto c = ParseCond(ops[3].sym);
      if (!c) return ErrLine("bad ccmp condition");
      i.width = ops[0].reg_width;
      i.rn = ops[0].reg;
      i.nzcv = static_cast<uint8_t>(ops[2].imm);
      i.cond = *c;
      if (IsImm(ops[1])) {
        i.mn = e.alt;
        i.imm = ops[1].imm;
      } else if (IsReg(ops[1])) {
        i.rm = ops[1].reg;
      } else {
        return ErrLine("ccmp second operand");
      }
      return OfInst(i);
    }
    case Form::kExtr:
      // extr rd, rn, rm, #lsb
      if (!Match(ops, "RRRI")) return ErrLine("extr operands");
      SetRegs(ops, 3, &i);
      i.imms = static_cast<uint8_t>(ops[3].imm);
      return OfInst(i);
    case Form::kRor:
      // ror rd, rs, #shift == extr rd, rs, rs, #shift
      if (!Match(ops, "RRI")) return ErrLine("ror operands");
      SetRegs(ops, 2, &i);
      i.rm = ops[1].reg;
      i.imms = static_cast<uint8_t>(ops[2].imm);
      return OfInst(i);
    case Form::kCsel: {
      if (!Match(ops, "RRRL")) return ErrLine("csel operands");
      auto c = ParseCond(ops[3].sym);
      if (!c) return ErrLine("bad condition: " + std::string(ops[3].sym));
      SetRegs(ops, 3, &i);
      i.cond = *c;
      return OfInst(i);
    }
    case Form::kCset: {
      if (!Match(ops, "RL")) return ErrLine("cset operands");
      auto c = ParseCond(ops[1].sym);
      if (!c) return ErrLine("bad condition");
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.rn = Reg::Zr();
      i.rm = Reg::Zr();
      i.cond = Invert(*c);
      return OfInst(i);
    }
    case Form::kUnary:
      if (!Match(ops, "RR")) return ErrLine("unary operands");
      SetRegs(ops, 2, &i);
      return OfInst(i);
    case Form::kAdr:
      if (!Match(ops, "RL")) return ErrLine("adr operands");
      i.rd = ops[0].reg;
      return WithReloc(i, Reloc::kBranch, ops[1].sym);
    case Form::kLoadStore:
      return BuildLoadStore(e, l);
    case Form::kPair:
      if (!Match(ops, "RRM")) return ErrLine("ldp/stp needs `rt, rt2, [mem]`");
      i.rt2 = ops[1].reg;
      [[fallthrough]];
    case Form::kExclusive:
      if (e.form == Form::kExclusive && !Match(ops, "RM")) {
        return ErrLine("exclusive operands");
      }
      i.rt = ops[0].reg;
      i.width = ops[0].reg_width;
      i.msize = i.width == Width::kX ? 8 : 4;
      return FromStatus(FillMem(ops[ops.size() - 1], l.post_imm, &i), i);
    case Form::kStxr:
      if (!Match(ops, "RRM")) return ErrLine("stxr operands");
      i.rs = ops[0].reg;
      i.rt = ops[1].reg;
      i.width = ops[1].reg_width;
      i.msize = i.width == Width::kX ? 8 : 4;
      return FromStatus(FillMem(ops[2], l.post_imm, &i), i);
    case Form::kBranch:
      return BuildBranch(e.mn, l, Cond::kAl);
    case Form::kIndirect:
      if (!Match(ops, "R")) return ErrLine("br operands");
      i.rn = ops[0].reg;
      return OfInst(i);
    case Form::kRet:
      i.rn = ops.empty() ? Reg::X(30) : ops[0].reg;
      return OfInst(i);
    case Form::kFp3:
      // Scalar, or a 4s/2d vector op when the table names one (`alt`).
      if (!Match(ops, "VVV")) return ErrLine("fp op needs 3 fp registers");
      i.fsize = ops[0].fsize;
      if (i.fsize == FpSize::kV4S || i.fsize == FpSize::kV2D) {
        if (e.alt == Mn::kNop) return ErrLine("vector op unsupported");
        i.mn = e.alt;
      }
      i.vd = ops[0].vreg;
      i.vn = ops[1].vreg;
      i.vm = ops[2].vreg;
      return OfInst(i);
    case Form::kFsqrt:
      if (!Match(ops, "VV")) return ErrLine("fsqrt operands");
      i.fsize = ops[0].fsize;
      i.vd = ops[0].vreg;
      i.vn = ops[1].vreg;
      return OfInst(i);
    case Form::kFmadd:
      if (ops.size() != 4) return ErrLine("fmadd operands");
      i.fsize = ops[0].fsize;
      i.vd = ops[0].vreg;
      i.vn = ops[1].vreg;
      i.vm = ops[2].vreg;
      i.va = ops[3].vreg;
      return OfInst(i);
    case Form::kFcmp:
      if (!Match(ops, "VV")) return ErrLine("fcmp operands");
      i.fsize = ops[0].fsize;
      i.vn = ops[0].vreg;
      i.vm = ops[1].vreg;
      return OfInst(i);
    case Form::kScvtf:
      if (!Match(ops, "VR")) return ErrLine("scvtf operands");
      i.fsize = ops[0].fsize;
      i.vd = ops[0].vreg;
      i.rn = ops[1].reg;
      i.width = ops[1].reg_width;
      return OfInst(i);
    case Form::kFcvtzs:
      if (!Match(ops, "RV")) return ErrLine("fcvtzs operands");
      i.fsize = ops[1].fsize;
      i.vn = ops[1].vreg;
      i.rd = ops[0].reg;
      i.width = ops[0].reg_width;
      return OfInst(i);
    case Form::kFmov:
      if (Match(ops, "VV")) {
        i.fsize = ops[0].fsize;
        i.vd = ops[0].vreg;
        i.vn = ops[1].vreg;
      } else if (Match(ops, "RV")) {
        i.rd = ops[0].reg;
        i.width = ops[0].reg_width;
        i.vn = ops[1].vreg;
        i.fsize = ops[1].fsize;
      } else if (Match(ops, "VR")) {
        i.vd = ops[0].vreg;
        i.fsize = ops[0].fsize;
        i.rn = ops[1].reg;
        i.width = ops[1].reg_width;
      } else {
        return ErrLine(ops.size() != 2 ? "fmov operands"
                                       : "fmov operand kinds");
      }
      return OfInst(i);
    case Form::kNop:
      return OfInst(i);
    case Form::kTrap:
      i.imm = Match(ops, "I") ? ops[0].imm : 0;
      return OfInst(i);
    case Form::kRtcall:
    case Form::kHostcall: {
      const bool rt = e.form == Form::kRtcall;
      if (!Match(ops, "I")) return ErrLine(rt ? "rtcall #n" : "hostcall #i");
      AsmStmt s;
      s.kind = rt ? AsmStmt::Kind::kRtcall : AsmStmt::Kind::kHostcall;
      s.inst.imm = ops[0].imm;
      return Built{s, {}};
    }
  }
  return ErrLine("unknown mnemonic: " + LowerCopy(m));
}

// Parses one instruction line (already trimmed of comments).
Result<Built> ParseInstLine(std::string_view line, Line* l) {
  if (auto st = Tokenize(line, l); !st.ok()) return Error{st.error()};
  return BuildInst(*l);
}

// How a directive's argument is read (see BuildDirective).
enum class DirForm : uint8_t {
  kSection, kSectionArg, kGlobl, kAlignBytes, kAlignPow, kData, kAsciz,
  kZero, kIgnored,
};

struct DirectiveName {
  std::string_view name;
  DirForm form;
  uint8_t arg = 0;  // kSection: the Section; kData: the Directive::Kind
};

constexpr DirectiveName kDirectives[] = {
    {".text", DirForm::kSection, uint8_t(Section::kText)},
    {".data", DirForm::kSection, uint8_t(Section::kData)},
    {".rodata", DirForm::kSection, uint8_t(Section::kRodata)},
    {".bss", DirForm::kSection, uint8_t(Section::kBss)},
    {".section", DirForm::kSectionArg}, {".globl", DirForm::kGlobl},
    {".global", DirForm::kGlobl}, {".balign", DirForm::kAlignBytes},
    {".align", DirForm::kAlignPow}, {".p2align", DirForm::kAlignPow},
    {".byte", DirForm::kData, uint8_t(Directive::Kind::kByte)},
    {".word", DirForm::kData, uint8_t(Directive::Kind::kWord)},
    {".quad", DirForm::kData, uint8_t(Directive::Kind::kQuad)},
    {".xword", DirForm::kData, uint8_t(Directive::Kind::kQuad)},
    {".asciz", DirForm::kAsciz}, {".string", DirForm::kAsciz},
    {".zero", DirForm::kZero}, {".space", DirForm::kZero},
    {".skip", DirForm::kZero},
    // Metadata we can safely ignore; represented as a no-op .balign 1.
    {".type", DirForm::kIgnored}, {".size", DirForm::kIgnored},
    {".file", DirForm::kIgnored}, {".ident", DirForm::kIgnored},
    {".arch", DirForm::kIgnored}, {".cfi_startproc", DirForm::kIgnored},
    {".cfi_endproc", DirForm::kIgnored},
    {".cfi_def_cfa_offset", DirForm::kIgnored},
    {".cfi_offset", DirForm::kIgnored}, {".cfi_restore", DirForm::kIgnored},
};

// Reads a directive's single numeric argument, at least `min`.
Status DirectiveNumber(std::string_view rest, const char* bad, int64_t min,
                       int64_t* out) {
  const Number n = ParseNumber(Trim(rest));
  if (!n.ok() || n.value < min) return BadNumber(n, Trim(rest), bad);
  *out = n.value;
  return Status::Ok();
}

Status BuildDirective(std::string_view name, std::string_view rest,
                      Directive* d, SymbolTable* syms) {
  const DirectiveName* e = nullptr;
  for (const auto& cand : kDirectives) {
    if (EqualsLower(name, cand.name)) e = &cand;
  }
  if (e == nullptr) {
    return Status::Fail("unknown directive: " + LowerCopy(name));
  }
  switch (e->form) {
    case DirForm::kSection:
      d->kind = Directive::Kind::kSection;
      d->section = static_cast<Section>(e->arg);
      break;
    case DirForm::kSectionArg: {
      // `.section .rodata` etc.
      const std::string_view arg = Trim(rest);
      d->kind = Directive::Kind::kSection;
      d->section = ContainsLower(arg, "rodata") ? Section::kRodata
                   : ContainsLower(arg, "bss")  ? Section::kBss
                   : ContainsLower(arg, "data") ? Section::kData
                                                : Section::kText;
      break;
    }
    case DirForm::kGlobl:
      d->kind = Directive::Kind::kGlobl;
      d->text = std::string(Trim(rest));
      break;
    case DirForm::kAlignBytes:
    case DirForm::kAlignPow:
    case DirForm::kZero: {
      const bool zero = e->form == DirForm::kZero;
      const char* bad = zero ? "bad .zero size" : "bad alignment";
      d->kind = zero ? Directive::Kind::kZero : Directive::Kind::kBalign;
      int64_t n = 0;
      if (auto st = DirectiveNumber(rest, bad, zero ? 0 : 1, &n); !st.ok()) {
        return st;
      }
      // .p2align/.align take a power, .balign takes bytes.
      if (e->form == DirForm::kAlignPow) {
        if (n > 62) return Status::Fail(bad);
        n = int64_t{1} << n;
      }
      d->values.push_back(n);
      break;
    }
    case DirForm::kData: {
      d->kind = static_cast<Directive::Kind>(e->arg);
      Status st = Status::Ok();
      SplitOperands(rest, [&](std::string_view tok) {
        const Number n = ParseNumber(tok);
        if (n.status == Number::Status::kOverflow) {
          st = BadNumber(n, tok, "");
          return false;
        }
        // A symbol entry; an empty one reads as the number 0.
        const bool sym = !n.ok() && !tok.empty();
        d->values.push_back(n.ok() ? n.value : 0);
        d->syms.push_back(sym ? syms->Intern(tok) : kNoSym);
        return true;
      });
      return st;
    }
    case DirForm::kAsciz: {
      d->kind = Directive::Kind::kAsciz;
      auto t = Trim(rest);
      if (t.size() < 2 || t.front() != '"' || t.back() != '"') {
        return Status::Fail("bad string literal");
      }
      for (size_t k = 1; k + 1 < t.size(); ++k) {
        char c = t[k];
        if (c == '\\' && k + 2 < t.size()) {
          c = t[++k];
          if (c == 'n') c = '\n';
          if (c == 't') c = '\t';
          if (c == '0') c = '\0';
        }
        d->text.push_back(c);
      }
      break;
    }
    case DirForm::kIgnored:
      d->kind = Directive::Kind::kBalign;
      d->values.push_back(1);
      break;
  }
  return Status::Ok();
}

std::string LinePrefix(int lineno) {
  return "line " + std::to_string(lineno) + ": ";
}

}  // namespace

Result<ParsedInst> ParseInst(std::string_view line) {
  Line l;
  auto b = ParseInstLine(line, &l);
  if (!b) return Error{b.error()};
  ParsedInst p;
  static_cast<AsmStmt&>(p) = b->stmt;
  p.target = std::string(b->target);
  return p;
}

Result<AsmFile> Parse(std::string_view source) {
  AsmFile file;
  // Symbol offsets are 32-bit.
  if (source.size() > UINT32_MAX) return Error{"source larger than 4 GiB"};
  // One statement per line is the common case; several labels on one line
  // just grow the vector.
  file.stmts.reserve(std::count(source.begin(), source.end(), '\n') + 1);
  Line l;
  int lineno = 0;
  size_t pos = 0;
  while (pos <= source.size()) {
    const auto nl = source.find('\n', pos);
    std::string_view line = source.substr(
        pos, nl == std::string_view::npos ? source.size() - pos : nl - pos);
    pos = nl == std::string_view::npos ? source.size() + 1 : nl + 1;
    ++lineno;
    // Strip // comments.
    if (const auto c = line.find("//"); c != std::string_view::npos) {
      line = line.substr(0, c);
    }
    line = Trim(line);
    if (line.empty()) continue;
    // Labels (possibly several on a line, then an optional statement).
    while (true) {
      size_t k = 0;
      while (k < line.size() && IsIdentChar(line[k])) ++k;
      if (k > 0 && k < line.size() && line[k] == ':') {
        AsmStmt s = AsmStmt::Label(file.syms.Intern(line.substr(0, k)));
        s.line = lineno;
        file.stmts.push_back(s);
        line = Trim(line.substr(k + 1));
        if (line.empty()) break;
        continue;
      }
      break;
    }
    if (line.empty()) continue;
    if (line.front() == '.') {
      const auto sp = line.find_first_of(" \t");
      const std::string_view name =
          sp == std::string_view::npos ? line : line.substr(0, sp);
      const std::string_view rest =
          sp == std::string_view::npos ? std::string_view{} : line.substr(sp);
      Directive d;
      if (auto st = BuildDirective(name, rest, &d, &file.syms); !st.ok()) {
        return Error{LinePrefix(lineno) + st.error()};
      }
      file.AddDirective(std::move(d));
      file.stmts.back().line = lineno;
      continue;
    }
    auto b = ParseInstLine(line, &l);
    if (!b) {
      return Error{LinePrefix(lineno) + b.error() + " in `" +
                   std::string(line) + "`"};
    }
    AsmStmt& s = b->stmt;
    if (s.reloc != Reloc::kNone) s.sym = file.syms.Intern(b->target);
    s.line = lineno;
    file.stmts.push_back(s);
  }
  return file;
}

}  // namespace lfi::asmtext
