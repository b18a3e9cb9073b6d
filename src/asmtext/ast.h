// Assembly-file AST.
//
// LFI deliberately operates on GNU assembly *text* emitted by off-the-shelf
// compilers instead of living inside a compiler backend (Section 5.1). This
// module defines the statement-level representation that the parser
// produces, the rewriter transforms, the printer re-emits, and the
// assembler lowers to bytes.
//
// A statement is a small trivially copyable value: names live in the
// file's interned symbol table and directives in a side table, so the
// rewriter and assembler move plain bytes and resolve labels by id.
#ifndef LFI_ASMTEXT_AST_H_
#define LFI_ASMTEXT_AST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "arch/inst.h"

namespace lfi::asmtext {

// Id of a name in an AsmFile's symbol table; kNoSym means "no name".
inline constexpr uint32_t kNoSym = 0xffffffffu;

// The distinct names of one file, each with a dense id (0, 1, ...) in
// order of first appearance. Interning the same name twice yields the
// same id, so labels and references compare as integers.
class SymbolTable {
 public:
  // Returns the id of `name`, adding it if new.
  uint32_t Intern(std::string_view name);
  // Returns the id of `name`, or kNoSym if it was never interned.
  uint32_t Find(std::string_view name) const;
  std::string_view Name(uint32_t id) const {
    const uint32_t begin = id == 0 ? 0 : ends_[id - 1];
    return std::string_view(chars_).substr(begin, ends_[id] - begin);
  }
  size_t size() const { return ends_.size(); }

 private:
  void Grow();

  std::string chars_;            // all names, concatenated
  std::vector<uint32_t> ends_;   // end offset of name `id` in chars_
  std::vector<uint32_t> slots_;  // open-addressed index: id + 1, 0 = empty
};

// Sections an assembly file can place content in.
enum class Section : uint8_t { kText, kRodata, kData, kBss };

// Non-instruction statements.
struct Directive {
  enum class Kind : uint8_t {
    kSection,  // .text/.data/.rodata/.bss (section in `section`)
    kGlobl,    // .globl sym
    kBalign,   // .balign n
    kByte,     // .byte v, v, ...
    kWord,     // .word v, ... (4 bytes each; entries may be symbols)
    kQuad,     // .quad v, ... (8 bytes each; entries may be symbols)
    kAsciz,    // .asciz "str" (NUL-terminated)
    kZero,     // .zero n / .space n
  };
  Kind kind = Kind::kSection;
  Section section = Section::kText;
  std::vector<int64_t> values;   // numeric payload
  std::vector<uint32_t> syms;    // symbol payload, parallel to values;
                                 // kNoSym = use numeric value
  std::string text;              // .globl name / .asciz content
};

// Relocation kind attached to an instruction's immediate.
enum class Reloc : uint8_t {
  kNone,
  kBranch,  // direct-branch / adr / adrp target: symbol `sym`
  kLo12,    // :lo12:sym in an add/ldr/str immediate
};

// One statement in an assembly file.
struct AsmStmt {
  // kRtcall is the `rtcall #n` pseudo-instruction: a call into the LFI
  // runtime through the call table at the sandbox base (Section 4.4). The
  // rewriter expands it into the `ldr x30, [x21, #8n]; blr x30` sequence;
  // it cannot be assembled directly. The call number lives in `inst.imm`.
  //
  // kHostcall is the `hostcall #i` pseudo used by embedded guests
  // (src/embed/): it expands to `movz x9, #i` followed by the kHostcall
  // rtcall, invoking host callback slot `i`. The slot index lives in
  // `inst.imm`.
  enum class Kind : uint8_t { kLabel, kDirective, kInst, kRtcall, kHostcall };
  Kind kind = Kind::kInst;
  Reloc reloc = Reloc::kNone;

  uint32_t sym = kNoSym;  // kLabel: the name bound; kInst: the symbol
                          // referenced by `reloc`
  uint32_t dir = 0;       // kDirective: index into AsmFile::dirs
  int line = 0;           // 1-based source line, for diagnostics

  arch::Inst inst;        // kInst (and the pseudo-instructions)

  static AsmStmt Label(uint32_t sym) {
    AsmStmt s;
    s.kind = Kind::kLabel;
    s.sym = sym;
    return s;
  }
  static AsmStmt OfInst(arch::Inst i) {
    AsmStmt s;
    s.kind = Kind::kInst;
    s.inst = i;
    return s;
  }
  static AsmStmt Branch(arch::Inst i, uint32_t target) {
    AsmStmt s = OfInst(i);
    s.reloc = Reloc::kBranch;
    s.sym = target;
    return s;
  }
  static AsmStmt OfDirective(uint32_t index) {
    AsmStmt s;
    s.kind = Kind::kDirective;
    s.dir = index;
    return s;
  }
};
static_assert(std::is_trivially_copyable_v<AsmStmt>);

// A single instruction statement parsed on its own (ParseInst): there is
// no file to intern into, so the referenced label travels as text.
struct ParsedInst : AsmStmt {
  std::string target;
};

// A parsed assembly file: a flat statement list, in source order, with
// the names and directives its statements refer to.
struct AsmFile {
  std::vector<AsmStmt> stmts;
  std::vector<Directive> dirs;
  SymbolTable syms;

  std::string_view Name(uint32_t sym) const { return syms.Name(sym); }
  const Directive& Dir(const AsmStmt& s) const { return dirs[s.dir]; }

  // Builders for code that constructs files (parser, Wasm instrumenter).
  void AddLabel(std::string_view name) {
    stmts.push_back(AsmStmt::Label(syms.Intern(name)));
  }
  void AddBranch(arch::Inst i, std::string_view target) {
    stmts.push_back(AsmStmt::Branch(i, syms.Intern(target)));
  }
  void AddDirective(Directive d) {
    stmts.push_back(AsmStmt::OfDirective(static_cast<uint32_t>(dirs.size())));
    dirs.push_back(std::move(d));
  }
};

}  // namespace lfi::asmtext

#endif  // LFI_ASMTEXT_AST_H_
