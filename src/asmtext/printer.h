// Assembly printer: AsmFile -> GNU assembly text.
//
// Together with the parser this gives the same pipeline shape as the paper's
// tool: consume compiler-emitted `.s` text, transform, and re-emit text for
// the assembler. Printing then re-parsing must be the identity on the AST
// (tested as a property).
#ifndef LFI_ASMTEXT_PRINTER_H_
#define LFI_ASMTEXT_PRINTER_H_

#include <string>

#include "asmtext/ast.h"

namespace lfi::asmtext {

// Renders one statement of `file` (no trailing newline).
std::string PrintStmt(const AsmFile& file, const AsmStmt& stmt);

// Renders a statement without its file: instructions print in full, but
// the names of labels and symbol operands live in the file's symbol table,
// so they print as `<sym N>` (and directives as `<directive N>`).
std::string PrintStmt(const AsmStmt& stmt);

// Renders a ParseInst result, naming its target.
std::string PrintStmt(const ParsedInst& stmt);

// Renders a whole file.
std::string Print(const AsmFile& file);

}  // namespace lfi::asmtext

#endif  // LFI_ASMTEXT_PRINTER_H_
