// GNU ARM64 assembly text parser.
//
// Accepts the subset of GNU assembler syntax that off-the-shelf compilers
// emit for the instruction subset this library supports, including common
// aliases (mov, cmp, lsl, cset, mul, ret, ...) which are canonicalized to
// their underlying instructions at parse time. Never throws: all input is
// untrusted.
#ifndef LFI_ASMTEXT_PARSER_H_
#define LFI_ASMTEXT_PARSER_H_

#include <string_view>

#include "asmtext/ast.h"
#include "support/result.h"

namespace lfi::asmtext {

// Parses a whole assembly source file.
Result<AsmFile> Parse(std::string_view source);

// Parses a single instruction statement (no labels/directives); used by
// tests and tooling. The referenced label, if any, is in `target`.
Result<ParsedInst> ParseInst(std::string_view line);

}  // namespace lfi::asmtext

#endif  // LFI_ASMTEXT_PARSER_H_
