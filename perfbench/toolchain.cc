#include "toolchain.h"

#include <cstdio>

#include "asmtext/assemble.h"
#include "asmtext/parser.h"
#include "elf/elf.h"
#include "runtime/layout.h"

namespace lfi::perfbench {
namespace {

void Report(uint64_t id, const char* stage, const std::string& error) {
  std::fprintf(stderr, "error: module %llu: %s: %s\n",
               static_cast<unsigned long long>(id), stage, error.c_str());
}

}  // namespace

Built BuildModule(Tracer& t, const std::string& src, bool guarded,
                  uint64_t id, UnitClock* clock) {
  auto lap = [clock] {
    if (clock != nullptr) clock->Lap();
  };
  Built b;
  Result<asmtext::AsmFile> file = [&] {
    Scope s(t, "asmtext.Parse", id);
    s.bytes(src.size());
    auto r = asmtext::Parse(src);
    s.failed(!r.ok());
    return r;
  }();
  lap();
  if (!file) {
    Report(id, "parse", file.error());
    return b;
  }
  rewriter::RewriteOptions opts;
  opts.insert_guards = guarded;
  Result<asmtext::AsmFile> rewritten = [&] {
    Scope s(t, "rewriter.Rewrite", id);
    s.bytes(src.size());
    auto r = rewriter::Rewrite(*file, opts, &b.stats);
    s.failed(!r.ok());
    return r;
  }();
  lap();
  if (!rewritten) {
    Report(id, "rewrite", rewritten.error());
    return b;
  }
  asmtext::LayoutSpec spec;
  spec.text_offset = runtime::kProgramStart;
  Result<asmtext::Image> img = [&] {
    Scope s(t, "asmtext.Assemble", id);
    auto r = asmtext::Assemble(*rewritten, spec);
    if (r.ok()) s.bytes(r->text.size());
    s.failed(!r.ok());
    return r;
  }();
  lap();
  if (!img) {
    Report(id, "assemble", img.error());
    return b;
  }
  b.text_bytes = img->text.size();
  {
    Scope s(t, "elf.Write", id);
    b.elf = elf::Write(elf::FromAssembled(*img));
    s.bytes(b.elf.size());
  }
  lap();
  b.ok = true;
  return b;
}

}  // namespace lfi::perfbench
