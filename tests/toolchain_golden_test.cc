// Toolchain output golden: a byte-exact snapshot of what the assembly
// front end (parse, print, rewrite, assemble, ELF write) produces for a
// fixed input set. Each line records FNV-1a hashes of Print(Parse(src)),
// of the printed rewrite and of the ELF bytes, plus the RewriteStats, for
//
//  - all workload programs at two scales,
//  - each under native (no guards), O0, O1, O2 and O2 without load guards,
//  - fuzz::SeedCorpusAsm() and 500 fuzz::GenAsmProgram seeds,
//  - tbz/tbnz branches that must be widened (the rewriter's range fix),
//  - inputs each layer rejects, which pins the error messages.
//
// Any refactor of the front end must leave this file byte-unchanged.
// Regenerate only after an intentional output change with:
//   LFI_UPDATE_GOLDEN=1 ./build/tests/toolchain_golden_test

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "asmtext/assemble.h"
#include "asmtext/parser.h"
#include "asmtext/printer.h"
#include "elf/elf.h"
#include "fuzz/gen.h"
#include "fuzz/rng.h"
#include "rewriter/rewriter.h"
#include "runtime/layout.h"
#include "workloads/workloads.h"

#ifndef LFI_TOOLCHAIN_GOLDEN
#error "build must define LFI_TOOLCHAIN_GOLDEN (path to the golden file)"
#endif

namespace lfi {
namespace {

uint64_t Fnv(const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t k = 0; k < n; ++k) {
    h ^= p[k];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct Config {
  const char* name;
  bool guards;
  rewriter::OptLevel level;
  bool loads;
};

constexpr Config kConfigs[] = {
    {"native", false, rewriter::OptLevel::kO2, true},
    {"O0", true, rewriter::OptLevel::kO0, true},
    {"O1", true, rewriter::OptLevel::kO1, true},
    {"O2", true, rewriter::OptLevel::kO2, true},
    {"O2-noloads", true, rewriter::OptLevel::kO2, false},
};

// Appends the golden lines for one input.
void Record(const std::string& name, const std::string& src,
            std::string* out) {
  auto parsed = asmtext::Parse(src);
  if (!parsed.ok()) {
    *out += name + " parse-error " + parsed.error() + "\n";
    return;
  }
  const std::string printed = asmtext::Print(*parsed);
  *out += name + " stmts=" + std::to_string(parsed->stmts.size()) +
          " print=" + Hex(Fnv(printed.data(), printed.size())) + "\n";
  for (const Config& c : kConfigs) {
    const std::string tag = name + " " + c.name;
    rewriter::RewriteOptions opts;
    opts.insert_guards = c.guards;
    opts.level = c.level;
    opts.sandbox_loads = c.loads;
    rewriter::RewriteStats st;
    auto rw = rewriter::Rewrite(*parsed, opts, &st);
    if (!rw.ok()) {
      *out += tag + " rewrite-error " + rw.error() + "\n";
      continue;
    }
    const std::string rtext = asmtext::Print(*rw);
    std::string line = tag + " stats=" + std::to_string(st.input_insts) +
                       "/" + std::to_string(st.output_insts) + "/" +
                       std::to_string(st.guards_inserted) + "/" +
                       std::to_string(st.guards_elided_sp) + "/" +
                       std::to_string(st.guards_hoisted) + "/" +
                       std::to_string(st.tbz_rewritten) +
                       " rewrite=" + Hex(Fnv(rtext.data(), rtext.size()));
    asmtext::LayoutSpec spec;
    spec.text_offset = runtime::kProgramStart;
    auto img = asmtext::Assemble(*rw, spec);
    if (!img.ok()) {
      *out += line + " assemble-error " + img.error() + "\n";
      continue;
    }
    const auto elf = elf::Write(elf::FromAssembled(*img));
    *out += line + " elf=" + Hex(Fnv(elf.data(), elf.size())) + "\n";
  }
}

// tbz/tbnz whose targets lie beyond the +-32KiB reach once guards are
// inserted, forward and backward, so the range fix rewrites them.
std::string FarTestBranches() {
  std::string src = ".text\n_start:\ntbz x0, #3, .Lfar\n.Lback:\n";
  for (int k = 0; k < 9000; ++k) {
    src += "str x1, [x2, #" + std::to_string(8 * (k % 16)) + "]\n";
    if (k % 7 == 0) src += "add x2, x2, #16\n";
  }
  src += ".Lfar:\ntbnz w4, #1, .Lback\ntbz x5, #40, .Lnear\n.balign 16\n"
         ".Lnear:\nret\n";
  return src;
}

// One input per failure path of each layer.
const char* const kRejected[] = {
    ".text\nfrobnicate x0, x1\n",
    ".text\nadd x0, x1\n",
    ".bogus 1\n",
    ".text\n_start:\nldr x0, [x21]\nret\n",
    ".text\n_start:\nrtcall #99999\n",
    ".data\nadd x0, x1, #1\n",
    ".text\n_start:\nb nowhere\n",
    ".text\n_start:\ntbz x6, #2, .Lnowhere\nret\n",
    ".text\na:\nnop\na:\nret\n",
    ".text\n_start:\nadd x0, x0, :lo12:\nret\n",
    ".bss\nbuf:\n.quad 1\n",
};

std::string Snapshot() {
  std::string out = "# toolchain output golden (see toolchain_golden_test.cc)\n";
  for (const auto& w : workloads::AllWorkloads()) {
    for (uint64_t scale : {500u, 20000u}) {
      Record(w.name + "@" + std::to_string(scale),
             workloads::Generate(w.name, scale), &out);
    }
  }
  const auto corpus = fuzz::SeedCorpusAsm();
  for (size_t k = 0; k < corpus.size(); ++k) {
    Record("corpus#" + std::to_string(k), corpus[k], &out);
  }
  for (uint64_t k = 0; k < 500; ++k) {
    fuzz::Rng rng(fuzz::DeriveSeed(1, k));
    Record("gen#" + std::to_string(k), fuzz::GenAsmProgram(rng), &out);
  }
  Record("far-tbz", FarTestBranches(), &out);
  for (size_t k = 0; k < std::size(kRejected); ++k) {
    Record("rejected#" + std::to_string(k), kRejected[k], &out);
  }
  return out;
}

TEST(ToolchainGolden, OutputMatchesSnapshot) {
  const std::string snapshot = Snapshot();
  const char* golden_path = LFI_TOOLCHAIN_GOLDEN;
  if (std::getenv("LFI_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << snapshot;
    std::printf("updated %s (%zu bytes)\n", golden_path, snapshot.size());
    return;
  }
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << "; regenerate with LFI_UPDATE_GOLDEN=1";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();
  if (snapshot == golden) return;

  std::istringstream want(golden), got(snapshot);
  std::string a, b;
  int shown = 0;
  for (int line = 1; shown < 20; ++line) {
    const bool ha = static_cast<bool>(std::getline(want, a));
    const bool hb = static_cast<bool>(std::getline(got, b));
    if (!ha && !hb) break;
    if (!ha) a = "<missing>";
    if (!hb) b = "<missing>";
    if (a != b) {
      ADD_FAILURE() << "golden line " << line << ":\n  golden: " << a
                    << "\n  actual: " << b;
      ++shown;
    }
  }
  FAIL() << "toolchain output diverged from " << golden_path
         << "; if intentional, regenerate with LFI_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace lfi
