// Byte-mutation test of the assembly-text front end. The parser reads
// untrusted text through raw string views, so every mutant of a valid
// program must either be rejected with an error or round-trip stably:
// Parse -> Print -> Parse succeeds and prints the same text again. Run
// under the asan preset this also checks that no mutant makes the
// tokenizer read out of bounds.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "asmtext/parser.h"
#include "asmtext/printer.h"
#include "fuzz/gen.h"
#include "fuzz/rng.h"
#include "workloads/workloads.h"

namespace lfi {
namespace {

using fuzz::Rng;

bool IsTokenChar(char c) {
  return c != ' ' && c != '\t' && c != '\n' && c != ',';
}

// Applies one mutation to `s`.
void Mutate(Rng& rng, std::string* s) {
  const size_t pos = rng.Below(s->size() + 1);
  switch (rng.Below(4)) {
    case 0:  // truncation
      s->resize(pos);
      break;
    case 1: {  // a structural character or NUL
      static const char kChars[] = {'[', ']', ',', '#', ':', '.', '\0'};
      s->insert(s->begin() + pos, rng.Pick(kChars));
      break;
    }
    case 2: {  // a duplicated token
      size_t b = pos, e = pos;
      while (b > 0 && IsTokenChar((*s)[b - 1])) --b;
      while (e < s->size() && IsTokenChar((*s)[e])) ++e;
      const std::string tok = s->substr(b, e - b);
      s->insert(e, (rng.Chance(50) ? ", " : " ") + tok);
      break;
    }
    default: {  // a long digit run, preferably inside an immediate
      size_t at = pos;
      const size_t hash = s->find('#', pos);
      if (hash != std::string::npos && rng.Chance(70)) at = hash + 1;
      std::string digits;
      const size_t n = 16 + rng.Below(25);
      for (size_t k = 0; k < n; ++k) {
        digits.push_back(static_cast<char>('0' + rng.Below(10)));
      }
      s->insert(at, digits);
      break;
    }
  }
}

std::vector<std::string> Sources() {
  std::vector<std::string> out = fuzz::SeedCorpusAsm();
  for (const auto& w : workloads::AllWorkloads()) {
    out.push_back(workloads::Generate(w.name, 100));
  }
  for (uint64_t k = 0; k < 100; ++k) {
    Rng rng(fuzz::DeriveSeed(7, k));
    out.push_back(fuzz::GenAsmProgram(rng));
  }
  return out;
}

TEST(AsmTextMutation, MutantsFailOrRoundTripStably) {
  const auto sources = Sources();
  size_t parsed = 0, rejected = 0;
  for (size_t src = 0; src < sources.size(); ++src) {
    for (uint64_t m = 0; m < 40; ++m) {
      Rng rng(fuzz::DeriveSeed(src, m));
      std::string mutant = sources[src];
      const size_t n = 1 + rng.Below(3);
      for (size_t k = 0; k < n; ++k) Mutate(rng, &mutant);

      auto first = asmtext::Parse(mutant);
      if (!first.ok()) {
        EXPECT_FALSE(first.error().empty());
        ++rejected;
        continue;
      }
      ++parsed;
      const std::string printed = asmtext::Print(*first);
      auto second = asmtext::Parse(printed);
      ASSERT_TRUE(second.ok())
          << "printed text of an accepted mutant does not parse: "
          << second.error() << "\n--- mutant (source " << src << ", mutant "
          << m << "):\n"
          << mutant << "\n--- printed:\n"
          << printed;
      EXPECT_EQ(second->stmts.size(), first->stmts.size());
      ASSERT_EQ(asmtext::Print(*second), printed)
          << "printing is not a fixpoint (source " << src << ", mutant " << m
          << "):\n"
          << mutant;
    }
  }
  // Both outcomes must actually occur, or the mutators are too weak or
  // too destructive to test anything.
  EXPECT_GT(parsed, 500u);
  EXPECT_GT(rejected, 500u);
}

}  // namespace
}  // namespace lfi
