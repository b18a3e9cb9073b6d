// VerifyParallel must be bit-identical to serial Verify():
// same verdict, FailKind, first-fail offset, and deterministic stats,
// regardless of thread count and shard boundaries. The context-sensitive
// rules (sp forward scan, x30 lookahead) are placed deliberately across
// shard boundaries.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "asmtext/assemble.h"
#include "asmtext/parser.h"
#include "verifier/verifier.h"

namespace lfi::verifier {
namespace {

std::vector<uint8_t> AssembleRaw(const std::string& src) {
  auto f = asmtext::Parse(src);
  EXPECT_TRUE(f.ok()) << (f.ok() ? "" : f.error());
  asmtext::LayoutSpec spec;
  auto img = asmtext::Assemble(*f, spec);
  EXPECT_TRUE(img.ok()) << (img.ok() ? "" : img.error());
  return img.ok() ? img->text : std::vector<uint8_t>{};
}

// A module of `n` instructions: nops everywhere except the lines in
// `at` (index -> asm line). Large enough (>2048 insts) to engage the
// sharded path.
std::vector<uint8_t> BigModule(size_t n,
                               const std::vector<std::pair<size_t, std::string>>& at) {
  std::string src;
  src.reserve(n * 12);
  for (size_t i = 0; i < n; ++i) {
    std::string line = "nop";
    for (const auto& [idx, text] : at) {
      if (idx == i) line = text;
    }
    src += line;
    src += "\n";
  }
  return AssembleRaw(src);
}

void ExpectIdentical(const VerifyResult& serial, const VerifyResult& par,
                     const std::string& what) {
  EXPECT_EQ(par.ok, serial.ok) << what;
  EXPECT_EQ(par.kind, serial.kind) << what;
  EXPECT_EQ(par.fail_offset, serial.fail_offset) << what;
  EXPECT_EQ(par.reason, serial.reason) << what;
  EXPECT_EQ(par.insts_checked, serial.insts_checked) << what;
}

void ExpectStatsIdentical(const VerifyStats& serial, const VerifyStats& par,
                          const std::string& what) {
  EXPECT_EQ(par.calls, serial.calls) << what;
  EXPECT_EQ(par.insts_checked, serial.insts_checked) << what;
  EXPECT_EQ(par.fail_counts, serial.fail_counts) << what;
}

void CheckAllThreadCounts(std::span<const uint8_t> text,
                          const VerifyOptions& opts, const std::string& what) {
  VerifyStats sstats;
  const VerifyResult serial = Verify(text, opts, &sstats);
  for (unsigned nthreads : {1u, 2u, 3u, 8u}) {
    VerifyStats pstats;
    const VerifyResult par = VerifyParallel(text, opts, nthreads, &pstats);
    const std::string ctx = what + " nthreads=" + std::to_string(nthreads);
    ExpectIdentical(serial, par, ctx);
    ExpectStatsIdentical(sstats, pstats, ctx);
  }
}

TEST(VerifyParallel, IdenticalOnAcceptedModules) {
  for (size_t n : {1u, 7u, 2047u, 2048u, 2049u, 4096u}) {
    CheckAllThreadCounts(BigModule(n, {}), {},
                         "nop module n=" + std::to_string(n));
  }
}

TEST(VerifyParallel, IdenticalOnFailuresAtShardBoundaries) {
  // svc at various positions, including the first/last instruction of the
  // 2-shard split of a 4096-instruction module.
  for (size_t pos : {0u, 1u, 1023u, 1024u, 2047u, 2048u, 4095u}) {
    auto text = BigModule(4096, {{pos, "svc #0"}});
    CheckAllThreadCounts(text, {}, "svc at " + std::to_string(pos));
  }
}

TEST(VerifyParallel, FirstFailureWinsAcrossShards) {
  // Failures in different shards: the reported offset must be the FIRST
  // one, even though a later shard finds its failure earlier in wall time.
  auto text = BigModule(4096, {{100, "ldr x0, [x1]"}, {3000, "svc #0"}});
  VerifyStats st;
  const VerifyResult serial = Verify(text, {}, &st);
  EXPECT_FALSE(serial.ok);
  EXPECT_EQ(serial.fail_offset, 100u * 4);
  EXPECT_EQ(serial.kind, FailKind::kBadAddressingMode);
  CheckAllThreadCounts(text, {}, "two failures");
}

TEST(VerifyParallel, UndecodableReductionAcrossShards) {
  // Decode-pass failures must also reduce to the minimum offset.
  auto text = BigModule(4096, {});
  // Stamp undecodable words directly (the assembler cannot emit them).
  const uint32_t bad = 0;  // all-zero word is outside the allowlist
  std::memcpy(text.data() + 4 * 2500, &bad, 4);
  std::memcpy(text.data() + 4 * 2100, &bad, 4);
  const VerifyResult serial = Verify(text, {});
  EXPECT_FALSE(serial.ok);
  EXPECT_EQ(serial.kind, FailKind::kUndecodable);
  EXPECT_EQ(serial.fail_offset, 2100u * 4);
  CheckAllThreadCounts(text, {}, "undecodable words");
}

TEST(VerifyParallel, SpScanCrossesShardBoundary) {
  // sp adjust as the last instruction of shard 0, discharging sp access
  // as the first instruction of shard 1 (nthreads=2 splits 4096 at 2048).
  auto ok_text = BigModule(
      4096, {{2047, "sub sp, sp, #32"}, {2048, "str x0, [sp, #8]"}});
  EXPECT_TRUE(Verify(ok_text, {}).ok);
  CheckAllThreadCounts(ok_text, {}, "sp scan across boundary (ok)");

  // Same split, but a branch intervenes before the sp use: must reject at
  // the adjust, from every thread count.
  auto bad_text = BigModule(
      4096, {{2047, "sub sp, sp, #32"}, {2048, "ret"}});
  const VerifyResult serial = Verify(bad_text, {});
  EXPECT_FALSE(serial.ok);
  EXPECT_EQ(serial.kind, FailKind::kSpProtocol);
  EXPECT_EQ(serial.fail_offset, 2047u * 4);
  CheckAllThreadCounts(bad_text, {}, "sp scan across boundary (reject)");
}

TEST(VerifyParallel, LinkRegLookaheadCrossesShardBoundary) {
  // Table load at the shard-0/shard-1 boundary, blr on the other side.
  auto ok_text = BigModule(
      4096, {{2047, "ldr x30, [x21, #24]"}, {2048, "blr x30"}});
  EXPECT_TRUE(Verify(ok_text, {}).ok);
  CheckAllThreadCounts(ok_text, {}, "x30 lookahead across boundary (ok)");

  auto bad_text = BigModule(4096, {{2047, "ldr x30, [x21, #24]"}});
  const VerifyResult serial = Verify(bad_text, {});
  EXPECT_FALSE(serial.ok);
  EXPECT_EQ(serial.kind, FailKind::kLinkRegProtocol);
  EXPECT_EQ(serial.fail_offset, 2047u * 4);
  CheckAllThreadCounts(bad_text, {}, "x30 lookahead across boundary (reject)");
}

TEST(VerifyParallel, IdenticalUnderNonDefaultOptions) {
  VerifyOptions opts;
  opts.check_loads = false;
  opts.allow_llsc = false;
  opts.guard_bytes = 4096;
  opts.table_bytes = 32;
  auto text = BigModule(4096, {{10, "ldr x0, [x1]"},   // ok: loads unchecked
                               {3000, "ldxr x2, [x18]"}});  // llsc rejected
  const VerifyResult serial = Verify(text, opts);
  EXPECT_FALSE(serial.ok);
  EXPECT_EQ(serial.kind, FailKind::kLlscDisallowed);
  EXPECT_EQ(serial.fail_offset, 3000u * 4);
  CheckAllThreadCounts(text, opts, "non-default options");
}

TEST(VerifyParallel, OddSizedTextRejectedIdentically) {
  const std::vector<uint8_t> text = {1, 2, 3};
  CheckAllThreadCounts(text, {}, "odd-sized text");
}

TEST(VerifyParallel, RandomizedDifferential) {
  // Mostly-garbage instruction streams: decode-pass first-fail reduction
  // under adversarial content. Deterministic LCG, no external entropy.
  uint64_t s = 0x9E3779B97F4A7C15ull;
  auto next = [&s]() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(s >> 32);
  };
  for (int round = 0; round < 20; ++round) {
    std::vector<uint8_t> text(4096 * 4);
    for (size_t i = 0; i < text.size() / 4; ++i) {
      // Bias half the words towards nop so some prefixes decode.
      uint32_t w = (next() & 1) ? 0xD503201Fu : next();
      std::memcpy(text.data() + i * 4, &w, 4);
    }
    CheckAllThreadCounts(text, {}, "random round " + std::to_string(round));
  }
}

}  // namespace
}  // namespace lfi::verifier
