// The LFI static verifier (Section 5.2).
//
// A small, single-linear-pass checker over the *machine code* of a
// program's text segment. It is the security-critical component: the
// compiler and rewriter are untrusted, and any program whose text passes
// this verifier is safe to run in a sandbox slot regardless of how it was
// produced. The properties enforced are exactly the paper's:
//
//  1. Loads, stores, and indirect branches only target reserved registers
//     (which always hold valid sandbox addresses) or use safe addressing
//     modes ([x21, wN, uxtw] with no shift; immediate offsets that cannot
//     reach past the guard regions).
//  2. Reserved registers are only modified in invariant-preserving ways:
//     x21 never; x18/x23/x24 only via `add xR, x21, wN, uxtw`; x22 only by
//     writes that zero the top 32 bits; x30 only by bl/blr, the guard, or
//     a call-table load immediately followed by `blr x30`; sp only via the
//     `add sp, x21, x22` guard, small add/sub followed in-block by an
//     sp-based access, or pre/post-index writeback.
//  3. Only instructions from the supported ARMv8.0 allowlist appear
//     (undecodable words and system instructions are rejected).
#ifndef LFI_VERIFIER_VERIFIER_H_
#define LFI_VERIFIER_VERIFIER_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>

namespace lfi::verifier {

struct VerifyOptions {
  // When false, loads are not checked (the "no loads" fault-isolation-only
  // configuration in Figure 3).
  bool check_loads = true;
  // Size of each guard region surrounding the sandbox. Immediate offsets
  // must not be able to reach past it.
  uint64_t guard_bytes = 48 * 1024;
  // Bytes of the runtime-call table at the sandbox base that x30 may be
  // loaded from.
  uint64_t table_bytes = 4096;
  // Allow load-linked/store-conditional (ldxr/stxr). Section 7.1: LL/SC
  // enables a timerless cache side channel on Apple M1 (S2C, USENIX Sec
  // '23); with software protection the fix is one verifier switch - the
  // kind of mitigation agility hardware protection cannot offer.
  bool allow_llsc = true;
};

// Stable classification of why a text was rejected. Tools that triage
// verdicts mechanically (the fuzzer, tests, CI) switch on this instead of
// string-matching the free-form `reason`, which stays human-oriented and
// may be reworded freely.
enum class FailKind : uint8_t {
  kNone = 0,                  // ok == true
  kTextSize,                  // text length not a multiple of 4
  kUndecodable,               // word outside the ARMv8.0 allowlist
  kSystemInstruction,         // svc/mrs/msr
  kLlscDisallowed,            // ldxr/stxr with allow_llsc == false
  kBadAddressingMode,         // unguarded base / non-uxtw register offset
  kGuardRangeOverflow,        // immediate offset reaches past a guard region
  kReservedWriteback,         // writeback addressing on a reserved register
  kUnguardedIndirectBranch,   // br/blr/ret through a non-reserved register
  kBaseRegWrite,              // any write to x21
  kAddressRegWrite,           // unguarded write to x18/x23/x24
  kScratchRegWrite,           // 64-bit write to x22
  kLinkRegProtocol,           // x30 written outside the bl/guard/table rules
  kSpProtocol,                // sp written outside the Section 4.2 rules
  kCount,                     // number of kinds (for histogram arrays)
};

// Short stable name for a kind ("sp-protocol", ...), for logs/artifacts.
const char* FailKindName(FailKind k);

struct VerifyResult {
  bool ok = false;
  uint64_t fail_offset = 0;  // byte offset of the offending instruction
  FailKind kind = FailKind::kNone;
  std::string reason;
  uint64_t insts_checked = 0;

  static VerifyResult Ok(uint64_t n) {
    VerifyResult r;
    r.ok = true;
    r.insts_checked = n;
    return r;
  }
  static VerifyResult Fail(uint64_t offset, FailKind kind,
                           std::string reason) {
    VerifyResult r;
    r.fail_offset = offset;
    r.kind = kind;
    r.reason = std::move(reason);
    return r;
  }
};

// Accumulated verification statistics, for observability (`lfi-run
// --stats`). `seconds` is host wall-clock time; being a host time it is
// NOT deterministic and must never feed the simulated-cycle trace.
struct VerifyStats {
  uint64_t calls = 0;             // Verify()/VerifyParallel() invocations
  uint64_t insts_checked = 0;     // instructions in accepted texts
  double seconds = 0;
  // Verdict histogram; index FailKind::kNone counts accepted texts.
  std::array<uint64_t, static_cast<size_t>(FailKind::kCount)> fail_counts{};
};

// Verifies a text segment (little-endian instruction words) in one
// streaming pass: each word is decoded into a local instruction and
// checked once, and the x30 and sp context rules are carried as O(1)
// pending state instead of lookahead over a decoded array. An
// undecodable word anywhere outranks any check failure; otherwise the
// lowest failing offset wins, and an sp-adjust failure is charged to the
// adjust. When `stats` is non-null, the time and verdict are accumulated
// into it.
VerifyResult Verify(std::span<const uint8_t> text,
                    const VerifyOptions& opts = {},
                    VerifyStats* stats = nullptr);

// Sharded verification of one text: the same scan over up to `nthreads`
// contiguous byte ranges on worker threads (0 = hardware concurrency),
// then a sequential reconciliation of the state each shard carries at
// its seams (see docs/VERIFIER.md). The verdict (ok, kind, fail_offset,
// reason, insts_checked) and the deterministic VerifyStats fields (calls,
// insts_checked, fail_counts) are bit-identical to Verify() for every
// input and thread count.
VerifyResult VerifyParallel(std::span<const uint8_t> text,
                            const VerifyOptions& opts = {},
                            unsigned nthreads = 0,
                            VerifyStats* stats = nullptr);

}  // namespace lfi::verifier

#endif  // LFI_VERIFIER_VERIFIER_H_
