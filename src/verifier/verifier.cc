#include "verifier/verifier.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "arch/decode.h"
#include "arch/inst.h"

namespace lfi::verifier {

namespace {

using arch::AddrMode;
using arch::Inst;
using arch::Mn;
using arch::Reg;
using arch::Width;

// A classified rule violation; kind == kNone means the check passed.
// Reasons are static strings, so a scan allocates nothing.
struct Violation {
  FailKind kind = FailKind::kNone;
  const char* reason = nullptr;
  bool ok() const { return kind == FailKind::kNone; }
};

// True if `r` is a register that is architecturally guaranteed (by the
// invariants this verifier enforces) to hold a valid sandbox address:
// x18, x21, x23, x24.
bool IsAddressReg(Reg r) { return arch::IsAddressReserved(r); }

// Checks the addressing of one memory access. `i` must be a memory access.
Violation CheckAccess(const Inst& i, const VerifyOptions& opts) {
  const auto& m = i.mem;
  // Total footprint of the access (pair accesses touch 2*msize).
  const uint64_t footprint =
      (i.mn == Mn::kLdp || i.mn == Mn::kStp) ? 2u * i.msize : i.msize;

  if (m.IsRegOffset()) {
    // Only the guarded mode is safe: base x21, 32-bit zero-extended index,
    // no shift (a shifted index could scale past the 4GiB slot).
    if (m.mode != AddrMode::kRegUxtw) {
      return {FailKind::kBadAddressingMode,
              "register-offset access without uxtw"};
    }
    if (m.base != arch::kRegBase) {
      return {FailKind::kBadAddressingMode,
              "guarded addressing mode requires base x21"};
    }
    if (m.shift != 0) {
      return {FailKind::kBadAddressingMode,
              "guarded addressing mode must use shift #0"};
    }
    return {};
  }

  // Immediate modes: base must be a reserved address register or sp.
  if (!IsAddressReg(m.base) && !m.base.IsSp()) {
    return {FailKind::kBadAddressingMode,
            "memory access through unguarded base register"};
  }
  // Writeback modifies the base: only sp may be updated this way (the
  // +-256-byte index stays well inside the guard region, Section 4.2).
  if (m.HasWriteback() && !m.base.IsSp()) {
    return {FailKind::kReservedWriteback,
            "writeback addressing on a reserved register"};
  }
  // The offset must not be able to escape past a guard region even when
  // the base sits at the very edge of the sandbox.
  const int64_t lo = m.imm;
  const int64_t hi = m.imm + static_cast<int64_t>(footprint);
  if (lo < -static_cast<int64_t>(opts.guard_bytes) ||
      hi > static_cast<int64_t>(opts.guard_bytes)) {
    return {FailKind::kGuardRangeOverflow,
            "immediate offset reaches past the guard region"};
  }
  return {};
}

// True if this instruction is `blr x30`.
bool IsBlrX30(const Inst& i) {
  return i.mn == Mn::kBlr && i.rn == arch::kRegLink;
}

// True if `i` is a valid runtime-call-table load: ldr x30, [x21, #n]
// with n inside the table.
bool IsTableLoad(const Inst& i, const VerifyOptions& opts) {
  return i.mn == Mn::kLdr && !i.msigned && i.msize == 8 &&
         i.rt == arch::kRegLink && i.mem.base == arch::kRegBase &&
         i.mem.mode == AddrMode::kImm && i.mem.imm >= 0 &&
         static_cast<uint64_t>(i.mem.imm) + 8 <= opts.table_bytes;
}

// What an instruction that passed its own checks still requires of its
// successors: the Section 5.2 context rules for x30 and sp.
enum class Need : uint8_t {
  kNone,
  kBlrX30,    // call-table load of x30: the next instruction is blr x30
  kX30Guard,  // any other load of x30: the next instruction is its guard
  kSpAccess,  // small sp adjust: an sp-based access or the sp guard comes
              // before any branch, further sp write or the end of the text
};

// Checks writes to reserved registers in `i`. A write whose legality
// depends on later instructions passes here and is reported via `need`.
Violation CheckReservedWrites(const Inst& i, const VerifyOptions& opts,
                              Need* need) {
  // x21 (sandbox base): never written, through any channel.
  if (arch::WritesGpr(i, arch::kRegBase)) {
    return {FailKind::kBaseRegWrite, "write to x21"};
  }

  // x18/x23/x24: only the guard.
  static constexpr std::pair<Reg, const char*> kAddressRegs[] = {
      {arch::kRegAddr, "unguarded write to x18"},
      {arch::kRegHoist0, "unguarded write to x23"},
      {arch::kRegHoist1, "unguarded write to x24"},
  };
  for (const auto& [r, reason] : kAddressRegs) {
    if (arch::WritesGpr(i, r) && !arch::IsGuardFor(i, r)) {
      return {FailKind::kAddressRegWrite, reason};
    }
  }

  // x22: any write must zero the top 32 bits.
  if (arch::WritesGpr(i, arch::kRegScratch) &&
      !arch::WriteZeroExtends(i, arch::kRegScratch)) {
    return {FailKind::kScratchRegWrite,
            "64-bit write to x22 breaks its 32-bit invariant"};
  }

  // x30: guard, bl/blr, or a load that the next instruction consumes (a
  // table load by blr x30) or re-guards (e.g. an epilogue ldp).
  if (arch::WritesGpr(i, arch::kRegLink)) {
    const bool by_branch = i.mn == Mn::kBl || i.mn == Mn::kBlr;
    const bool by_guard = arch::IsGuardFor(i, arch::kRegLink);
    if (!by_branch && !by_guard) {
      if (IsTableLoad(i, opts)) {
        *need = Need::kBlrX30;
      } else if (arch::IsLoad(i)) {
        *need = Need::kX30Guard;
      } else {
        return {FailKind::kLinkRegProtocol, "unguarded write to x30"};
      }
    }
  }

  // sp: guard, small add/sub with an in-block sp access following, or
  // pre/post-index writeback (already restricted to sp in CheckAccess;
  // the imm9 encoding bounds the step to +-256 bytes).
  if (arch::WritesGpr(i, Reg::Sp())) {
    if (arch::IsMemAccess(i) || arch::IsSpGuard(i)) return {};
    const bool small_adjust =
        (i.mn == Mn::kAddImm || i.mn == Mn::kSubImm) && i.rn.IsSp() &&
        i.rd.IsSp() && i.width == Width::kX && i.imm < 1024;
    if (!small_adjust) {
      return {FailKind::kSpProtocol, "unguarded write to sp"};
    }
    *need = Need::kSpAccess;
  }
  return {};
}

// The per-instruction check: allowlist/system, ll/sc, memory addressing,
// indirect branches, then reserved-register writes, in that order, since
// precedence is observable through FailKind when one instruction violates
// several rules at once.
Violation CheckInst(const Inst& i, const VerifyOptions& opts, Need* need) {
  // Property 3: instruction allowlist. The decoder already rejects
  // everything outside the supported ARMv8.0 subset; system instructions
  // that do decode are forbidden here.
  if (i.mn == Mn::kSvc || i.mn == Mn::kMrs || i.mn == Mn::kMsr) {
    return {FailKind::kSystemInstruction, "system instruction"};
  }
  if (!opts.allow_llsc && (i.mn == Mn::kLdxr || i.mn == Mn::kStxr)) {
    return {FailKind::kLlscDisallowed,
            "ll/sc disallowed (timerless side-channel mitigation)"};
  }

  // Property 1a: memory accesses.
  if (arch::IsMemAccess(i)) {
    const bool pure_load = arch::IsLoad(i) && !arch::IsStore(i);
    if (opts.check_loads || !pure_load) {
      if (auto v = CheckAccess(i, opts); !v.ok()) return v;
    } else if (i.mem.HasWriteback() && !i.mem.base.IsSp() &&
               arch::IsReservedGpr(i.mem.base)) {
      return {FailKind::kReservedWriteback,
              "writeback on reserved register"};
    }
  }

  // Property 1b: indirect branches.
  if (arch::IsIndirectBranch(i)) {
    if (!IsAddressReg(i.rn) && i.rn != arch::kRegLink) {
      return {FailKind::kUnguardedIndirectBranch,
              "indirect branch through unguarded register"};
    }
  }

  // Property 2: reserved-register integrity.
  return CheckReservedWrites(i, opts, need);
}

// How an instruction settles a pending Need::kSpAccess.
enum class SpEvent : uint8_t {
  kNone,         // leaves it pending
  kDischarge,    // sp-based access or the sp guard: satisfied
  kBranch,       // a branch, or the end of the text: violated
  kSecondWrite,  // another sp write: violated
};

SpEvent SpEventOf(const Inst& n) {
  if (arch::IsBranch(n)) return SpEvent::kBranch;
  if (arch::IsMemAccess(n) && n.mem.base.IsSp()) return SpEvent::kDischarge;
  if (arch::IsSpGuard(n)) return SpEvent::kDischarge;
  if (arch::WritesGpr(n, Reg::Sp())) return SpEvent::kSecondWrite;
  return SpEvent::kNone;
}

constexpr uint64_t kNoOffset = UINT64_MAX;

struct Failure {
  uint64_t offset = kNoOffset;
  FailKind kind = FailKind::kNone;
  const char* reason = nullptr;
  bool found() const { return offset != kNoOffset; }
};

// The state of one linear scan over the byte range [lo, hi). The verdict
// for instruction k depends only on k and its successors, so a scan that
// starts with no context computes every verdict inside its range except
// the two it leaves open at `hi` (one x30 and one sp requirement). The
// prefix summary (`first`, `first_sp`) is what a requirement left open
// by the preceding range needs to be settled; see Join().
struct Scan {
  uint64_t hi = 0;      // end of the range
  uint64_t undecodable = kNoOffset;  // first undecodable word; ends the scan
  Failure check;        // lowest check failure whose verdict is settled,
                        // or found above a still-pending sp adjust
  Need link = Need::kNone;       // x30 requirement of the word at hi - 4
  uint64_t sp_adjust = kNoOffset;  // offset of a pending small sp adjust
  std::optional<Inst> first;     // the instruction at lo
  SpEvent first_sp = SpEvent::kNone;  // first sp event in [lo, hi)
};
// Workers hand their scans back without touching the heap.
static_assert(std::is_trivially_copyable_v<Scan>);

// Settles a pending sp adjust with event `ev` (kNone leaves it open). A
// violation is charged to the adjust, which lies below any check failure
// found after it.
void SettleSp(Scan* s, SpEvent ev) {
  if (s->sp_adjust == kNoOffset || ev == SpEvent::kNone) return;
  if (ev != SpEvent::kDischarge) {
    s->check = {s->sp_adjust, FailKind::kSpProtocol,
                ev == SpEvent::kBranch
                    ? "sp adjusted without a following in-block access"
                    : "sp adjusted twice without an access"};
  }
  s->sp_adjust = kNoOffset;
}

// Settles the x30 requirement of the instruction at `off` against its
// successor `next` (null at the end of the text).
void SettleLink(Scan* s, uint64_t off, const Inst* next) {
  const Need need = std::exchange(s->link, Need::kNone);
  if (need == Need::kBlrX30 && !(next && IsBlrX30(*next))) {
    s->check = {off, FailKind::kLinkRegProtocol,
                "call-table load of x30 not followed by blr x30"};
  } else if (need == Need::kX30Guard &&
             !(next && arch::IsGuardFor(*next, arch::kRegLink))) {
    s->check = {off, FailKind::kLinkRegProtocol,
                "load of x30 not followed by its guard"};
  }
}

// Scans [lo, hi) of `text` with no incoming context. After the first
// check failure only decoding (an undecodable word outranks it), the
// pending sp adjust below it and the prefix summary continue.
Scan ScanRange(std::span<const uint8_t> text, uint64_t lo, uint64_t hi,
               const VerifyOptions& opts) {
  Scan s;
  s.hi = hi;
  for (uint64_t off = lo; off < hi; off += 4) {
    auto inst = arch::Decode(arch::ReadWordLE(text, off));
    if (!inst) {
      s.undecodable = off;
      break;
    }
    const Inst& i = *inst;
    if (off == lo) s.first = i;
    if (s.first_sp == SpEvent::kNone || s.sp_adjust != kNoOffset) {
      const SpEvent ev = SpEventOf(i);
      if (s.first_sp == SpEvent::kNone) s.first_sp = ev;
      SettleSp(&s, ev);
    }
    if (s.check.found()) continue;
    if (s.link != Need::kNone) {
      SettleLink(&s, off - 4, &i);
      if (s.check.found()) continue;
    }
    Need need = Need::kNone;
    if (auto v = CheckInst(i, opts, &need); !v.ok()) {
      s.check = {off, v.kind, v.reason};
    } else if (need == Need::kSpAccess) {
      s.sp_adjust = off;
    } else {
      s.link = need;
    }
  }
  return s;
}

// Folds the scan of the next range `b` (starting at a->hi) into `a`,
// which covers everything before it. Only a's open requirements are
// settled, against b's prefix summary; every verdict inside b is already
// final, so the lowest failure is a's if it has one, else b's.
void Join(Scan* a, const Scan& b) {
  if (a->undecodable != kNoOffset) return;
  a->undecodable = b.undecodable;
  SettleSp(a, b.first_sp);
  if (!a->check.found() && a->link != Need::kNone) {
    SettleLink(a, a->hi - 4, b.first ? &*b.first : nullptr);
  }
  a->link = Need::kNone;
  if (!a->check.found()) {
    a->check = b.check;
    a->link = b.link;
    // b has no sp event at all when a's adjust is still open.
    if (a->sp_adjust == kNoOffset) a->sp_adjust = b.sp_adjust;
  }
  a->hi = b.hi;
}

// The verdict for the whole of `text`: the end of the text acts like a
// branch for a pending sp adjust and like a missing successor for x30.
VerifyResult Finish(std::span<const uint8_t> text, Scan s) {
  SettleSp(&s, SpEvent::kBranch);
  if (!s.check.found() && s.link != Need::kNone) {
    SettleLink(&s, s.hi - 4, nullptr);
  }
  if (const uint64_t off = s.undecodable; off != kNoOffset) {
    return VerifyResult::Fail(
        off, FailKind::kUndecodable,
        "undecodable instruction: " +
            arch::Decode(arch::ReadWordLE(text, off)).error());
  }
  if (s.check.found()) {
    return VerifyResult::Fail(s.check.offset, s.check.kind, s.check.reason);
  }
  return VerifyResult::Ok(s.hi / 4);
}

// Below this many instructions the thread spawn/join overhead dominates
// and the serial pass is both faster and trivially identical.
constexpr size_t kMinShardInsts = 1024;

// The CPUs this thread may run on, its own first. Workers are placed on
// the others explicitly: where the kernel does not balance load across
// CPUs (a cpuset with sched_load_balance=0), a new thread otherwise stays
// on its parent's CPU and the shards run one after another.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return {};
  const int self = sched_getcpu();
  std::vector<int> cpus;
  if (self >= 0 && CPU_ISSET(self, &set)) cpus.push_back(self);
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (c != self && CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void RunOnCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);  // best effort
}

// One range of a sharded verification and what its scan found.
struct Shard {
  std::span<const uint8_t> text;
  uint64_t lo = 0, hi = 0;
  const VerifyOptions* opts = nullptr;
  int cpu = -1;  // the CPU to run on, or -1 to leave placement alone
  Scan scan;
  std::exception_ptr error;
};

void* RunShard(void* arg) {
  Shard& s = *static_cast<Shard*>(arg);
  try {
    if (s.cpu >= 0) RunOnCpu(s.cpu);
    s.scan = ScanRange(s.text, s.lo, s.hi, *s.opts);
  } catch (...) {
    s.error = std::current_exception();
  }
  return nullptr;
}

// Verifies `text` as `shards` contiguous ranges: range 0 on the calling
// thread, the others on workers, then a sequential fold over the seams.
// The split depends only on (size, shards), never on scheduling.
VerifyResult VerifyShards(std::span<const uint8_t> text,
                          const VerifyOptions& opts, unsigned shards,
                          VerifyStats* stats) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 =
      stats != nullptr ? Clock::now() : Clock::time_point{};
  VerifyResult r;
  if (text.size() % 4 != 0) {
    r = VerifyResult::Fail(text.size() & ~uint64_t{3}, FailKind::kTextSize,
                           "text size not a multiple of 4");
  } else if (shards == 1) {  // the common case: no fan-out to set up
    r = Finish(text, ScanRange(text, 0, text.size(), opts));
  } else {
    const uint64_t nwords = text.size() / 4;
    auto bound = [&](unsigned s) { return nwords * s / shards * 4; };
    const std::vector<int> cpus = AllowedCpus();
    std::vector<Shard> part(shards);
    for (unsigned s = 0; s < shards; ++s) {
      const int cpu = s > 0 && cpus.size() > 1 ? cpus[s % cpus.size()] : -1;
      part[s] = {text, bound(s), bound(s + 1), &opts, cpu, {}, {}};
    }
    // Workers are plain pthreads, not std::threads, which free their
    // start-up state on the new thread: that gave each worker a malloc
    // arena and handed chunks back to this thread's arena in finishing
    // order, so the caller's heap layout (and a long run's peak RSS)
    // varied from run to run. A worker here never touches the heap, and
    // nothing from the first start to the last join can throw.
    std::vector<pthread_t> workers;
    workers.reserve(shards - 1);
    for (unsigned s = 1; s < shards; ++s) {
      pthread_t t;
      if (pthread_create(&t, nullptr, RunShard, &part[s]) == 0) {
        workers.push_back(t);
      } else {
        RunShard(&part[s]);  // no thread to spare: scan it here
      }
    }
    RunShard(&part[0]);
    for (pthread_t t : workers) pthread_join(t, nullptr);
    for (const Shard& b : part) {
      if (b.error) std::rethrow_exception(b.error);
    }
    Scan whole = part[0].scan;
    for (unsigned s = 1; s < shards; ++s) Join(&whole, part[s].scan);
    r = Finish(text, whole);
  }
  if (stats != nullptr) {
    ++stats->calls;
    ++stats->fail_counts[static_cast<size_t>(r.kind)];
    stats->insts_checked += r.insts_checked;
    stats->seconds +=
        std::chrono::duration<double>(Clock::now() - t0).count();
  }
  return r;
}

}  // namespace

const char* FailKindName(FailKind k) {
  switch (k) {
    case FailKind::kNone: return "none";
    case FailKind::kTextSize: return "text-size";
    case FailKind::kUndecodable: return "undecodable";
    case FailKind::kSystemInstruction: return "system-instruction";
    case FailKind::kLlscDisallowed: return "llsc-disallowed";
    case FailKind::kBadAddressingMode: return "bad-addressing-mode";
    case FailKind::kGuardRangeOverflow: return "guard-range-overflow";
    case FailKind::kReservedWriteback: return "reserved-writeback";
    case FailKind::kUnguardedIndirectBranch:
      return "unguarded-indirect-branch";
    case FailKind::kBaseRegWrite: return "base-reg-write";
    case FailKind::kAddressRegWrite: return "address-reg-write";
    case FailKind::kScratchRegWrite: return "scratch-reg-write";
    case FailKind::kLinkRegProtocol: return "link-reg-protocol";
    case FailKind::kSpProtocol: return "sp-protocol";
    case FailKind::kCount: break;
  }
  return "?";
}

VerifyResult Verify(std::span<const uint8_t> text,
                    const VerifyOptions& opts, VerifyStats* stats) {
  return VerifyShards(text, opts, 1, stats);
}

VerifyResult VerifyParallel(std::span<const uint8_t> text,
                            const VerifyOptions& opts, unsigned nthreads,
                            VerifyStats* stats) {
  if (nthreads == 0) nthreads = std::thread::hardware_concurrency();
  const size_t nwords = text.size() / 4;
  const unsigned shards =
      nwords < 2 * kMinShardInsts
          ? 1
          : static_cast<unsigned>(std::clamp<size_t>(
                nwords / kMinShardInsts, 1, std::max(nthreads, 1u)));
  return VerifyShards(text, opts, shards, stats);
}

}  // namespace lfi::verifier
