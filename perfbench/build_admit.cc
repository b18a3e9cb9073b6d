// build-admit: untrusted modules from assembly source to a loaded,
// verified, snapshotted sandbox. The seed composes modules from tens of
// KiB to a few MiB of text out of the repo's own generators; each goes
// through the toolchain, the lfi-verify path (ELF read, serial and
// parallel verify), Runtime::Load, and a snapshot capture / serialize /
// deserialize / spawn / run. Unguarded (native) builds of the same
// modules are mixed in and must be rejected, so the verifier's reject
// path runs next to its accept path. Emulation does almost nothing here.

#include <algorithm>
#include <cctype>
#include <iterator>
#include <memory>
#include <set>
#include <span>
#include <thread>

#include "core.h"
#include "elf/elf.h"
#include "fuzz/gen.h"
#include "fuzz/rng.h"
#include "runtime/runtime.h"
#include "snapshot/snapshot.h"
#include "toolchain.h"
#include "verifier/verifier.h"
#include "workloads/workloads.h"

namespace lfi::perfbench {
namespace {

// Target text sizes (bytes of source instructions) of the modules of one
// round. The seed decides what each module is made of, not its size, so
// every seed does about the same amount of work.
const std::vector<uint64_t> kFullSizes = {16 << 10, 64 << 10, 256 << 10,
                                          1024 << 10};
const std::vector<uint64_t> kSmokeSizes = {8 << 10, 16 << 10};

// Programs small enough in memory to be a module's entry program (the
// others reserve up to 64 MiB of bss), and the only part of a module that
// runs.
const char* const kEntryPrograms[] = {"502.gcc", "511.povray",
                                      "531.deepsjeng", "coremark"};
constexpr uint64_t kEntryScale = 2000;
constexpr uint64_t kMaxInsts = uint64_t{200} * 1000 * 1000;

// Verifier texts at or above this size count as "large".
constexpr uint64_t kLargeText = 256 << 10;

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
         c == '.' || c == '$';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '.' || c == '$';
}

// Appends `src` to `out` with every label it defines renamed
// `<prefix><label>`, so any number of copies link into one module.
// `.zero` reservations are capped at `zero_cap` bytes (copies after the
// entry program are never run, so their arrays need no real size).
// Returns the number of instruction lines appended.
uint64_t AppendPrefixed(const std::string& src, const std::string& prefix,
                        uint64_t zero_cap, std::string* out) {
  std::set<std::string> labels;
  size_t pos = 0;
  while (pos < src.size()) {
    size_t nl = src.find('\n', pos);
    if (nl == std::string::npos) nl = src.size();
    size_t k = pos;
    while (k < nl && std::isspace(static_cast<unsigned char>(src[k]))) ++k;
    size_t e = k;
    while (e < nl && IsIdentChar(src[e])) ++e;
    if (e > k && e < nl && src[e] == ':') labels.insert(src.substr(k, e - k));
    pos = nl + 1;
  }
  uint64_t insts = 0;
  pos = 0;
  while (pos < src.size()) {
    size_t nl = src.find('\n', pos);
    if (nl == std::string::npos) nl = src.size();
    const std::string line = src.substr(pos, nl - pos);
    pos = nl + 1;
    const size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    if (line.compare(first, 6, ".zero ") == 0 && zero_cap > 0) {
      const uint64_t n = std::stoull(line.substr(first + 6));
      *out += ".zero " + std::to_string(std::min(n, zero_cap)) + "\n";
      continue;
    }
    bool is_inst = line[first] != '.';
    size_t i = 0;
    while (i < line.size()) {
      if (IsIdentStart(line[i]) &&
          (i == 0 || !IsIdentChar(line[i - 1]))) {
        size_t j = i;
        while (j < line.size() && IsIdentChar(line[j])) ++j;
        const std::string tok = line.substr(i, j - i);
        if (j < line.size() && line[j] == ':' && i == first) {
          is_inst = line.find_first_not_of(" \t", j + 1) != std::string::npos;
        }
        *out += labels.count(tok) ? prefix + tok : tok;
        i = j;
      } else {
        *out += line[i++];
      }
    }
    *out += '\n';
    if (is_inst) ++insts;
  }
  return insts;
}

struct Module {
  uint64_t id = 0;
  bool guarded = true;
  const std::string* src = nullptr;  // shared by the guarded/native pair
};

class BuildAdmit : public Workload {
 public:
  BuildAdmit(uint64_t seed, Scale scale)
      : seed_(seed),
        sizes_(scale == Scale::kFull ? kFullSizes : kSmokeSizes),
        nthreads_(std::max(1u, std::thread::hardware_concurrency())) {}

  void Setup(Tracer& t) override {
    const auto& all = workloads::AllWorkloads();
    std::vector<std::string> progs;
    for (size_t p = 0; p < all.size(); ++p) {
      Scope s(t, "workloads.Generate", p);
      progs.push_back(workloads::Generate(all[p].name, kEntryScale));
      s.bytes(progs.back().size());
    }
    sources_.assign(sizes_.size(), "");
    guards_.assign(sizes_.size(), 0);
    guarded_text_.assign(sizes_.size(), 0);
    native_text_.assign(sizes_.size(), 0);
    for (size_t m = 0; m < sizes_.size(); ++m) {
      fuzz::Rng rng(fuzz::DeriveSeed(seed_, m));
      std::string& src = sources_[m];
      src = ".text\n.globl _start\n_start:\nb p0__start\n";
      // The entry program is fixed per size, not drawn from the seed, so
      // the (small) emulation share is the same for every seed.
      const std::string entry = kEntryPrograms[m % std::size(kEntryPrograms)];
      size_t e = 0;
      while (all[e].name != entry) ++e;
      uint64_t insts = AppendPrefixed(progs[e], "p0_", 0, &src);
      for (uint64_t piece = 1; insts * 4 < sizes_[m]; ++piece) {
        const std::string prefix = "p" + std::to_string(piece) + "_";
        if (rng.Chance(50)) {
          insts += AppendPrefixed(progs[rng.Below(progs.size())], prefix, 64,
                                  &src);
        } else {
          insts += AppendPrefixed(fuzz::GenAsmProgram(rng), prefix, 64, &src);
        }
      }
    }
    // Guarded and native builds of every module, interleaved by the seed.
    order_.clear();
    for (size_t m = 0; m < sources_.size(); ++m) {
      order_.push_back({m, true, &sources_[m]});
      order_.push_back({m + sources_.size(), false, &sources_[m]});
    }
    fuzz::Rng rng(fuzz::DeriveSeed(seed_, 0x4f524452));  // "ORDR"
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.Below(i)]);
    }
  }

  RoundResult Round(Tracer& t) override {
    RoundResult r;
    Fnv fp;
    // Units: the runtime's construction, then each layer call.
    UnitClock clock(&r, t);
    std::unique_ptr<runtime::Runtime> rt;
    {
      Scope s(t, "runtime.Runtime");
      rt = std::make_unique<runtime::Runtime>(runtime::RuntimeConfig{});
    }
    clock.Lap();
    const uint64_t insts0 = rt->machine().timing().Retired();
    for (const Module& mod : order_) {
      ++r.attempted;
      if (!Admit(t, mod, rt.get(), &fp, &clock)) ++r.failed;
    }
    r.sim_insts = rt->machine().timing().Retired() - insts0;
    fp.Add(rt->Cycles());
    fp.Add(r.sim_insts);
    r.ops = r.attempted - r.failed;
    r.fingerprint = fp.value();
    return r;
  }

  void Layers(const std::vector<Span>& spans, int rounds,
              Metrics* m) override {
    (void)rounds;
    // Admission: assembly source to a loaded, verified sandbox; verdict:
    // ELF bytes to a serial verdict. Both over the guarded modules (ids
    // below sources_.size()).
    const uint64_t n = sources_.size();
    double admit_s = 0, verdict_s = 0, small_s = 0, large_s = 0;
    double serial_s = 0, parallel_s = 0;
    uint64_t admit_b = 0, verdict_b = 0, small_b = 0, large_b = 0;
    uint64_t parallel_b = 0;
    std::vector<double> reject_s;
    for (const Span& s : spans) {
      const std::string name = s.name;
      if (name == "verifier.Verify" && s.failed) reject_s.push_back(s.dur());
      if (s.id >= n || s.failed) continue;
      if (name == "asmtext.Parse") admit_b += s.bytes;
      if (name == "asmtext.Parse" || name == "rewriter.Rewrite" ||
          name == "asmtext.Assemble" || name == "elf.Write" ||
          name == "runtime.Load") {
        admit_s += s.dur();
      }
      if (name == "elf.Read") verdict_s += s.dur();
      if (name == "verifier.Verify") {
        verdict_s += s.dur();
        verdict_b += s.bytes;
        serial_s += s.dur();
        (s.bytes >= kLargeText ? large_s : small_s) += s.dur();
        (s.bytes >= kLargeText ? large_b : small_b) += s.bytes;
      }
      if (name == "verifier.VerifyParallel") {
        parallel_s += s.dur();
        parallel_b += s.bytes;
      }
    }
    auto mbps = [](uint64_t b, double secs) {
      return secs > 0 ? b / secs / 1e6 : 0.0;
    };
    m->Set("admit_mb_per_s", mbps(admit_b, admit_s), "MB/s");
    m->Set("verdict_mb_per_s", mbps(verdict_b, verdict_s), "MB/s");
    m->Set("verifier.verify_mb_per_s.small", mbps(small_b, small_s), "MB/s");
    m->Set("verifier.verify_mb_per_s.large", mbps(large_b, large_s), "MB/s");
    m->Set("verifier.parallel_mb_per_s", mbps(parallel_b, parallel_s),
           "MB/s");
    m->Set("verifier.parallel_speedup",
           parallel_s > 0 ? serial_s / parallel_s : 0, "x");
    m->SetTimingUs("verifier.reject_us", reject_s);
    uint64_t guards = 0, guarded = 0, native = 0;
    for (size_t i = 0; i < n; ++i) {
      guards += guards_[i];
      guarded += guarded_text_[i];
      native += native_text_[i];
    }
    m->Set("rewriter.guards_inserted", static_cast<double>(guards), "count");
    m->Set("rewriter.text_growth_pct",
           native ? 100.0 * guarded / native - 100.0 : 0, "%");
  }

 private:
  // One module through the pipeline; false when a check fails. Each
  // layer call is one unit of `clock`.
  bool Admit(Tracer& t, const Module& mod, runtime::Runtime* rt, Fnv* fp,
             UnitClock* clock) {
    Built b = BuildModule(t, *mod.src, mod.guarded, mod.id, clock);
    if (!b.ok) return false;
    const size_t m = mod.id % sources_.size();
    (mod.guarded ? guarded_text_ : native_text_)[m] = b.text_bytes;
    if (mod.guarded) guards_[m] = b.stats.guards_inserted;
    // The lfi-verify path: ELF bytes to a verdict, serial and sharded.
    Result<elf::ElfImage> img = [&] {
      Scope s(t, "elf.Read", mod.id);
      s.bytes(b.elf.size());
      auto res = elf::Read({b.elf.data(), b.elf.size()});
      s.failed(!res.ok());
      return res;
    }();
    clock->Lap();
    if (!img) return false;
    std::span<const uint8_t> text;
    for (const auto& seg : img->segments) {
      if (seg.exec) text = {seg.data.data(), seg.data.size()};
    }
    verifier::VerifyResult serial = [&] {
      Scope s(t, "verifier.Verify", mod.id);
      s.bytes(text.size());
      auto res = verifier::Verify(text);
      s.failed(!res.ok);
      return res;
    }();
    clock->Lap();
    verifier::VerifyResult parallel = [&] {
      Scope s(t, "verifier.VerifyParallel", mod.id);
      s.bytes(text.size());
      auto res = verifier::VerifyParallel(text, {}, nthreads_);
      s.failed(!res.ok);
      return res;
    }();
    clock->Lap();
    fp->Add(serial.ok);
    fp->Add(static_cast<uint64_t>(serial.kind));
    fp->Add(serial.fail_offset);
    fp->Add(serial.insts_checked);
    if (serial.ok != parallel.ok || serial.kind != parallel.kind ||
        serial.fail_offset != parallel.fail_offset ||
        serial.insts_checked != parallel.insts_checked ||
        serial.reason != parallel.reason) {
      return false;
    }
    Result<int> pid = [&] {
      Scope s(t, "runtime.Load", mod.id);
      s.bytes(b.elf.size());
      auto res = rt->Load({b.elf.data(), b.elf.size()});
      s.failed(!res.ok());
      return res;
    }();
    clock->Lap();
    if (!mod.guarded) {
      // An unguarded module must be refused, with a stated reason.
      return !serial.ok && serial.kind != verifier::FailKind::kNone &&
             !pid.ok();
    }
    if (!serial.ok || !pid.ok()) return false;
    // Snapshot round trip: the deserialized image must spawn a sandbox
    // that exits exactly as the loaded module does.
    Result<snapshot::Snapshot> snap = [&] {
      Scope s(t, "runtime.CaptureSnapshot", mod.id);
      auto res = rt->CaptureSnapshot(*pid);
      s.failed(!res.ok());
      return res;
    }();
    clock->Lap();
    if (!snap) return false;
    std::vector<uint8_t> bytes;
    {
      Scope s(t, "snapshot.Serialize", mod.id);
      bytes = snapshot::Serialize(*snap);
      s.bytes(bytes.size());
    }
    clock->Lap();
    Result<snapshot::Snapshot> back = [&] {
      Scope s(t, "snapshot.Deserialize", mod.id);
      s.bytes(bytes.size());
      auto res = snapshot::Deserialize(bytes);
      s.failed(!res.ok());
      return res;
    }();
    clock->Lap();
    if (!back) return false;
    Result<int> spawned = [&] {
      Scope s(t, "runtime.SpawnFromSnapshot", mod.id);
      auto res = rt->SpawnFromSnapshot(
          std::make_shared<const snapshot::Snapshot>(*std::move(back)));
      s.failed(!res.ok());
      return res;
    }();
    clock->Lap();
    if (!spawned) return false;
    {
      Scope s(t, "runtime.RunUntilIdle", mod.id);
      rt->RunUntilIdle(kMaxInsts);
    }
    clock->Lap();
    const runtime::Proc* a = rt->proc(*pid);
    const runtime::Proc* c = rt->proc(*spawned);
    if (a == nullptr || c == nullptr) return false;
    fp->Add(static_cast<uint64_t>(a->exit_status));
    return a->exit_kind == runtime::ExitKind::kExited &&
           c->exit_kind == runtime::ExitKind::kExited &&
           a->exit_status == c->exit_status;
  }

  uint64_t seed_;
  std::vector<uint64_t> sizes_;
  unsigned nthreads_;
  std::vector<std::string> sources_;
  std::vector<Module> order_;
  // Per module, from the latest build.
  std::vector<uint64_t> guards_, guarded_text_, native_text_;
};

}  // namespace

std::unique_ptr<Workload> MakeBuildAdmit(uint64_t seed, Scale scale) {
  return std::make_unique<BuildAdmit>(seed, scale);
}

}  // namespace lfi::perfbench
