// spec-mix: the paper's Fig. 3 headline configuration on the production
// backend. The 14 SPEC stand-ins plus coremark, each built native and LFI
// O2, run to completion on both core models; the seed sets the run order.
// Emulation is nearly all of the host time, so this is where emulator
// work (dispatch, timing model, MMU) shows and toolchain work does not.

#include <cmath>
#include <memory>

#include "arch/cost_model.h"
#include "core.h"
#include "fuzz/rng.h"
#include "runtime/runtime.h"
#include "toolchain.h"
#include "trace/trace.h"
#include "workloads/workloads.h"

namespace lfi::perfbench {
namespace {

constexpr uint64_t kFullScale = 20000;
constexpr uint64_t kSmokeScale = 2000;
constexpr uint64_t kMaxInsts = uint64_t{2000} * 1000 * 1000;

struct Prog {
  std::string name;   // "505.mcf"
  std::string short_name;  // "mcf"
  bool spec = true;   // false for coremark (not in the overhead geomean)
  Built native, o2;
};

// One program run of a round: program, build, core model.
struct RunKey {
  size_t prog;
  bool o2;
  size_t core;
};

struct RunOut {
  uint64_t cycles = 0, insts = 0;
  int status = -1;
  bool exited = false;
};

class SpecMix : public Workload {
 public:
  SpecMix(uint64_t seed, Scale scale)
      : scale_(scale == Scale::kFull ? kFullScale : kSmokeScale),
        cores_{arch::GcpT2aLikeParams(), arch::AppleM1LikeParams()} {
    const auto& all = workloads::AllWorkloads();
    for (size_t p = 0; p < all.size(); ++p) {
      for (bool o2 : {false, true}) {
        for (size_t c = 0; c < cores_.size(); ++c) order_.push_back({p, o2, c});
      }
    }
    fuzz::Rng rng(seed);
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.Below(i)]);
    }
  }

  void Setup(Tracer& t) override {
    progs_.clear();
    const auto& all = workloads::AllWorkloads();
    for (size_t p = 0; p < all.size(); ++p) {
      Prog prog;
      prog.name = all[p].name;
      prog.short_name = ShortName(prog.name);
      prog.spec = prog.name != "coremark";
      std::string src;
      {
        Scope s(t, "workloads.Generate", p);
        src = workloads::Generate(prog.name, scale_);
        s.bytes(src.size());
      }
      prog.native = BuildModule(t, src, /*guarded=*/false, p);
      prog.o2 = BuildModule(t, src, /*guarded=*/true, p);
      progs_.push_back(std::move(prog));
    }
  }

  RoundResult Round(Tracer& t) override {
    RoundResult r;
    // [prog][o2][core]
    std::vector<RunOut> outs(progs_.size() * 2 * cores_.size());
    auto slot = [&](size_t p, bool o2, size_t c) -> RunOut& {
      return outs[(p * 2 + (o2 ? 1 : 0)) * cores_.size() + c];
    };
    // Each program run is one unit.
    UnitClock clock(&r, t);
    for (const RunKey& k : order_) {
      ++r.attempted;
      RunOne(t, k, &slot(k.prog, k.o2, k.core), &r);
      clock.Lap();
    }
    // Correctness: every run exits, and every O2 run exits with its
    // native run's checksum status.
    Fnv fp;
    double log_sum = 0;
    int n = 0;
    insts_per_prog_.assign(progs_.size(), 0);
    for (size_t p = 0; p < progs_.size(); ++p) {
      for (size_t c = 0; c < cores_.size(); ++c) {
        const RunOut& nat = slot(p, false, c);
        const RunOut& lfi = slot(p, true, c);
        if (!nat.exited) ++r.failed;
        if (!lfi.exited || lfi.status != nat.status) ++r.failed;
        for (const RunOut* o : {&nat, &lfi}) {
          fp.Add(o->cycles);
          fp.Add(o->insts);
          fp.Add(static_cast<uint64_t>(o->status));
          insts_per_prog_[p] += o->insts;
        }
        if (progs_[p].spec && nat.cycles > 0 && lfi.cycles > 0) {
          log_sum += std::log(static_cast<double>(lfi.cycles) / nat.cycles);
          ++n;
        }
      }
    }
    o2_overhead_pct_ = n > 0 ? 100.0 * (std::exp(log_sum / n) - 1.0) : 0;
    r.ops = r.attempted - r.failed;
    r.fingerprint = fp.value();
    return r;
  }

  void Layers(const std::vector<Span>& spans, int rounds,
              Metrics* m) override {
    std::vector<double> run_s(progs_.size(), 0.0);
    for (const Span& s : spans) {
      if (std::string(s.name) == "runtime.RunUntilIdle") run_s[s.id] += s.dur();
    }
    for (size_t p = 0; p < progs_.size(); ++p) {
      m->Set("emu.minsts_per_s." + progs_[p].short_name,
             run_s[p] > 0 ? insts_per_prog_[p] * rounds / run_s[p] / 1e6 : 0,
             "Minst/s");
    }
    m->Set("emu.block_hit_ratio",
           block_lookups_ ? double(block_hits_) / block_lookups_ : 0, "ratio");
    m->Set("emu.mem_ops_per_kinst",
           retired_ ? 1000.0 * mem_ops_ / retired_ : 0, "1/kinst");
    m->Set("emu.guards_per_kinst", retired_ ? 1000.0 * guards_ / retired_ : 0,
           "1/kinst");
    m->Set("o2_overhead_pct", o2_overhead_pct_, "%");
    uint64_t guards = 0, in = 0, out = 0;
    for (const Prog& p : progs_) {
      guards += p.o2.stats.guards_inserted;
      in += p.native.text_bytes;
      out += p.o2.text_bytes;
    }
    m->Set("rewriter.guards_inserted", static_cast<double>(guards), "count");
    m->Set("rewriter.text_growth_pct", in ? 100.0 * out / in - 100.0 : 0, "%");
  }

  // Builds a runtime for one run of the round, loads and runs it.
  void RunOne(Tracer& t, const RunKey& k, RunOut* out, RoundResult* r) {
    const Built& b = k.o2 ? progs_[k.prog].o2 : progs_[k.prog].native;
    if (!b.ok) return;
    runtime::RuntimeConfig cfg;
    cfg.core = cores_[k.core];
    // The native baseline carries no guards, so it runs unverified, as
    // the paper's native configuration does (Section 6.1). LFI builds
    // run under the runtime's default, enforced verification.
    cfg.enforce_verification = k.o2;
    // Declared first so that it outlives the runtime it is attached to.
    trace::TraceSink sink(0);
    std::unique_ptr<runtime::Runtime> rt;
    {
      Scope s(t, "runtime.Runtime", k.prog);
      rt = std::make_unique<runtime::Runtime>(cfg);
    }
    if (t.on()) rt->set_trace_sink(&sink);
    Result<int> pid = [&] {
      Scope s(t, "runtime.Load", k.prog);
      s.bytes(b.elf.size());
      auto res = rt->Load({b.elf.data(), b.elf.size()});
      s.failed(!res.ok());
      return res;
    }();
    if (!pid) return;
    {
      Scope s(t, "runtime.RunUntilIdle", k.prog);
      rt->RunUntilIdle(kMaxInsts);
    }
    const runtime::Proc* p = rt->proc(*pid);
    out->exited = p != nullptr && p->exit_kind == runtime::ExitKind::kExited;
    out->status = p != nullptr ? p->exit_status : -1;
    out->cycles = rt->Cycles();
    out->insts = rt->machine().timing().Retired();
    r->sim_insts += out->insts;
    if (t.on()) {
      for (const auto& [id, m] : sink.all_metrics()) {
        retired_ += m.Get(trace::Counter::kInstRetired);
        guards_ += m.Get(trace::Counter::kGuardsExecuted);
        mem_ops_ += m.Get(trace::Counter::kLoads) +
                    m.Get(trace::Counter::kStores);
        block_hits_ += m.Get(trace::Counter::kBlockCacheHits);
        block_lookups_ += m.Get(trace::Counter::kBlockCacheHits) +
                          m.Get(trace::Counter::kBlockCacheMisses);
      }
    }
  }

 private:
  uint64_t scale_;
  std::vector<arch::CoreParams> cores_;
  std::vector<RunKey> order_;
  std::vector<Prog> progs_;
  std::vector<uint64_t> insts_per_prog_;
  double o2_overhead_pct_ = 0;
  // Execution counters summed over the traced rounds.
  uint64_t retired_ = 0, guards_ = 0, mem_ops_ = 0;
  uint64_t block_hits_ = 0, block_lookups_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeSpecMix(uint64_t seed, Scale scale) {
  return std::make_unique<SpecMix>(seed, scale);
}

}  // namespace lfi::perfbench
