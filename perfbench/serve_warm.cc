// serve-warm: seeded open-loop Poisson traffic from 4 tenants, at a fixed
// rate below the warm pool's saturation, served by serve::Server over a
// SpawnPool. The handler is short and dirties a few pages of its 1 MiB
// data, so every Recycle restores real pages. Runtime spawn/recycle and
// the serving control plane dominate; long-running emulation is absent.
//
// The traced run also drives the same request count straight through
// SpawnPool::Take -> Runtime::RunUntilIdle -> SpawnPool::Recycle, so the
// control plane's share of a request falls out by difference.

#include <memory>
#include <vector>

#include "core.h"
#include "emu/address_space.h"
#include "runtime/runtime.h"
#include "runtime/spawn_pool.h"
#include "serve/serve.h"
#include "toolchain.h"

namespace lfi::perfbench {
namespace {

constexpr uint64_t kFullRequests = 2000;
constexpr uint64_t kSmokeRequests = 48;
// In-flight cap of the server, and the batch size of the traced direct
// drive, which runs requests the way the server does: a batch of
// sandboxes taken, run together, and recycled.
constexpr uint32_t kConcurrency = 8;
static_assert(kFullRequests % kConcurrency == 0 &&
              kSmokeRequests % kConcurrency == 0);
// Offered load in requests per million simulated cycles. With this
// handler the pool saturates near 1900 (README.md); about half of that
// keeps the queue short, so no request should be shed.
constexpr uint64_t kRatePerMcycle = 900;
constexpr int kDirtyPages = 4;
// Server steps per timed unit of a round, about 4 ms of host time. The
// steps of a round are the same every round (the simulation is
// deterministic), so each unit repeats the same work.
constexpr uint64_t kStepsPerUnit = 256;

std::string HandlerSource() {
  return R"(
    movz x19, #300
  spin:
    sub x19, x19, #1
    cbnz x19, spin
    adrp x3, payload
    add x3, x3, :lo12:payload
    movz x5, #)" + std::to_string(emu::kPageSize) + R"(
    mov x4, #)" + std::to_string(kDirtyPages) + R"(
  dirty:
    str x4, [x3]
    add x3, x3, x5
    sub x4, x4, #1
    cbnz x4, dirty
    adrp x1, msg
    add x1, x1, :lo12:msg
    mov x0, #1
    mov x2, #2
    rtcall #1
    mov x0, #0
    rtcall #0
  .data
  msg:
    .asciz "ok"
  payload:
    .zero 1048576
)";
}

class ServeWarm : public Workload {
 public:
  ServeWarm(uint64_t seed, Scale scale)
      : seed_(seed),
        requests_(scale == Scale::kFull ? kFullRequests : kSmokeRequests) {}

  void Setup(Tracer& t) override {
    pool_.reset();
    rt_.reset();
    ok_ = false;
    const Built b = BuildModule(t, HandlerSource(), /*guarded=*/true, 0);
    if (!b.ok) return;
    {
      Scope s(t, "runtime.Runtime");
      rt_ = std::make_unique<runtime::Runtime>(runtime::RuntimeConfig{});
    }
    Result<int> pid = [&] {
      Scope s(t, "runtime.Load");
      s.bytes(b.elf.size());
      auto res = rt_->Load({b.elf.data(), b.elf.size()});
      s.failed(!res.ok());
      return res;
    }();
    if (!pid) return;
    Result<snapshot::Snapshot> snap = [&] {
      Scope s(t, "runtime.CaptureSnapshot");
      auto res = rt_->CaptureSnapshot(*pid);
      s.failed(!res.ok());
      return res;
    }();
    if (!snap) return;
    // The template only provides the image; it never serves.
    if (!rt_->Kill(*pid, "template").ok()) return;
    pool_ = std::make_unique<runtime::SpawnPool>(
        rt_.get(),
        std::make_shared<const snapshot::Snapshot>(*std::move(snap)));
    {
      Scope s(t, "runtime.SpawnPool.Prewarm");
      pool_->Prewarm(static_cast<int>(Config().pool_min));
    }
    ok_ = true;
  }

  RoundResult Round(Tracer& t) override {
    RoundResult r;
    r.attempted = requests_;
    if (!ok_) {
      r.failed = requests_;
      return r;
    }
    UnitClock clock(&r, t);
    const uint64_t insts0 = rt_->machine().timing().Retired();
    serve::Server srv(rt_.get(), Config(), pool_.get());
    for (uint64_t step = 1;; ++step) {
      {
        Scope s(t, "serve.Server.Step", step);
        if (!srv.Step()) break;
      }
      if (step % kStepsPerUnit == 0) clock.Lap();
    }
    clock.Lap();
    const serve::ServeReport& rep = srv.report();
    r.sim_insts = rt_->machine().timing().Retired() - insts0;
    // Shed and failed requests count as failures; so does a run that
    // hit the step backstop or offered fewer requests than configured.
    r.ops = rep.completed;
    r.failed = requests_ - std::min(requests_, rep.completed);
    if (rep.aborted || rep.offered != requests_) r.failed = requests_;
    if (t.on()) completed_ += rep.completed;
    req_per_mcycle_ = rep.ThroughputPerMcycle();
    p99_cycles_ = static_cast<double>(rep.LatencyPercentile(99));
    warm_hit_ratio_ =
        rep.warm_hits + rep.cold_spawns > 0
            ? double(rep.warm_hits) / (rep.warm_hits + rep.cold_spawns)
            : 0;
    Fnv fp;
    fp.Add(rep.outcome_hash);
    fp.Add(rep.end_cycles);
    fp.Add(r.sim_insts);
    r.fingerprint = fp.value();
    return r;
  }

  void TracedExtra(Tracer& t) override {
    if (!ok_) return;
    std::vector<int> pids;
    for (uint64_t i = 0; i < requests_; i += kConcurrency) {
      pids.clear();
      for (uint64_t j = i; j < i + kConcurrency; ++j) {
        Scope s(t, "runtime.SpawnPool.Take", j);
        auto res = pool_->Take();
        s.failed(!res.ok());
        if (!res) return;
        rt_->set_retain_on_exit(*res, true);
        pids.push_back(*res);
      }
      {
        Scope s(t, "runtime.RunUntilIdle", i);
        rt_->RunUntilIdle();
      }
      for (size_t j = 0; j < pids.size(); ++j) {
        Scope s(t, "runtime.SpawnPool.Recycle", i + j);
        s.failed(!pool_->Recycle(pids[j]));
      }
    }
    direct_requests_ += requests_;
  }

  void Layers(const std::vector<Span>& spans, int rounds,
              Metrics* m) override {
    (void)rounds;
    double step_s = 0, direct_s = 0;
    std::vector<double> run_per_req;
    for (const Span& s : spans) {
      const std::string name = s.name;
      if (name == "serve.Server.Step") step_s += s.dur();
      if (s.parent < 0 ||
          std::string(spans[s.parent].name) != "bench.extra") {
        continue;
      }
      direct_s += s.dur();
      if (name == "runtime.RunUntilIdle") {
        run_per_req.push_back(s.dur() / kConcurrency);
      }
    }
    m->SetTimingUs("runtime.run_us_per_req", run_per_req);
    m->Set("serve.control_us_per_req",
           completed_ && direct_requests_
               ? 1e6 * (step_s / completed_ - direct_s / direct_requests_)
               : 0,
           "us");
    m->Set("serve.warm_hit_ratio", warm_hit_ratio_, "ratio");
    m->Set("sim_req_per_mcycle", req_per_mcycle_, "1/Mcycle");
    m->Set("sim_p99_latency_cycles", p99_cycles_, "cycles");
  }

 private:
  serve::ServeConfig Config() const {
    serve::ServeConfig cfg;
    cfg.traffic.kind = serve::TrafficKind::kPoisson;
    cfg.traffic.seed = seed_;
    cfg.traffic.requests = requests_;
    cfg.traffic.rate_per_mcycle = kRatePerMcycle;
    cfg.traffic.tenants = 4;
    cfg.tiers.resize(1);
    cfg.tiers[0].slo_cycles = 20000000;
    cfg.admission.max_queue_depth = 256;
    cfg.max_concurrency = kConcurrency;
    cfg.pool_min = 4;
    cfg.pool_max = 32;
    return cfg;
  }

  uint64_t seed_;
  uint64_t requests_;
  bool ok_ = false;
  std::unique_ptr<runtime::Runtime> rt_;
  std::unique_ptr<runtime::SpawnPool> pool_;  // refers to *rt_
  // Traced-run tallies.
  uint64_t completed_ = 0, direct_requests_ = 0;
  double req_per_mcycle_ = 0, p99_cycles_ = 0, warm_hit_ratio_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeServeWarm(uint64_t seed, Scale scale) {
  return std::make_unique<ServeWarm>(seed, scale);
}

}  // namespace lfi::perfbench
