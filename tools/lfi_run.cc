// lfi-run: loads one or more LFI ELF executables into sandboxes and runs
// them to completion under the runtime (Section 5.3). Prints each
// sandbox's captured output and exit status.
//
// Observability (docs/OBSERVABILITY.md):
//   --stats        per-sandbox counter table + verifier stats on stderr
//   --trace FILE   Chrome trace_event JSON (open in Perfetto or
//                  chrome://tracing); timestamps come from the simulated
//                  clock, so identical runs produce byte-identical files
//
// Fault policy and limits (docs/FAULTS.md):
//   --policy=kill|signal|restart   fault policy for every sandbox
//   --restart-budget=N             restarts before degrading to kill
//   --max-cycles=N --max-heap=N --max-mmap=N --max-fds=N --max-pipe-buf=N
//                                  per-sandbox resource ceilings (0 = off)
//
// Chaos (deterministic fault injection; same flags => same run):
//   --chaos-seed=N                 enable injection with this seed
//   --chaos-profile=NAME           none|memfault|syscall|sched|storm
//
// Snapshots (docs/SNAPSHOTS.md):
//   --snapshot-out=FILE   capture the first sandbox right after load (the
//                         post-load checkpoint) to FILE, then run normally
//   --snapshot-in=FILE    spawn sandbox(es) from a snapshot file instead
//                         of (or alongside) ELF executables
//   --snapshot-spawn=N    how many sandboxes to spawn from --snapshot-in
//                         (default 1; they share pages copy-on-write)
//
// Serving (docs/SERVING.md): drive synthetic traffic through the handler
// instead of running it once. The handler comes from --snapshot-in, or
// from the first ELF's post-load checkpoint. The deterministic serving
// transcript (ServeReport::Format) goes to stdout — identical flags
// replay byte-identically, chaos included.
//   --serve=N                 serve N requests, then report
//   --serve-arrival=KIND      poisson|bursty|closed (default poisson)
//   --serve-seed=N            traffic seed (default 1)
//   --serve-rate=N            open-loop arrivals per 1M cycles
//   --serve-tenants=N         tenant count (default 4)
//   --serve-concurrency=N     in-flight request cap
//   --serve-queue=N           admission queue depth (shed beyond it)
//   --serve-pool=MIN:MAX      warm-pool sizing bounds
//   --serve-slo=N             per-request latency SLO in cycles
//   --serve-cold              cold-load the ELF per request (no pool)
//   --serve-quota=I:Q         per-tenant caps: I in flight, Q queued
//                             (0 = uncapped)
//   --serve-retries=N         retry budget per request (deadline-aware,
//                             capped exponential backoff)
//   --serve-retry-backoff=B:C backoff base and cap in cycles
//   --serve-breaker=T:O       circuit breaker: open after T consecutive
//                             failures, probe after O cycles
//   --serve-degrade[=A:B:C]   overload ladder on (EWMA depths for
//                             shed-low-tier / no-retry / fast-fail)
//   --chaos-tenants=LIST      comma-separated tenants whose sandboxes the
//                             chaos engine targets (serving mode; other
//                             tenants' sandboxes are never victims)
//
// Contradictory or degenerate serving configs (zero queue, zero SLO with
// retries, a quota wider than the queue, ...) are rejected up front with
// a one-line error and exit status 2.
//
// Usage: lfi-run [--no-verify] [--core=m1|t2a] [--stats] [--trace out.json]
//                [--policy=...] [--chaos-seed=N] prog.elf [prog2.elf ...]
//
// Exit status: program's own status; 1 if a sandbox was killed, deadlocked,
// or the verifier rejected an input (REJECT line mirrors lfi-verify);
// 2 on usage/IO errors. Serving mode: 0, or 1 if the run aborted.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "runtime/runtime.h"
#include "runtime/spawn_pool.h"
#include "serve/serve.h"
#include "snapshot/snapshot.h"
#include "trace/trace.h"

namespace {

// Parses "--name=value" into value; returns false if arg isn't --name=.
bool U64Flag(const std::string& arg, const char* name, uint64_t* out) {
  const std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = std::strtoull(arg.c_str() + prefix.size(), nullptr, 0);
  return true;
}

// End-of-run footer shared by the run-once and serving paths: simulated
// time, then the optional counter/verifier table and Chrome trace
// (docs/OBSERVABILITY.md). Returns `rc` unchanged unless trace IO fails.
int EmitFooter(lfi::runtime::Runtime& rt, lfi::trace::TraceSink& sink,
               const lfi::runtime::RuntimeConfig& cfg, bool want_stats,
               const char* trace_path, int rc) {
  std::fprintf(stderr, "lfi-run: %.1f simulated us on %s\n",
               rt.machine().timing().Nanoseconds() / 1000.0,
               cfg.core.name.c_str());
  if (want_stats) {
    // Counter table + verifier stats go to stderr so program stdout stays
    // clean for pipelines.
    std::ostringstream ss;
    sink.WriteStats(ss, lfi::runtime::RtcallName);
    const auto& vs = rt.verify_stats();
    char line[160];
    snprintf(line, sizeof(line),
             "verifier: %llu call(s), %llu insts checked, %.3f ms\n",
             static_cast<unsigned long long>(vs.calls),
             static_cast<unsigned long long>(vs.insts_checked),
             vs.seconds * 1e3);
    ss << line;
    for (size_t k = 0; k < vs.fail_counts.size(); ++k) {
      if (k == 0 || vs.fail_counts[k] == 0) continue;
      snprintf(line, sizeof(line), "  reject %-24s %llu\n",
               lfi::verifier::FailKindName(
                   static_cast<lfi::verifier::FailKind>(k)),
               static_cast<unsigned long long>(vs.fail_counts[k]));
      ss << line;
    }
    const std::string s = ss.str();
    std::fwrite(s.data(), 1, s.size(), stderr);
  }
  if (trace_path != nullptr) {
    std::ofstream tf(trace_path, std::ios::binary | std::ios::trunc);
    if (!tf) {
      std::fprintf(stderr, "lfi-run: cannot write %s\n", trace_path);
      return 2;
    }
    sink.WriteChromeTrace(tf, cfg.core.ghz, lfi::runtime::RtcallName);
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  lfi::runtime::RuntimeConfig cfg;
  cfg.core = lfi::arch::AppleM1LikeParams();
  std::vector<std::string> paths;
  bool want_stats = false;
  const char* trace_path = nullptr;
  bool chaos_enabled = false;
  uint64_t chaos_seed = 0;
  std::string chaos_profile = "storm";
  std::string snapshot_out, snapshot_in;
  uint64_t snapshot_spawn = 1;
  // kUnset distinguishes "flag not given" from an explicit zero: explicit
  // zeros reach the validator and are rejected instead of being ignored.
  constexpr uint64_t kUnset = ~uint64_t{0};
  uint64_t serve_requests = 0;
  std::string serve_arrival = "poisson", serve_pool_bounds;
  std::string serve_quota, serve_retry_backoff, serve_breaker, serve_degrade;
  std::string chaos_tenants;
  uint64_t serve_seed = 1, serve_rate = kUnset, serve_tenants = 4;
  uint64_t serve_concurrency = kUnset, serve_queue = kUnset;
  uint64_t serve_slo = kUnset, serve_retries = 0;
  bool serve_degrade_on = false;
  bool serve_cold = false;
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    uint64_t v = 0;
    if (arg == "--no-verify") {
      cfg.enforce_verification = false;
    } else if (arg == "--core=t2a") {
      cfg.core = lfi::arch::GcpT2aLikeParams();
    } else if (arg == "--core=m1") {
      cfg.core = lfi::arch::AppleM1LikeParams();
    } else if (arg == "--stats") {
      want_stats = true;
    } else if (arg == "--trace") {
      if (k + 1 >= argc) {
        std::fprintf(stderr, "lfi-run: --trace needs a file argument\n");
        return 2;
      }
      trace_path = argv[++k];
    } else if (arg == "--policy=kill") {
      cfg.default_policy.on_fault = lfi::runtime::FaultAction::kKill;
    } else if (arg == "--policy=signal") {
      cfg.default_policy.on_fault = lfi::runtime::FaultAction::kSignal;
    } else if (arg == "--policy=restart") {
      cfg.default_policy.on_fault = lfi::runtime::FaultAction::kRestart;
    } else if (U64Flag(arg, "--restart-budget", &v)) {
      cfg.default_policy.restart_budget = static_cast<uint32_t>(v);
    } else if (U64Flag(arg, "--max-cycles", &v)) {
      cfg.default_policy.limits.max_cpu_cycles = v;
    } else if (U64Flag(arg, "--max-heap", &v)) {
      cfg.default_policy.limits.max_heap_bytes = v;
    } else if (U64Flag(arg, "--max-mmap", &v)) {
      cfg.default_policy.limits.max_mmap_bytes = v;
    } else if (U64Flag(arg, "--max-fds", &v)) {
      cfg.default_policy.limits.max_fds = v;
    } else if (U64Flag(arg, "--max-pipe-buf", &v)) {
      cfg.default_policy.limits.max_pipe_buffer_bytes = v;
    } else if (U64Flag(arg, "--chaos-seed", &v)) {
      chaos_enabled = true;
      chaos_seed = v;
    } else if (arg.rfind("--chaos-profile=", 0) == 0) {
      chaos_enabled = true;
      chaos_profile = arg.substr(std::strlen("--chaos-profile="));
    } else if (arg.rfind("--snapshot-out=", 0) == 0) {
      snapshot_out = arg.substr(std::strlen("--snapshot-out="));
    } else if (arg.rfind("--snapshot-in=", 0) == 0) {
      snapshot_in = arg.substr(std::strlen("--snapshot-in="));
    } else if (U64Flag(arg, "--snapshot-spawn", &v)) {
      snapshot_spawn = v;
    } else if (U64Flag(arg, "--serve", &serve_requests)) {
    } else if (arg.rfind("--serve-arrival=", 0) == 0) {
      serve_arrival = arg.substr(std::strlen("--serve-arrival="));
    } else if (U64Flag(arg, "--serve-seed", &serve_seed)) {
    } else if (U64Flag(arg, "--serve-rate", &serve_rate)) {
    } else if (U64Flag(arg, "--serve-tenants", &serve_tenants)) {
    } else if (U64Flag(arg, "--serve-concurrency", &serve_concurrency)) {
    } else if (U64Flag(arg, "--serve-queue", &serve_queue)) {
    } else if (arg.rfind("--serve-pool=", 0) == 0) {
      serve_pool_bounds = arg.substr(std::strlen("--serve-pool="));
    } else if (U64Flag(arg, "--serve-slo", &serve_slo)) {
    } else if (arg == "--serve-cold") {
      serve_cold = true;
    } else if (arg.rfind("--serve-quota=", 0) == 0) {
      serve_quota = arg.substr(std::strlen("--serve-quota="));
    } else if (U64Flag(arg, "--serve-retries", &serve_retries)) {
    } else if (arg.rfind("--serve-retry-backoff=", 0) == 0) {
      serve_retry_backoff = arg.substr(std::strlen("--serve-retry-backoff="));
    } else if (arg.rfind("--serve-breaker=", 0) == 0) {
      serve_breaker = arg.substr(std::strlen("--serve-breaker="));
    } else if (arg == "--serve-degrade") {
      serve_degrade_on = true;
    } else if (arg.rfind("--serve-degrade=", 0) == 0) {
      serve_degrade_on = true;
      serve_degrade = arg.substr(std::strlen("--serve-degrade="));
    } else if (arg.rfind("--chaos-tenants=", 0) == 0) {
      chaos_tenants = arg.substr(std::strlen("--chaos-tenants="));
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: lfi-run [--no-verify] [--core=m1|t2a] [--stats] "
                   "[--trace out.json]\n"
                   "               [--policy=kill|signal|restart] "
                   "[--restart-budget=N]\n"
                   "               [--max-cycles=N] [--max-heap=N] "
                   "[--max-mmap=N] [--max-fds=N] [--max-pipe-buf=N]\n"
                   "               [--chaos-seed=N] "
                   "[--chaos-profile=none|memfault|syscall|sched|storm]\n"
                   "               [--snapshot-out=FILE] [--snapshot-in=FILE "
                   "[--snapshot-spawn=N]]\n"
                   "               [--serve=N [--serve-arrival=poisson|bursty|"
                   "closed] [--serve-seed=N]\n"
                   "                [--serve-rate=N] [--serve-tenants=N] "
                   "[--serve-concurrency=N]\n"
                   "                [--serve-queue=N] [--serve-pool=MIN:MAX] "
                   "[--serve-slo=N] [--serve-cold]\n"
                   "                [--serve-quota=I:Q] [--serve-retries=N] "
                   "[--serve-retry-backoff=B:C]\n"
                   "                [--serve-breaker=T:O] "
                   "[--serve-degrade[=A:B:C]] [--chaos-tenants=LIST]]\n"
                   "               prog.elf [...]\n");
      return 0;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty() && snapshot_in.empty()) {
    std::fprintf(stderr, "lfi-run: no executables given\n");
    return 2;
  }
  if (!chaos_tenants.empty() && serve_requests == 0) {
    std::fprintf(stderr, "lfi-run: --chaos-tenants only applies to --serve\n");
    return 2;
  }
  if (!snapshot_out.empty() && paths.empty()) {
    std::fprintf(stderr, "lfi-run: --snapshot-out needs an executable\n");
    return 2;
  }

  const lfi::chaos::ChaosProfile profile =
      lfi::chaos::ProfileByName(chaos_profile);
  if (chaos_enabled && profile.name.empty()) {
    std::fprintf(stderr, "lfi-run: unknown chaos profile '%s'\n",
                 chaos_profile.c_str());
    return 2;
  }

  lfi::runtime::Runtime rt(cfg);
  lfi::trace::TraceSink sink;
  if (want_stats || trace_path != nullptr) rt.set_trace_sink(&sink);
  lfi::chaos::ChaosEngine chaos(chaos_seed, profile);
  if (chaos_enabled) rt.set_chaos(&chaos);

  if (serve_requests > 0) {
    lfi::serve::ServeConfig scfg;
    scfg.traffic.requests = serve_requests;
    scfg.traffic.seed = serve_seed;
    scfg.traffic.tenants = static_cast<uint32_t>(serve_tenants);
    if (!lfi::serve::TrafficKindByName(serve_arrival, &scfg.traffic.kind)) {
      std::fprintf(stderr, "lfi-run: unknown arrival process '%s'\n",
                   serve_arrival.c_str());
      return 2;
    }
    if (serve_rate != kUnset) scfg.traffic.rate_per_mcycle = serve_rate;
    if (serve_queue != kUnset) {
      scfg.admission.max_queue_depth = static_cast<uint32_t>(serve_queue);
    }
    if (serve_concurrency != kUnset) {
      scfg.max_concurrency = static_cast<uint32_t>(serve_concurrency);
    }
    if (!serve_pool_bounds.empty()) {
      unsigned lo = 0, hi = 0;
      if (std::sscanf(serve_pool_bounds.c_str(), "%u:%u", &lo, &hi) != 2 ||
          lo > hi) {
        std::fprintf(stderr, "lfi-run: --serve-pool wants MIN:MAX\n");
        return 2;
      }
      scfg.pool_min = lo;
      scfg.pool_max = hi;
    }
    if (!serve_quota.empty()) {
      unsigned inflight = 0, queued = 0;
      if (std::sscanf(serve_quota.c_str(), "%u:%u", &inflight, &queued) != 2) {
        std::fprintf(stderr, "lfi-run: --serve-quota wants INFLIGHT:QUEUED\n");
        return 2;
      }
      scfg.default_quota.max_inflight = inflight;
      scfg.default_quota.max_queued = queued;
    }
    scfg.retry.budget = static_cast<uint32_t>(serve_retries);
    if (!serve_retry_backoff.empty()) {
      unsigned long long base = 0, cap = 0;
      if (std::sscanf(serve_retry_backoff.c_str(), "%llu:%llu", &base,
                      &cap) != 2) {
        std::fprintf(stderr, "lfi-run: --serve-retry-backoff wants BASE:CAP\n");
        return 2;
      }
      scfg.retry.backoff_base_cycles = base;
      scfg.retry.backoff_cap_cycles = cap;
    }
    if (!serve_breaker.empty()) {
      unsigned threshold = 0;
      unsigned long long open_cycles = 0;
      if (std::sscanf(serve_breaker.c_str(), "%u:%llu", &threshold,
                      &open_cycles) != 2) {
        std::fprintf(stderr,
                     "lfi-run: --serve-breaker wants THRESHOLD:OPEN_CYCLES\n");
        return 2;
      }
      scfg.breaker.failure_threshold = threshold;
      scfg.breaker.open_cycles = open_cycles;
    }
    if (serve_degrade_on) {
      scfg.degrade.enabled = true;
      if (!serve_degrade.empty()) {
        unsigned long long a = 0, b = 0, c = 0;
        if (std::sscanf(serve_degrade.c_str(), "%llu:%llu:%llu", &a, &b,
                        &c) != 3) {
          std::fprintf(stderr,
                       "lfi-run: --serve-degrade wants "
                       "SHED_DEPTH:NO_RETRY_DEPTH:FAST_FAIL_DEPTH\n");
          return 2;
        }
        scfg.degrade.shed_tier_depth = a;
        scfg.degrade.no_retry_depth = b;
        scfg.degrade.fast_fail_depth = c;
      }
    }
    if (!chaos_tenants.empty()) {
      if (!chaos_enabled) {
        std::fprintf(stderr,
                     "lfi-run: --chaos-tenants needs --chaos-seed or "
                     "--chaos-profile\n");
        return 2;
      }
      std::stringstream ss(chaos_tenants);
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        if (tok.empty() ||
            tok.find_first_not_of("0123456789") != std::string::npos) {
          std::fprintf(stderr,
                       "lfi-run: --chaos-tenants wants a comma-separated "
                       "tenant list\n");
          return 2;
        }
        scfg.chaos_tenants.push_back(
            static_cast<uint32_t>(std::strtoul(tok.c_str(), nullptr, 10)));
      }
      scfg.chaos = &chaos;
    }
    // Every tenant serves under the CLI-configured fault policy and
    // limits; --serve-slo overrides the default latency target.
    lfi::serve::QosTier tier;
    tier.policy = cfg.default_policy;
    if (serve_slo != kUnset) tier.slo_cycles = serve_slo;
    scfg.tiers.push_back(tier);

    // Reject degenerate or contradictory serving configs up front: a
    // silent "0 means default" would make --serve-queue=0 serve with a
    // 64-deep queue, which is exactly the kind of config drift the
    // deterministic transcripts exist to rule out.
    std::string cfg_err;
    if (!lfi::serve::ValidateServeConfig(scfg, &cfg_err)) {
      if (serve_retries > 0 && serve_slo == 0) {
        cfg_err = "retry budget without a deadline (--serve-retries needs "
                  "--serve-slo > 0)";
      }
      std::fprintf(stderr, "lfi-run: invalid serving config: %s\n",
                   cfg_err.c_str());
      return 2;
    }

    std::vector<uint8_t> bytes;
    if (!paths.empty()) {
      std::ifstream f(paths[0], std::ios::binary);
      if (!f) {
        std::fprintf(stderr, "lfi-run: cannot open %s\n", paths[0].c_str());
        return 2;
      }
      bytes.assign((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
    }

    lfi::elf::ElfImage cold_image;   // must outlive the Server in cold mode
    std::unique_ptr<lfi::runtime::SpawnPool> pool;
    std::optional<lfi::serve::Server> srv;
    if (serve_cold) {
      if (bytes.empty()) {
        std::fprintf(stderr, "lfi-run: --serve-cold needs an executable\n");
        return 2;
      }
      auto image = lfi::elf::Read({bytes.data(), bytes.size()});
      if (!image) {
        std::fprintf(stderr, "lfi-run: %s: %s\n", paths[0].c_str(),
                     image.error().c_str());
        return 2;
      }
      cold_image = std::move(*image);
      srv.emplace(&rt, scfg, &cold_image);
    } else {
      std::shared_ptr<const lfi::snapshot::Snapshot> snap;
      if (!snapshot_in.empty()) {
        auto s = lfi::snapshot::ReadFile(snapshot_in);
        if (!s) {
          std::fprintf(stderr, "lfi-run: %s: %s\n", snapshot_in.c_str(),
                       s.error().c_str());
          return 2;
        }
        snap = std::make_shared<const lfi::snapshot::Snapshot>(std::move(*s));
      } else if (!bytes.empty()) {
        // Load the handler once, capture its post-load checkpoint as the
        // pool image, and retire the template: every served sandbox is a
        // fresh COW instantiation of that checkpoint.
        auto pid = rt.Load({bytes.data(), bytes.size()});
        if (!pid) {
          const auto& vr = rt.last_verify_result();
          if (!vr.ok) {
            std::fprintf(stderr,
                         "lfi-run: %s: REJECT (%s) at text offset 0x%llx: "
                         "%s\n",
                         paths[0].c_str(),
                         lfi::verifier::FailKindName(vr.kind),
                         static_cast<unsigned long long>(vr.fail_offset),
                         vr.reason.c_str());
            return 1;
          }
          std::fprintf(stderr, "lfi-run: %s: %s\n", paths[0].c_str(),
                       pid.error().c_str());
          return 2;
        }
        auto s = rt.CaptureSnapshot(*pid);
        if (!s) {
          std::fprintf(stderr, "lfi-run: snapshot capture failed: %s\n",
                       s.error().c_str());
          return 2;
        }
        if (!snapshot_out.empty()) {
          if (auto st = lfi::snapshot::WriteFile(*s, snapshot_out);
              !st.ok()) {
            std::fprintf(stderr, "lfi-run: %s: %s\n", snapshot_out.c_str(),
                         st.error().c_str());
            return 2;
          }
        }
        snap = std::make_shared<const lfi::snapshot::Snapshot>(std::move(*s));
        rt.Kill(*pid, "serve: template retired");
      } else {
        std::fprintf(stderr,
                     "lfi-run: --serve needs an executable or "
                     "--snapshot-in\n");
        return 2;
      }
      pool = std::make_unique<lfi::runtime::SpawnPool>(&rt, std::move(snap));
      srv.emplace(&rt, scfg, pool.get());
    }

    const lfi::serve::ServeReport& rep = srv->Run();
    const std::string transcript = rep.Format();
    std::fwrite(transcript.data(), 1, transcript.size(), stdout);
    if (rep.aborted) {
      std::fprintf(stderr, "lfi-run: serving aborted after %llu steps\n",
                   static_cast<unsigned long long>(rep.steps));
    }
    return EmitFooter(rt, sink, cfg, want_stats, trace_path,
                      rep.aborted ? 1 : 0);
  }

  std::vector<int> pids;
  std::vector<std::string> labels;  // per-pid display name for reporting
  for (const auto& path : paths) {
    std::ifstream f(path, std::ios::binary);
    if (!f) {
      std::fprintf(stderr, "lfi-run: cannot open %s\n", path.c_str());
      return 2;
    }
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                               std::istreambuf_iterator<char>());
    auto pid = rt.Load({bytes.data(), bytes.size()});
    if (!pid) {
      const auto& v = rt.last_verify_result();
      if (!v.ok) {
        // Mirror lfi-verify's REJECT output (plus the stable kind name) so
        // scripted pipelines can treat the two tools interchangeably.
        std::fprintf(stderr,
                     "lfi-run: %s: REJECT (%s) at text offset 0x%llx: %s\n",
                     path.c_str(), lfi::verifier::FailKindName(v.kind),
                     static_cast<unsigned long long>(v.fail_offset),
                     v.reason.c_str());
        return 1;
      }
      std::fprintf(stderr, "lfi-run: %s: %s\n", path.c_str(),
                   pid.error().c_str());
      return 2;
    }
    pids.push_back(*pid);
    labels.push_back(path);
  }

  if (!snapshot_out.empty()) {
    // Capture the post-load checkpoint of the first sandbox, before any
    // instruction runs: spawning from this file replays the program from
    // its entry point.
    auto snap = rt.CaptureSnapshot(pids[0]);
    if (!snap) {
      std::fprintf(stderr, "lfi-run: snapshot capture failed: %s\n",
                   snap.error().c_str());
      return 2;
    }
    if (auto st = lfi::snapshot::WriteFile(*snap, snapshot_out); !st.ok()) {
      std::fprintf(stderr, "lfi-run: %s: %s\n", snapshot_out.c_str(),
                   st.error().c_str());
      return 2;
    }
  }

  if (!snapshot_in.empty()) {
    auto snap = lfi::snapshot::ReadFile(snapshot_in);
    if (!snap) {
      std::fprintf(stderr, "lfi-run: %s: %s\n", snapshot_in.c_str(),
                   snap.error().c_str());
      return 2;
    }
    auto shared =
        std::make_shared<const lfi::snapshot::Snapshot>(std::move(*snap));
    for (uint64_t k = 0; k < snapshot_spawn; ++k) {
      auto pid = rt.SpawnFromSnapshot(shared);
      if (!pid) {
        std::fprintf(stderr, "lfi-run: %s: %s\n", snapshot_in.c_str(),
                     pid.error().c_str());
        return 2;
      }
      pids.push_back(*pid);
      labels.push_back(snapshot_in + "#" + std::to_string(k));
    }
  }

  const int leftover = rt.RunUntilIdle();
  int rc = 0;
  for (size_t k = 0; k < pids.size(); ++k) {
    const auto* p = rt.proc(pids[k]);
    if (!p->out.empty()) std::fwrite(p->out.data(), 1, p->out.size(), stdout);
    if (p->exit_kind == lfi::runtime::ExitKind::kKilled) {
      std::fprintf(stderr,
                   "lfi-run: %s: killed (%s) [signal %d, disposition %s, "
                   "restarts %u, signals delivered %u]\n",
                   labels[k].c_str(), p->fault_detail.c_str(), p->term_signal,
                   lfi::runtime::DispositionName(p->disposition), p->restarts,
                   p->sig.delivered);
      rc = 1;
    } else if (p->exit_kind == lfi::runtime::ExitKind::kExited) {
      if (p->exit_status != 0) {
        // A nonzero exit after a recovered fault still reports how the
        // fault was resolved, so operators can tell "crashed and
        // recovered" from "plain error exit".
        if (p->disposition != lfi::runtime::Disposition::kNone) {
          std::fprintf(stderr,
                       "lfi-run: %s: exit %d [disposition %s, restarts %u, "
                       "signals delivered %u%s%s]\n",
                       labels[k].c_str(), p->exit_status,
                       lfi::runtime::DispositionName(p->disposition),
                       p->restarts, p->sig.delivered,
                       p->fault_detail.empty() ? "" : ", last fault: ",
                       p->fault_detail.c_str());
        }
        rc = p->exit_status;
      }
    }
  }
  if (leftover != 0) {
    std::fprintf(stderr, "lfi-run: %d process(es) deadlocked\n", leftover);
    rc = 1;
  }
  return EmitFooter(rt, sink, cfg, want_stats, trace_path, rc);
}
