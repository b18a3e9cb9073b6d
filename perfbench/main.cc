// lfi-perfbench: host-time benchmark of the LFI pipeline (README.md).
//
//   lfi-perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--smoke] [--spans-out PATH]
//   lfi-perfbench --selftest
//
// Prints one provenance line, then the result as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, measured with
// tracing off; with --trace 1 they are the per-layer set, from a traced
// run that follows an untraced one.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>

#include "core.h"
#include "emu/machine.h"
#include "runtime/runtime.h"
#include "workloads/workloads.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LFI_PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                     \
    __has_feature(undefined_behavior_sanitizer)
#define LFI_PERFBENCH_SANITIZED 1
#endif
#endif

#ifndef LFI_PERFBENCH_BUILD_TYPE
#define LFI_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace lfi::perfbench {
namespace {

// Rounds per phase, whatever the time budget: enough for a median.
constexpr int kMinRounds = 3;
// A run never spends more than this on measured rounds, so a slow host
// still finishes well inside the benchmark's per-run limit.
constexpr double kMaxMeasureSeconds = 90;

const char* DispatchName(emu::Dispatch d) {
  switch (d) {
    case emu::Dispatch::kChained: return "chained";
    case emu::Dispatch::kBlock: return "block";
    case emu::Dispatch::kStep: return "step";
  }
  return "?";
}

// Per-layer metrics that lfi-perfbench derives from spans alone; the rest
// come from the workloads' Layers().
void SpanLayers(const std::vector<Span>& spans, int rounds, Metrics* m) {
  const auto all = Summarize(spans);
  const auto ok = Summarize(spans, [](const Span& s) { return !s.failed; });
  auto get = [](const std::map<std::string, SpanStats>& st,
                const char* name) -> SpanStats {
    auto it = st.find(name);
    return it == st.end() ? SpanStats{} : it->second;
  };
  m->Set("asmtext.parse_mb_per_s", get(ok, "asmtext.Parse").MbPerS(), "MB/s");
  m->Set("asmtext.assemble_mb_per_s", get(ok, "asmtext.Assemble").MbPerS(),
         "MB/s");
  m->Set("rewriter.rewrite_mb_per_s", get(ok, "rewriter.Rewrite").MbPerS(),
         "MB/s");
  m->Set("elf.write_mb_per_s", get(ok, "elf.Write").MbPerS(), "MB/s");
  m->Set("elf.read_mb_per_s", get(ok, "elf.Read").MbPerS(), "MB/s");
  m->Set("snapshot.serialize_mb_per_s",
         get(ok, "snapshot.Serialize").MbPerS(), "MB/s");
  m->Set("snapshot.deserialize_mb_per_s",
         get(ok, "snapshot.Deserialize").MbPerS(), "MB/s");
  m->SetTimingUs("runtime.load_us", get(ok, "runtime.Load").durs);
  m->SetTimingUs("runtime.capture_us",
                 get(ok, "runtime.CaptureSnapshot").durs);
  m->SetTimingUs("runtime.spawn_us",
                 get(ok, "runtime.SpawnFromSnapshot").durs);
  m->SetTimingUs("runtime.take_us", get(ok, "runtime.SpawnPool.Take").durs);
  m->SetTimingUs("runtime.recycle_us",
                 get(ok, "runtime.SpawnPool.Recycle").durs);
  m->SetTimingUs("runtime.run_us_per_req",
                 get(all, "runtime.RunUntilIdle").durs);
  m->SetTimingUs("serve.step_us", get(all, "serve.Server.Step").durs);
  m->Set("emu.run_s",
         rounds > 0 ? get(all, "runtime.RunUntilIdle").total / rounds : 0,
         "s");
  m->Set("workloads.generate_s",
         rounds > 0 ? get(all, "workloads.Generate").total / rounds : 0, "s");
  m->Set("bench.span_coverage_pct", CoveragePct(spans, "bench.round"), "%");
}

std::vector<std::pair<std::string, std::string>> BuildLayerNames() {
  std::vector<std::pair<std::string, std::string>> v = {
      {"emu.run_s", "s"},
      {"emu.block_hit_ratio", "ratio"},
      {"emu.mem_ops_per_kinst", "1/kinst"},
      {"emu.guards_per_kinst", "1/kinst"},
      {"asmtext.parse_mb_per_s", "MB/s"},
      {"asmtext.assemble_mb_per_s", "MB/s"},
      {"rewriter.rewrite_mb_per_s", "MB/s"},
      {"rewriter.guards_inserted", "count"},
      {"rewriter.text_growth_pct", "%"},
      {"elf.write_mb_per_s", "MB/s"},
      {"elf.read_mb_per_s", "MB/s"},
      {"snapshot.serialize_mb_per_s", "MB/s"},
      {"snapshot.deserialize_mb_per_s", "MB/s"},
      {"verifier.verify_mb_per_s.small", "MB/s"},
      {"verifier.verify_mb_per_s.large", "MB/s"},
      {"verifier.parallel_mb_per_s", "MB/s"},
      {"verifier.parallel_speedup", "x"},
      {"serve.control_us_per_req", "us"},
      {"serve.warm_hit_ratio", "ratio"},
      {"workloads.generate_s", "s"},
      {"bench.trace_overhead_pct", "%"},
      {"bench.span_coverage_pct", "%"},
      {"bench.round_median_s", "s"},
      {"bench.ref_kernel_ms", "ms"},
      {"o2_overhead_pct", "%"},
      {"admit_mb_per_s", "MB/s"},
      {"verdict_mb_per_s", "MB/s"},
      {"sim_req_per_mcycle", "1/Mcycle"},
      {"sim_p99_latency_cycles", "cycles"},
      {"failed_ratio", "ratio"},
  };
  for (const auto& w : workloads::AllWorkloads()) {
    v.push_back({"emu.minsts_per_s." + ShortName(w.name), "Minst/s"});
  }
  for (const char* t :
       {"runtime.load_us", "runtime.capture_us", "runtime.spawn_us",
        "runtime.take_us", "runtime.recycle_us", "runtime.run_us_per_req",
        "verifier.reject_us", "serve.step_us"}) {
    v.push_back({std::string(t) + ".p50", "us"});
    v.push_back({std::string(t) + ".tail", "us"});
    v.push_back({std::string(t) + ".n", "count"});
  }
  return v;
}

// Prints each span name's self time per traced round to stderr, largest
// first: where a traced round's time goes, without an external profiler.
void PrintSelfTimes(const std::vector<Span>& spans, int rounds) {
  const auto st = Summarize(spans);
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [name, s] : st) rows.push_back({s.self, name});
  std::sort(rows.rbegin(), rows.rend());
  std::fprintf(stderr, "self time per traced round (s), by span:\n");
  for (const auto& [self, name] : rows) {
    std::fprintf(stderr, "  %-28s %12.6f  (%llu calls)\n", name.c_str(),
                 rounds > 0 ? self / rounds : 0,
                 static_cast<unsigned long long>(st.at(name).count));
  }
}

// Writes the spans of the last traced set-up and round as JSON lines: one
// object per span, times in microseconds from the run start, parents as
// line indices. Earlier rounds repeat the same work and are left out to
// bound the file's size.
void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write spans to %s\n", path.c_str());
    return;
  }
  size_t first = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0 && std::strcmp(spans[i].name, "bench.setup") == 0) {
      first = i;
    }
  }
  char buf[320];
  for (size_t i = first; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "{\"i\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                  "\"end_us\": %.3f, \"parent\": %d, \"id\": %llu, "
                  "\"bytes\": %llu, \"failed\": %s}\n",
                  i - first, s.name, s.start * 1e6, s.end * 1e6,
                  s.parent < 0 ? -1 : s.parent - static_cast<int>(first),
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.bytes),
                  s.failed ? "true" : "false");
    out << buf;
  }
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string spans_out;
};

// Accumulated over every round of the run.
struct Tally {
  uint64_t attempted = 0, failed = 0;
  bool have_fp = false;
  uint64_t fp = 0;
  uint64_t fp_mismatches = 0;
  std::vector<double> setup_s;

  void Add(const RoundResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    if (!have_fp) {
      have_fp = true;
      fp = r.fingerprint;
    } else if (r.fingerprint != fp) {
      // Simulated results must not depend on the round or on tracing.
      ++fp_mismatches;
      ++failed;
    }
  }
};

// Host time scaled to the reference host's speed (kRefNominalS), given
// the reference kernel's time measured next to it.
double AtRefSpeed(double secs, double ref_s) {
  return ref_s > 0 ? secs * kRefNominalS / ref_s : 0;
}

// Per-round figures of one kind of round (untraced or traced).
//
// The host's speed drifts by up to 1.9x, in bursts of milliseconds and in
// phases of seconds to minutes (README.md, "Host noise"), so a round's
// time says as much about the host as about the program. A round's cost
// is estimated instead as the sum, over its units of work, of the first
// quartile of each unit's times over the run at the reference host's
// speed: the reference kernel run next to a unit slows with it, which
// takes out the phases, and the lower quartile leaves out the repetitions
// that a burst hit.
struct Phase {
  std::vector<double> round_s;  // whole-round host times
  std::vector<std::vector<double>> unit_s;  // [unit][round], scaled
  std::vector<double> ops, sim_insts, ref_s;

  // False when the round's units do not match the earlier rounds'.
  bool Add(const RoundResult& r, double dt) {
    round_s.push_back(dt);
    ops.push_back(static_cast<double>(r.ops));
    sim_insts.push_back(static_cast<double>(r.sim_insts));
    if (r.unit_s.empty() || r.unit_ref_s.size() != r.unit_s.size()) {
      return false;
    }
    if (unit_s.empty()) unit_s.resize(r.unit_s.size());
    if (r.unit_s.size() != unit_s.size()) return false;
    for (size_t u = 0; u < unit_s.size(); ++u) {
      unit_s[u].push_back(AtRefSpeed(r.unit_s[u], r.unit_ref_s[u]));
      ref_s.push_back(r.unit_ref_s[u]);
    }
    return true;
  }
  // Estimated host seconds of one round at the reference host's speed.
  double RoundCost() const {
    double sum = 0;
    for (const auto& u : unit_s) sum += Percentile(u, 25);
    return sum;
  }
};

// CPU seconds consumed by the whole process so far.
double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec * 1e-9;
}

// One set-up and one measured round, recorded under `t`.
void RunRound(Workload& w, Tracer& t, int round, Tally* tally, Phase* ph) {
  const double ref0 = RefKernelSeconds();
  const double s0 = Now();
  {
    Scope s(t, "bench.setup", round);
    w.Setup(t);
  }
  const double setup = Now() - s0;
  tally->setup_s.push_back(
      AtRefSpeed(setup, (ref0 + RefKernelSeconds()) / 2));
  RoundResult r;
  const double c0 = CpuNow();
  const double r0 = Now();
  {
    Scope s(t, "bench.round", round);
    r = w.Round(t);
  }
  const double dt = Now() - r0;
  const double cpu = CpuNow() - c0;
  if (t.on()) {
    Scope s(t, "bench.extra", round);
    w.TracedExtra(t);
  }
  // Per-round log, for judging a run's steadiness (CPU time below wall
  // time means the process was descheduled).
  std::fprintf(stderr,
               "%s round %d: setup %.6f s, round %.6f s (cpu %.6f s)\n",
               t.on() ? "traced" : "untraced", round, setup, dt, cpu);
  tally->Add(r);
  if (!ph->Add(r, dt)) {
    std::fprintf(stderr, "error: round %d timed %zu units of work, earlier "
                 "rounds %zu\n", round, r.unit_s.size(),
                 ph->unit_s.size());
    ++tally->failed;
  }
}

int Run(const Options& o) {
#ifdef LFI_PERFBENCH_SANITIZED
  std::fprintf(stderr,
               "error: sanitizer build; host-time numbers from it would be "
               "meaningless, refusing to report\n");
  return 2;
#endif
  const Scale scale = o.smoke ? Scale::kSmoke : Scale::kFull;
  std::unique_ptr<Workload> w;
  if (o.workload == "spec-mix") w = MakeSpecMix(o.seed, scale);
  if (o.workload == "build-admit") w = MakeBuildAdmit(o.seed, scale);
  if (o.workload == "serve-warm") w = MakeServeWarm(o.seed, scale);
  if (w == nullptr) {
    std::fprintf(stderr, "error: unknown workload '%s' (spec-mix, "
                 "build-admit, serve-warm)\n", o.workload.c_str());
    return 2;
  }
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"smoke\": %d, \"dispatch\": \"%s\", "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"nproc\": %u}}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, o.smoke ? 1 : 0,
      DispatchName(runtime::RuntimeConfig{}.dispatch),
      LFI_PERFBENCH_BUILD_TYPE, __VERSION__,
      std::thread::hardware_concurrency());
  std::fflush(stdout);

  const int min_rounds = o.smoke ? 1 : kMinRounds;
  Tally tally;
  Tracer off(false), on(true);
  Metrics m;
  // Rounds run until the budget of measured time is spent (at least
  // min_rounds of each kind). The traced run alternates untraced and
  // traced rounds of the same inputs, so tracing overhead and result
  // identity are measured in one process under the same host conditions.
  Phase plain, traced;
  double spent = 0;
  for (int round = 0;; ++round) {
    const bool on_round = o.trace && round % 2 == 1;
    const size_t done = std::min(plain.round_s.size(),
                                 o.trace ? traced.round_s.size() : SIZE_MAX);
    if (!on_round && done >= static_cast<size_t>(min_rounds) &&
        (spent >= o.seconds || o.smoke)) {
      break;
    }
    if (spent >= kMaxMeasureSeconds) break;
    Phase& ph = on_round ? traced : plain;
    RunRound(*w, on_round ? on : off, round, &tally, &ph);
    spent += ph.round_s.back();
  }
  if (!o.trace) {
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    m.Set("setup_s", Median(tally.setup_s), "s");
    const double wall = plain.RoundCost();
    m.Set("wall_s", wall, "s");
    m.Set("sim_minsts_per_s",
          wall > 0 ? Median(plain.sim_insts) / wall / 1e6 : 0, "Minst/s");
    m.Set("req_per_s", wall > 0 ? Median(plain.ops) / wall : 0, "1/s");
    m.Set("peak_rss_mb", ru.ru_maxrss / 1024.0, "MB");
  } else {
    const int rounds = static_cast<int>(traced.round_s.size());
    SpanLayers(on.spans(), rounds, &m);
    PrintSelfTimes(on.spans(), rounds);
    w->Layers(on.spans(), rounds, &m);
    m.Set("bench.trace_overhead_pct",
          100.0 * (traced.RoundCost() / plain.RoundCost() - 1.0), "%");
    m.Set("bench.round_median_s", Median(plain.round_s), "s");
    m.Set("bench.ref_kernel_ms", Median(plain.ref_s) * 1e3, "ms");
    m.Set("failed_ratio",
          tally.attempted ? double(tally.failed) / tally.attempted : 0,
          "ratio");
    for (const auto& [name, unit] : LayerMetricNames()) {
      if (m.all().count(name) == 0) m.Set(name, 0, unit);
    }
    if (!o.spans_out.empty()) WriteSpans(on.spans(), o.spans_out);
  }
  if (tally.fp_mismatches > 0) {
    std::fprintf(stderr, "error: simulated results differed between rounds "
                 "(%llu mismatches)\n",
                 static_cast<unsigned long long>(tally.fp_mismatches));
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              m.Json().c_str());
  return 0;
}

// Unit checks of the benchmark's own helpers.
int SelfTest() {
  int fails = 0;
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "FAIL: %s\n", what.c_str());
      ++fails;
    }
  };
  // The tail percentile has at least ten samples beyond it.
  const std::pair<size_t, double> tails[] = {
      {0, 50},     {1, 50},     {19, 50},    {99, 50},   {100, 90},
      {999, 90},   {1000, 99},  {9999, 99},  {10000, 99.9}};
  for (const auto& [n, want] : tails) {
    check(TailPercentileFor(n) == want,
          "TailPercentileFor(" + std::to_string(n) + ")");
  }
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);
  check(Percentile(v, 50) == 50, "Percentile p50");
  check(Percentile(v, 90) == 90, "Percentile p90");
  check(Percentile(v, 100) == 100, "Percentile p100");
  check(Percentile({}, 50) == 0, "Percentile of nothing");
  // Metric names.
  check(ValidMetricName("emu.minsts_per_s.x264"), "valid name");
  check(!ValidMetricName("a b"), "space in name");
  check(!ValidMetricName(".lead"), "leading dot");
  check(!ValidMetricName(std::string(65, 'a')), "long name");
  for (const auto& [name, unit] : LayerMetricNames()) {
    check(ValidMetricName(name), "layer metric name " + name);
    check(!unit.empty(), "unit of " + name);
  }
  // Self time and coverage: a 10 s root with children covering 9 s, one
  // of which has a 2 s child of its own.
  std::vector<Span> spans(4);
  spans[0] = {"bench.round", 0, 10, -1, 0, 0, false};
  spans[1] = {"a", 0, 6, 0, 0, 0, false};
  spans[2] = {"b", 7, 10, 0, 0, 0, false};
  spans[3] = {"c", 1, 3, 1, 0, 0, false};
  const auto st = Summarize(spans);
  check(st.at("a").self == 4, "self time subtracts children");
  check(st.at("bench.round").self == 1, "root self time");
  check(CoveragePct(spans, "bench.round") == 90, "coverage");
  // A reference-kernel child is left out of its root's duration.
  spans[2] = {kRefKernelSpan, 6, 8, 0, 0, 0, false};
  check(CoveragePct(spans, "bench.round") == 75, "coverage without kernel");
  // wall_s: the sum of each unit's first-quartile time at the reference
  // host's speed; a round with other units is refused.
  Phase ph;
  RoundResult r1, r2, r3, r4;
  r1.unit_s = {1, 4};
  r1.unit_ref_s = {kRefNominalS, kRefNominalS};
  r2.unit_s = {2, 6};
  r2.unit_ref_s = {kRefNominalS, 2 * kRefNominalS};
  r3.unit_s = {3, 9};
  r3.unit_ref_s = {2 * kRefNominalS, 2 * kRefNominalS};
  r4.unit_s = {1};
  r4.unit_ref_s = {kRefNominalS};
  check(ph.Add(r1, 5) && ph.Add(r2, 8) && ph.Add(r3, 12),
        "units of equal rounds");
  check(ph.RoundCost() == 4, "sum of first-quartile scaled units");
  check(!ph.Add(r4, 1), "round with other units refused");
  std::printf("selftest: %s\n", fails == 0 ? "ok" : "FAILED");
  return fails == 0 ? 0 : 1;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const auto kNames = BuildLayerNames();
  return kNames;
}

}  // namespace lfi::perfbench

int main(int argc, char** argv) {
  using lfi::perfbench::Options;
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (a == "--selftest") return lfi::perfbench::SelfTest();
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (a == "--smoke") {
        o.smoke = true;
      } else if (a == "--spans-out") {
        o.spans_out = value();
      } else {
        std::fprintf(stderr, "error: unknown argument %s\n", a.c_str());
        return 2;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "error: bad value for %s\n", a.c_str());
      return 2;
    }
  }
  return lfi::perfbench::Run(o);
}
