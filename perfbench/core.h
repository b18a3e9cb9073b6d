// Shared machinery of the host-time benchmark program (perfbench/README.md).
//
// lfi-perfbench measures how fast the LFI pipeline runs on the host, as
// opposed to the simulated cycles the paper-figure benches report. Every
// workload is split into a set-up phase (input generation, builds, pool
// prewarm) and a measured round of fixed work; a run repeats set-up and
// round until its time budget is spent and reports medians.
//
// Per-layer attribution comes from spans lfi-perfbench records around its
// own calls into each layer's public functions (asmtext::Parse,
// verifier::Verify, Runtime::Load, ...). Spans are recorded only in the
// traced run; with tracing off a Scope costs one branch.
#ifndef LFI_PERFBENCH_CORE_H_
#define LFI_PERFBENCH_CORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace lfi::perfbench {

// Seconds on the host's monotonic clock since the first call.
double Now();

// One timed call into a layer. `parent` indexes the enclosing span (-1 for
// a round's root span); `id` is the module, request, or program run the
// call served; `bytes` is the input the call consumed (for MB/s).
struct Span {
  const char* name = "";
  double start = 0, end = 0;
  int parent = -1;
  uint64_t id = 0;
  uint64_t bytes = 0;
  bool failed = false;  // the call returned an error or a rejection
  double dur() const { return end - start; }
};

// In-memory span recorder. Disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  int Open(const char* name, uint64_t id);
  void Close(int idx);
  Span& at(int idx) { return spans_[idx]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
  int open_ = -1;  // innermost open span
};

// RAII span around one call. Usage:
//   Scope s(t, "verifier.Verify", module_id);
//   auto r = verifier::Verify(text);
//   s.bytes(text.size()); s.failed(!r.ok);
class Scope {
 public:
  Scope(Tracer& t, const char* name, uint64_t id = 0)
      : t_(t), idx_(t.on() ? t.Open(name, id) : -1) {}
  ~Scope() {
    if (idx_ >= 0) t_.Close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void bytes(uint64_t n) {
    if (idx_ >= 0) t_.at(idx_).bytes = n;
  }
  void failed(bool f) {
    if (idx_ >= 0) t_.at(idx_).failed = f;
  }

 private:
  Tracer& t_;
  int idx_;
};

// Nearest-rank percentile of an unsorted sample (0 for an empty one).
double Percentile(std::vector<double> v, double p);
double Median(const std::vector<double>& v);

// The highest of p99.9 / p99 / p90 / p50 that has at least ten samples
// beyond it; p50 when even that has fewer (tiny samples).
double TailPercentileFor(size_t n);

// True when `name` is a legal metric name: [A-Za-z0-9_.-]+, starting
// with a letter or digit, at most 64 characters.
bool ValidMetricName(const std::string& name);

// Ordered name -> (value, unit) map, printed as the result's "metrics".
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // Adds name.p50 / name.tail / name.n for a sample of durations (seconds
  // in, microseconds out).
  void SetTimingUs(const std::string& name, const std::vector<double>& secs);
  const std::map<std::string, std::pair<double, std::string>>& all() const {
    return m_;
  }
  std::string Json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> m_;
};

// Per-name aggregates over a set of spans.
struct SpanStats {
  uint64_t count = 0;
  double total = 0;       // sum of durations
  double self = 0;        // sum of self times (duration minus children)
  uint64_t bytes = 0;
  std::vector<double> durs;
  // Throughput over the spans, in MB (1e6 bytes) per second.
  double MbPerS() const { return total > 0 ? bytes / total / 1e6 : 0; }
};

// Aggregates spans by name, filtered by `keep` (all spans when null).
std::map<std::string, SpanStats> Summarize(
    const std::vector<Span>& spans, bool (*keep)(const Span&) = nullptr);

// Name of the spans around the reference kernel's runs (UnitClock).
inline constexpr char kRefKernelSpan[] = "bench.ref_kernel";

// Share of each root span's duration covered by its direct children,
// as a percentage, median over the roots named `root`. Reference-kernel
// children count as neither: they are left out of the root's duration.
double CoveragePct(const std::vector<Span>& spans, const char* root);

// FNV-1a accumulator for the simulated-result fingerprint of a round.
class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

// What one measured round did.
struct RoundResult {
  uint64_t ops = 0;        // units of user work completed (runs, modules,
                           // requests)
  uint64_t attempted = 0;  // operations attempted
  uint64_t failed = 0;     // operations that failed a correctness check
  uint64_t sim_insts = 0;  // simulated instructions retired
  uint64_t fingerprint = 0;  // simulated results; identical every round
  // Host seconds of each unit of the round's work, in the same order
  // every round, and the host seconds of the reference kernel around it
  // (UnitClock).
  std::vector<double> unit_s, unit_ref_s;
};

// Host seconds of one run of a fixed reference kernel: integer arithmetic
// and random read-modify-writes over a 1 MiB table. It is the benchmark's
// own code, untouched by any change to LFI, so its time says how fast the
// host runs at that moment.
double RefKernelSeconds();

// The reference kernel's time on the reference host. Timings are reported
// at the reference host's speed: each unit's time is scaled by this over
// the kernel time measured next to it.
constexpr double kRefNominalS = 1e-3;

// Times the units of a round, each between two runs of the reference
// kernel. Construction runs the kernel and opens the first unit; Lap()
// closes the current unit, runs the kernel (outside any unit), gives the
// unit the mean of the kernel times before and after it, and opens the
// next unit. Kernel runs are spans of their own under `t`.
class UnitClock {
 public:
  UnitClock(RoundResult* r, Tracer& t) : r_(r), t_(t), ref_(Ref()) {
    t0_ = Now();
  }
  void Lap() {
    r_->unit_s.push_back(Now() - t0_);
    const double ref = Ref();
    r_->unit_ref_s.push_back((ref_ + ref) / 2);
    ref_ = ref;
    t0_ = Now();
  }

 private:
  double Ref() {
    Scope s(t_, kRefKernelSpan);
    return RefKernelSeconds();
  }

  RoundResult* r_;
  Tracer& t_;
  double ref_, t0_ = 0;
};

// A benchmark workload. Setup builds the inputs of one round (it is
// re-run before every round, so set-up time has many samples); Round does
// the round's fixed work; TracedExtra runs after each traced round,
// outside its timing, for attribution work the round itself cannot
// carry; Layers adds the per-layer metrics of a traced run from the spans
// recorded over it.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Setup(Tracer& t) = 0;
  virtual RoundResult Round(Tracer& t) = 0;
  virtual void TracedExtra(Tracer& t) { (void)t; }
  // Workload-specific per-layer metrics; `spans` covers every traced
  // set-up and round, `rounds` is the number of traced rounds.
  virtual void Layers(const std::vector<Span>& spans, int rounds,
                      Metrics* m) = 0;
};

// Scale of the inputs: the benchmark's own size, or a tiny one for the
// smoke self-test.
enum class Scale { kFull, kSmoke };

std::unique_ptr<Workload> MakeSpecMix(uint64_t seed, Scale scale);
std::unique_ptr<Workload> MakeBuildAdmit(uint64_t seed, Scale scale);
std::unique_ptr<Workload> MakeServeWarm(uint64_t seed, Scale scale);

// A workload program's name without its SPEC number ("505.mcf" -> "mcf").
std::string ShortName(const std::string& program);

// Every per-layer metric name lfi-perfbench emits, so each workload reports
// the full set (0 where its workload does not exercise the layer).
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames();

}  // namespace lfi::perfbench

#endif  // LFI_PERFBENCH_CORE_H_
