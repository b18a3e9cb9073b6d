#include "core.h"

#include <algorithm>
#include <chrono>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace lfi::perfbench {

double Now() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double RefKernelSeconds() {
  static std::vector<uint32_t> table(1 << 18);
  uint64_t x = 0x9e3779b97f4a7c15ull;
  const double t0 = Now();
  for (int i = 0; i < 200000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    table[(x >> 40) & (table.size() - 1)] += static_cast<uint32_t>(x);
  }
  const double dt = Now() - t0;
  // Reads the table so that the loop is not optimised away.
  if (table[x & (table.size() - 1)] == 0x12345678u) std::fputc(' ', stderr);
  return dt;
}

int Tracer::Open(const char* name, uint64_t id) {
  Span s;
  s.name = name;
  s.parent = open_;
  s.id = id;
  spans_.push_back(s);
  open_ = static_cast<int>(spans_.size()) - 1;
  // Read the clock last so the bookkeeping above is not charged to the
  // call being timed.
  spans_.back().start = Now();
  return open_;
}

void Tracer::Close(int idx) {
  const double t = Now();
  spans_[idx].end = t;
  open_ = spans_[idx].parent;
}

namespace {

// Nearest rank of the p-th percentile of n samples (1-based; 0 for p = 0).
// The epsilon keeps p/100*n from rounding up past an exact integer.
size_t Rank(double p, size_t n) {
  return static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
}

}  // namespace

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least p% of the sample at or
  // below it.
  size_t rank = Rank(p, v.size());
  if (rank < 1) rank = 1;
  if (rank > v.size()) rank = v.size();
  return v[rank - 1];
}

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

double TailPercentileFor(size_t n) {
  for (double p : {99.9, 99.0, 90.0}) {
    // Samples strictly beyond the nearest-rank p-th percentile.
    const size_t rank = Rank(p, n);
    if (n >= rank && n - rank >= 10) return p;
  }
  return 50.0;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64 || !std::isalnum(static_cast<unsigned char>(name[0]))) {
    return false;
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  m_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

void Metrics::SetTimingUs(const std::string& name,
                          const std::vector<double>& secs) {
  Set(name + ".p50", Percentile(secs, 50) * 1e6, "us");
  Set(name + ".tail", Percentile(secs, TailPercentileFor(secs.size())) * 1e6,
      "us");
  Set(name + ".n", static_cast<double>(secs.size()), "count");
}

std::string Metrics::Json() const {
  std::string out = "{";
  bool first = true;
  char buf[64];
  for (const auto& [name, vu] : m_) {
    if (!first) out += ", ";
    first = false;
    std::snprintf(buf, sizeof buf, "%.17g", vu.first);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  return out + "}";
}

std::map<std::string, SpanStats> Summarize(const std::vector<Span>& spans,
                                           bool (*keep)(const Span&)) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child[s.parent] += s.dur();
  }
  std::map<std::string, SpanStats> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (keep != nullptr && !keep(s)) continue;
    SpanStats& st = out[s.name];
    ++st.count;
    st.total += s.dur();
    st.self += s.dur() - child[i];
    st.bytes += s.bytes;
    st.durs.push_back(s.dur());
  }
  return out;
}

std::string ShortName(const std::string& program) {
  const size_t dot = program.find('.');
  return dot == std::string::npos ? program : program.substr(dot + 1);
}

double CoveragePct(const std::vector<Span>& spans, const char* root) {
  std::map<int, double> covered, ref;
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    (std::strcmp(s.name, kRefKernelSpan) == 0 ? ref : covered)[s.parent] +=
        s.dur();
  }
  std::vector<double> pct;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double dur = spans[i].dur() - ref[static_cast<int>(i)];
    if (std::string(spans[i].name) != root || dur <= 0) continue;
    pct.push_back(100.0 * covered[static_cast<int>(i)] / dur);
  }
  return Median(pct);
}

}  // namespace lfi::perfbench
