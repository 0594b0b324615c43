// Pure helpers of the end-to-end benchmark: the percentile rule, the
// backlog-growth test, open-loop due-time accounting, span recording with
// self-time reduction, and the result printer. Nothing here touches the
// library, so helpers_test.cc checks every rule in isolation.

#ifndef BAGCPD_E2EBENCH_HARNESS_H_
#define BAGCPD_E2EBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// \brief Nanoseconds on the steady clock (the one clock every span, due
/// time and receipt stamp uses).
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// \brief Nearest-rank position (1-based) of the `per_mille`/1000 quantile in
/// `n` sorted samples: ceil(per_mille * n / 1000), at least 1. Integer
/// arithmetic, so 0.99 * 1000 never rounds to 989.
inline std::size_t NearestRank(std::size_t n, int per_mille) {
  const std::size_t rank =
      (static_cast<std::size_t>(per_mille) * n + 999) / 1000;
  return std::max<std::size_t>(rank, 1);
}

/// \brief Samples strictly beyond the quantile's rank.
inline std::size_t SamplesBeyond(std::size_t n, int per_mille) {
  return n == 0 ? 0 : n - NearestRank(n, per_mille);
}

/// \brief The percentile rule: a tail quantile is reported only when at
/// least ten samples lie beyond it.
inline bool TailSupported(std::size_t n, int per_mille) {
  return SamplesBeyond(n, per_mille) >= 10;
}

/// \brief Nearest-rank quantile of `sorted` (ascending, non-empty).
inline double QuantileSorted(const std::vector<double>& sorted,
                             int per_mille) {
  return sorted[NearestRank(sorted.size(), per_mille) - 1];
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// \brief p50/p99 of a latency sample plus the bookkeeping the report
/// needs. `ok` is false when the p99 tail holds fewer than ten samples.
struct TailSummary {
  bool ok = false;
  std::size_t n = 0;
  std::size_t beyond_p99 = 0;
  double p50 = std::nan("");
  double p99 = std::nan("");
};

inline TailSummary Summarize(std::vector<double> samples) {
  TailSummary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = QuantileSorted(samples, 500);
  s.p99 = QuantileSorted(samples, 990);
  s.beyond_p99 = SamplesBeyond(s.n, 990);
  s.ok = TailSupported(s.n, 990);
  return s;
}

/// \brief Lower decile (nearest rank) of per-window figures: the aggregate
/// every timing uses across the windows or repeats of one run. On a shared
/// host, co-tenant load slows whole stretches of seconds; the lower decile
/// reads the run's unloaded stretches, so it moves with the code rather
/// than with the neighbours. With fewer than ten values it is the minimum.
inline double LowDecile(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, 100);
}

/// \brief Windowed tail: `samples` (in arrival order) are cut into
/// consecutive windows of `window` samples (a short last window joins the
/// one before it); p50 and p99 are taken per window and aggregated with
/// `aggregate` (LowDecile or Median). `ok` requires every window's p99 to
/// have ten samples beyond it.
template <typename Aggregate>
TailSummary WindowedSummary(const std::vector<double>& samples,
                            std::size_t window, Aggregate&& aggregate) {
  TailSummary out;
  out.n = samples.size();
  const std::size_t windows =
      window == 0 ? 0 : std::max<std::size_t>(1, samples.size() / window);
  if (samples.empty() || windows == 0) return out;
  std::vector<double> p50s, p99s;
  out.ok = true;
  out.beyond_p99 = samples.size();
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t begin = w * window;
    const std::size_t end = w + 1 == windows ? samples.size() : begin + window;
    const TailSummary s = Summarize(std::vector<double>(
        samples.begin() + begin, samples.begin() + end));
    p50s.push_back(s.p50);
    p99s.push_back(s.p99);
    out.ok = out.ok && s.ok;
    out.beyond_p99 = std::min(out.beyond_p99, s.beyond_p99);
  }
  out.p50 = aggregate(p50s);
  out.p99 = aggregate(p99s);
  return out;
}

/// \brief p50 and p99 of one run's latency sample. The p50 is taken per
/// `p50_window` samples and aggregated across windows by LowDecile; the p99
/// is taken over the whole run, where seed-dependent slow steps average out
/// (a per-window p99 would pick the window with the fewest of them).
inline TailSummary RunLatency(const std::vector<double>& samples,
                              std::size_t p50_window) {
  TailSummary out = Summarize(samples);
  out.p50 = WindowedSummary(samples, p50_window, [](std::vector<double> v) {
              return LowDecile(std::move(v));
            }).p50;
  return out;
}

/// \brief Rate at which the p99 latency crosses `limit_ms`, refined between
/// the last passing ladder rate and the first failing one by interpolating
/// log(p99) linearly in the rate; clamped to the two rates.
inline double InterpolateCrossing(double pass_rate, double pass_p99_ms,
                                  double fail_rate, double fail_p99_ms,
                                  double limit_ms) {
  const double lo = std::log(std::max(pass_p99_ms, 1e-9));
  const double hi = std::log(std::max(fail_p99_ms, 1e-9));
  if (!(hi > lo)) return pass_rate;
  const double f =
      std::clamp((std::log(limit_ms) - lo) / (hi - lo), 0.0, 1.0);
  return pass_rate + f * (fail_rate - pass_rate);
}

// ---------------------------------------------------------------------------
// Open loop: schedule, due-time accounting, backlog growth
// ---------------------------------------------------------------------------

/// \brief One bag the open-loop generator must send: when (relative to the
/// phase start) and to which key.
struct Arrival {
  std::int64_t due_offset_ns = 0;
  std::uint32_t key = 0;
};

/// \brief Poisson arrivals at `rate_per_s` for `count` bags with uniformly
/// random keys. `uniform01` returns draws in [0, 1) — the caller's seeded
/// generator, so the schedule is a pure function of the seed.
template <typename Uniform01>
std::vector<Arrival> PoissonSchedule(double rate_per_s, std::size_t count,
                                     std::uint32_t num_keys,
                                     Uniform01&& uniform01) {
  std::vector<Arrival> out(count);
  double t_s = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t_s += -std::log(1.0 - uniform01()) / rate_per_s;
    out[i].due_offset_ns = static_cast<std::int64_t>(t_s * 1e9);
    out[i].key = static_cast<std::uint32_t>(uniform01() * num_keys);
    if (out[i].key >= num_keys) out[i].key = num_keys - 1;
  }
  return out;
}

/// \brief Latency and generator lateness of one open-loop phase. Latency runs
/// from each bag's due time — not from when it was actually sent — so a
/// generator or Submit stall is charged to every bag it delayed.
struct OpenLoopAccount {
  std::vector<double> latency_ms;
  double late_ms_max = 0.0;
  /// Bags sent more than 1 ms after their due time.
  std::size_t late_count = 0;
};

inline OpenLoopAccount AccountOpenLoop(const std::vector<std::int64_t>& due_ns,
                                       const std::vector<std::int64_t>& sent_ns,
                                       const std::vector<std::int64_t>& done_ns) {
  OpenLoopAccount a;
  a.latency_ms.reserve(due_ns.size());
  for (std::size_t i = 0; i < due_ns.size(); ++i) {
    a.latency_ms.push_back(static_cast<double>(done_ns[i] - due_ns[i]) * 1e-6);
    const double late = static_cast<double>(sent_ns[i] - due_ns[i]) * 1e-6;
    a.late_ms_max = std::max(a.late_ms_max, late);
    if (late > 1.0) ++a.late_count;
  }
  return a;
}

/// \brief Backlog (submitted - processed) observed at time `t_s`.
struct BacklogSample {
  double t_s = 0.0;
  double backlog = 0.0;
};

/// \brief True when the backlog grows over the second half of a rate's run:
/// the least-squares slope over the samples in the second half, times that
/// half's length, exceeds `tolerance_bags`. Fewer than two samples in the
/// half never count as growth.
inline bool BacklogGrows(const std::vector<BacklogSample>& samples,
                         double tolerance_bags) {
  if (samples.size() < 2) return false;
  const double t0 = samples.front().t_s;
  const double t1 = samples.back().t_s;
  const double mid = 0.5 * (t0 + t1);
  double n = 0, st = 0, sb = 0, stt = 0, stb = 0;
  for (const BacklogSample& s : samples) {
    if (s.t_s < mid) continue;
    n += 1;
    st += s.t_s;
    sb += s.backlog;
    stt += s.t_s * s.t_s;
    stb += s.t_s * s.backlog;
  }
  const double denom = n * stt - st * st;
  if (n < 2 || denom <= 0.0) return false;
  const double slope = (n * stb - st * sb) / denom;
  return slope * (t1 - mid) > tolerance_bags;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// \brief One timed call into a layer. `parent` indexes the span that caused
/// it (-1 for a root); `id` is the step or submission sequence the span
/// belongs to.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t id = 0;
  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// \brief In-memory span log, written out once when the run ends.
class SpanLog {
 public:
  std::int64_t Add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent,
                   std::uint64_t id) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, id});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// \brief Tab-separated dump: index, name, start, end, parent, id.
  bool WriteTsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "index\tname\tstart_ns\tend_ns\tparent\tid\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%lld\t%llu\n", i, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.id));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

/// \brief Self time of every span: its duration minus the time its children
/// account for. A child inside the parent's interval counts the part of the
/// interval it covers; a replayed child (timed again after the parent
/// returned, so outside its interval) counts its whole duration, because it
/// re-times work the parent did. Children are assumed not to overlap each
/// other, which holds for the serial call chains this benchmark records.
inline std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration_ns();
  }
  for (const Span& child : spans) {
    if (child.parent < 0) continue;
    const Span& parent = spans[static_cast<std::size_t>(child.parent)];
    const bool inside =
        child.start_ns < parent.end_ns && child.end_ns > parent.start_ns;
    const std::int64_t covered =
        inside ? std::min(child.end_ns, parent.end_ns) -
                     std::max(child.start_ns, parent.start_ns)
               : child.duration_ns();
    self[static_cast<std::size_t>(child.parent)] -= covered;
  }
  return self;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// \brief Peak resident set of this process in MiB: VmHWM from
/// /proc/self/status. (getrusage's ru_maxrss would also count the parent's
/// resident set at fork, which survives exec.)
inline double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return std::nan("");
  char line[256];
  double kib = std::nan("");
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// \brief Machine-wide CPU ticks from /proc/stat: all of them, and those the
/// hypervisor stole from this virtual machine. A run's steal share goes in
/// its fingerprint; runs with a high share read slow.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};

inline CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += static_cast<double>(x);
    t.steal = static_cast<double>(v[7]);
  }
  std::fclose(f);
  return t;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// \brief The result line: one JSON object, metrics printed with all their
/// digits.
inline void PrintResult(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace e2e

#endif  // BAGCPD_E2EBENCH_HARNESS_H_
