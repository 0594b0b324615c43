// Checks the benchmark's own rules: the percentile rule, open-loop due-time
// accounting, the backlog-growth test and span self-time reduction. Exits 0
// when every check passes; run it with `python3 e2ebench/run.py --self-test`.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

void TestPercentileRule() {
  // 1000 samples: p99 is rank 990, ten samples lie beyond it.
  Check(e2e::NearestRank(1000, 990) == 990, "rank of p99 in 1000");
  Check(e2e::SamplesBeyond(1000, 990) == 10, "10 beyond p99 in 1000");
  Check(e2e::TailSupported(1000, 990), "p99 supported at 1000");
  Check(!e2e::TailSupported(999, 990), "p99 unsupported at 999");
  Check(!e2e::TailSupported(100, 990), "p99 unsupported at 100");
  Check(e2e::TailSupported(20, 500), "p50 supported at 20");
  Check(e2e::NearestRank(1, 990) == 1, "rank never below 1");

  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // Unsorted input.
  const e2e::TailSummary s = e2e::Summarize(v);
  Check(s.ok && s.n == 1000 && s.beyond_p99 == 10, "summary bookkeeping");
  Check(s.p50 == 500.0 && s.p99 == 990.0, "nearest-rank p50 and p99");
  Check(!e2e::Summarize(std::vector<double>(500, 1.0)).ok,
        "summary flags a short tail");
  Check(e2e::Median({3.0, 1.0, 2.0, 10.0}) == 2.5, "even-count median");

  // Five windows of 1000; one window holds a stall that lifts its p99.
  std::vector<double> w;
  for (int win = 0; win < 5; ++win) {
    for (int i = 0; i < 1000; ++i) {
      w.push_back(win == 2 && i > 900 ? 50.0 : 1.0 + i % 10);
    }
  }
  const auto median = [](std::vector<double> v) { return e2e::Median(v); };
  const e2e::TailSummary ws = e2e::WindowedSummary(w, 1000, median);
  Check(ws.ok && ws.n == 5000 && ws.beyond_p99 == 10, "windowed bookkeeping");
  Check(ws.p99 == 10.0, "one stalled window does not move the median p99");
  Check(e2e::Summarize(w).p99 == 50.0, "the pooled p99 does move");
  Check(e2e::WindowedSummary(std::vector<double>(1500, 1.0), 1000, median)
                .beyond_p99 == 15,
        "short last window joins the one before");

  // Lower decile: nearest rank 10% (rank 2 of 20), the minimum below ten.
  std::vector<double> d;
  for (int i = 20; i >= 1; --i) d.push_back(i);
  Check(e2e::LowDecile(d) == 2.0, "lower decile of 1..20");
  Check(e2e::LowDecile({5.0, 3.0, 4.0}) == 3.0, "lower decile of few = min");

  // RunLatency: the p50 over small windows reads the fast stretch (the
  // first 3000 samples are slowed x2); the p99 pools the whole run.
  std::vector<double> r;
  for (int i = 0; i < 4000; ++i) {
    r.push_back((i < 3000 ? 2.0 : 1.0) * (1 + i % 100));
  }
  const e2e::TailSummary rl = e2e::RunLatency(r, 100);
  Check(rl.ok && rl.n == 4000 && rl.beyond_p99 == 40,
        "run latency tail bookkeeping");
  Check(rl.p50 == 50.0, "run latency p50 reads the fast stretch");
  Check(rl.p99 == e2e::Summarize(r).p99, "run latency p99 is pooled");

  // Crossing: p99 2 ms at 100/s, 8 ms at 200/s; log-midpoint 4 ms at 150/s.
  Check(std::fabs(e2e::InterpolateCrossing(100, 2, 200, 8, 4) - 150) < 1e-9,
        "log interpolation");
  Check(e2e::InterpolateCrossing(100, 2, 200, 8, 100) == 200,
        "clamped to the failing rate");
  Check(e2e::InterpolateCrossing(100, 6, 200, 3, 5) == 100,
        "non-increasing p99 keeps the passing rate");
}

void TestOpenLoopAccounting() {
  // Three bags due 1 ms apart. The generator stalls 5 ms on the second, so
  // it and the third are sent late; latency counts from the due time.
  const std::vector<std::int64_t> due = {0, 1000000, 2000000};
  const std::vector<std::int64_t> sent = {0, 6000000, 6000100};
  const std::vector<std::int64_t> done = {500000, 6500000, 7000000};
  const e2e::OpenLoopAccount a = e2e::AccountOpenLoop(due, sent, done);
  Check(a.latency_ms.size() == 3, "one latency per bag");
  Check(a.latency_ms[0] == 0.5, "on-time bag latency");
  Check(a.latency_ms[1] == 5.5, "stalled bag charged from due time");
  Check(a.latency_ms[2] == 5.0, "bag behind the stall charged too");
  Check(a.late_ms_max == 5.0, "generator lateness max");
  Check(a.late_count == 2, "late bags counted");

  // The schedule is a pure function of the draws and has the right rate.
  unsigned long long state = 42;
  auto uniform = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  const std::vector<e2e::Arrival> s =
      e2e::PoissonSchedule(10000.0, 20000, 16, uniform);
  bool ascending = true;
  bool keys_ok = true;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i > 0 && s[i].due_offset_ns < s[i - 1].due_offset_ns) {
      ascending = false;
    }
    if (s[i].key >= 16) keys_ok = false;
  }
  Check(ascending, "due times ascend");
  Check(keys_ok, "keys in range");
  const double span_s = static_cast<double>(s.back().due_offset_ns) * 1e-9;
  Check(span_s > 1.9 && span_s < 2.1, "20000 arrivals at 10k/s span ~2 s");
}

void TestBacklogGrowth() {
  std::vector<e2e::BacklogSample> flat, growing, drained_late;
  for (int i = 0; i <= 100; ++i) {
    const double t = i * 0.01;
    flat.push_back({t, 20.0 + (i % 3)});            // Noise, no trend.
    growing.push_back({t, 1000.0 * t});             // +500 over the half.
    // Grows in the first half, then drains: not growth in the second half.
    drained_late.push_back({t, t < 0.5 ? 1000.0 * t : 1000.0 * (1.0 - t)});
  }
  Check(!e2e::BacklogGrows(flat, 64.0), "flat backlog does not grow");
  Check(e2e::BacklogGrows(growing, 64.0), "linear backlog grows");
  Check(!e2e::BacklogGrows(growing, 1000.0), "growth within tolerance");
  Check(!e2e::BacklogGrows(drained_late, 64.0),
        "only the second half counts");
  Check(!e2e::BacklogGrows({{0.0, 5.0}}, 1.0), "one sample is no growth");
}

void TestSelfTime() {
  e2e::SpanLog log;
  // Root 0..1000 with two nested children covering 100..300 and 400..900.
  const std::int64_t root = log.Add("root", 0, 1000, -1, 7);
  log.Add("a", 100, 300, root, 7);
  const std::int64_t b = log.Add("b", 400, 900, root, 7);
  log.Add("b.inner", 500, 600, b, 7);
  // A replayed child timed after the root returned counts its full length.
  log.Add("replayed", 2000, 2050, root, 7);
  // A child straddling its parent's end counts only the covered part.
  const std::int64_t p = log.Add("p", 5000, 5100, -1, 8);
  log.Add("straddle", 5050, 5200, p, 8);
  const std::vector<std::int64_t> self = e2e::SelfTimes(log.spans());
  Check(self[0] == 1000 - 200 - 500 - 50, "root self time");
  Check(self[1] == 200, "leaf self time");
  Check(self[2] == 500 - 100, "nested parent self time");
  Check(self[4] == 50, "replayed leaf");
  Check(self[5] == 100 - 50, "straddling child clipped to the parent");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestOpenLoopAccounting();
  TestBacklogGrowth();
  TestSelfTime();
  if (failures == 0) std::printf("e2e helpers: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
