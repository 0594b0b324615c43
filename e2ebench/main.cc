// End-to-end benchmark of bagcpd. One process runs one workload:
//
//   bagcpd_e2e --workload NAME --seed N --seconds S --trace 0|1
//              [--spans PATH] [--commit ID]
//
// Inputs are generated from --seed before any timer starts. With --trace 0
// the last stdout line is the result object holding every end-to-end metric;
// with --trace 1 each step is also replayed through the public layer calls
// (see replay.h), the replay is checked bitwise against Push, and the result
// holds every per-layer metric. Correctness checks run on every run, outside
// the timed regions; a failed check exits 1 and prints no timings and no
// result, only the failures on stderr.
// Workloads, metrics and their definitions are listed in README.md.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bagcpd/batch/batch_runner.h"
#include "bagcpd/batch/synthetic.h"
#include "bagcpd/common/flat_bag.h"
#include "bagcpd/common/rng.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/runtime/stream_engine.h"
#include "harness.h"
#include "replay.h"

#ifndef E2E_CXX_FLAGS
#define E2E_CXX_FLAGS "unknown"
#endif
#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

using bagcpd::BagView;
using bagcpd::DetectorOptions;
using bagcpd::FlatBag;
using bagcpd::StepResult;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spans_path;
  std::string commit = "unknown";
};

// Everything one run reports. Metrics not produced by a workload's layers
// stay 0 (see README.md, "Per-layer metrics").
struct Report {
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::pair<std::string, std::string>> fingerprint;
  SpanLog spans;

  void Fail(const std::string& what) { failures.push_back(what); }
  void Note(const std::string& key, const std::string& value) {
    fingerprint.emplace_back(key, value);
  }
  void Note(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    fingerprint.emplace_back(key, buf);
  }
};

double Us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }
double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

FlatBag MakeFlat(const double* values, std::size_t count) {
  std::vector<double> v(values, values + count);
  bagcpd::Result<FlatBag> flat = FlatBag::FromFlat(std::move(v), 2);
  return flat.MoveValueUnsafe();
}

// Sequential Gaussian bag stream with a mean shift planted every `period`
// bags: bag i is drawn around (i / period) % 2 * shift in every coordinate.
class BagStream {
 public:
  BagStream(std::uint64_t seed, std::size_t points, std::size_t dim,
            std::size_t period, double shift)
      : rng_(seed), points_(points), dim_(dim), period_(period),
        shift_(shift) {}

  FlatBag Next() {
    const double mean = (index_ / period_) % 2 == 1 ? shift_ : 0.0;
    std::vector<double> v(points_ * dim_);
    for (double& x : v) x = rng_.Gaussian(mean, 1.0);
    ++index_;
    return FlatBag::FromFlat(std::move(v), dim_).MoveValueUnsafe();
  }

 private:
  bagcpd::Rng rng_;
  std::size_t points_;
  std::size_t dim_;
  std::size_t period_;
  double shift_;
  std::uint64_t index_ = 0;
};

// One detector plus its replay chain, fed identical bags. Push is timed as
// a root span; the replayed layer calls become its children. Spans and
// steady-state counters start after the first StepResult (warm-up pushes
// carry no score work). Without `replay` it only times Push (the untraced
// batch reference, which compares Push with the batch rows instead).
class ChainProbe {
 public:
  explicit ChainProbe(const DetectorOptions& options, bool replay = true)
      : replayer_(options), replay_(replay) {
    detector_ = bagcpd::BagStreamDetector::Create(options).MoveValueUnsafe();
  }

  // Returns false (with `error` set) when Push fails or the replay differs
  // bitwise from it.
  bool Step(BagView bag, SpanLog* log, std::uint64_t id,
            std::optional<StepResult>* result, std::string* error) {
    const std::int64_t t0 = NowNs();
    bagcpd::Result<std::optional<StepResult>> pushed = detector_->Push(bag);
    const std::int64_t t1 = NowNs();
    if (!pushed.ok()) {
      *error = "Push: " + pushed.status().ToString();
      return false;
    }
    const bool steady = primed_;
    std::int64_t parent = -1;
    if (steady) {
      push_ns_.push_back(t1 - t0);
      if (log != nullptr) parent = log->Add(kSpanPush, t0, t1, -1, id);
    }
    const std::optional<StepResult>& a = pushed.ValueOrDie();
    if (replay_) {
      bagcpd::Result<std::optional<StepResult>> replayed =
          replayer_.Replay(bag, steady ? log : nullptr, parent, id);
      if (!replayed.ok()) {
        *error = "replay: " + replayed.status().ToString();
        return false;
      }
      const std::optional<StepResult>& b = replayed.ValueOrDie();
      if (a.has_value() != b.has_value() || (a && !SameStep(*a, *b))) {
        *error = "replay differs from Push at push " +
                 std::to_string(detector_->pushed_count());
        return false;
      }
      if (b.has_value()) checksum_replay_ = FoldStep(checksum_replay_, *b);
    }
    if (a.has_value()) {
      checksum_push_ = FoldStep(checksum_push_, *a);
      if (!primed_) {
        primed_ = true;
        const bagcpd::EmdSolver& s = detector_->emd_solver();
        solves0_ = s.solve_count();
        allocs0_ = s.allocation_count();
        fallbacks0_ = s.fallback_count();
      } else {
        ++steady_steps_;
      }
    }
    *result = a;
    return true;
  }

  bool checksums_match() const { return checksum_push_ == checksum_replay_; }
  std::uint64_t checksum() const { return checksum_push_; }
  const std::vector<std::int64_t>& push_ns() const { return push_ns_; }
  std::uint64_t steady_steps() const { return steady_steps_; }
  std::uint64_t steady_solves() const {
    return primed_ ? detector_->emd_solver().solve_count() - solves0_ : 0;
  }
  std::uint64_t steady_allocs() const {
    return primed_ ? detector_->emd_solver().allocation_count() - allocs0_ : 0;
  }
  std::uint64_t fallbacks() const {
    return detector_->emd_solver().fallback_count() - fallbacks0_;
  }

 private:
  std::unique_ptr<bagcpd::BagStreamDetector> detector_;
  StepReplayer replayer_;
  bool replay_;
  bool primed_ = false;
  std::uint64_t steady_steps_ = 0;
  std::uint64_t solves0_ = 0, allocs0_ = 0, fallbacks0_ = 0;
  std::uint64_t checksum_push_ = 0, checksum_replay_ = 0;
  std::vector<std::int64_t> push_ns_;
};

// Counters summed over the probes of one run.
struct ProbeTotals {
  std::uint64_t steps = 0, solves = 0, allocs = 0, fallbacks = 0;
  void Add(const ChainProbe& p) {
    steps += p.steady_steps();
    solves += p.steady_solves();
    allocs += p.steady_allocs();
    fallbacks += p.fallbacks();
  }
};

// ---------------------------------------------------------------------------
// Metric sets
// ---------------------------------------------------------------------------

// The step and end-to-end latency summaries of a run, in microseconds. The
// serial and batch workloads pass one summary for both (a closed-loop Push
// is due when issued), so there e2e_latency_ms_* is step_us_* / 1000.
void AddLatencyMetrics(const TailSummary& step, const TailSummary& e2e,
                       Report* report) {
  for (const TailSummary* s : {&step, &e2e}) {
    if (!s->ok) {
      report->Fail("p99 has " + std::to_string(s->beyond_p99) +
                   " samples beyond it (need 10) out of " +
                   std::to_string(s->n));
    }
  }
  report->Note("latency_samples", static_cast<double>(step.n));
  report->Note("latency_samples_beyond_p99",
               static_cast<double>(step.beyond_p99));
  if (&e2e != &step) {
    report->Note("e2e_latency_samples", static_cast<double>(e2e.n));
    report->Note("e2e_latency_samples_beyond_p99",
                 static_cast<double>(e2e.beyond_p99));
  }
  report->e2e.push_back({"step_us_p50", step.p50, "us"});
  report->e2e.push_back({"step_us_p99", step.p99, "us"});
  report->e2e.push_back({"e2e_latency_ms_p50", e2e.p50 * 1e-3, "ms"});
  report->e2e.push_back({"e2e_latency_ms_p99", e2e.p99 * 1e-3, "ms"});
}

void AddLatencyMetrics(const TailSummary& s, Report* report) {
  AddLatencyMetrics(s, s, report);
}

// Detector-layer metrics reduced from the replay spans plus probe counters.
void AddDetectorLayerMetrics(const SpanLog& log, const ProbeTotals& totals,
                             int replicates, Report* report) {
  const std::vector<Span>& spans = log.spans();
  const std::vector<std::int64_t> self = SelfTimes(spans);
  std::vector<double> push_self_us, sig_us, emd_us, score_us, boot_us;
  double push_total = 0, replay_total = 0, sig_total = 0, emd_total = 0,
         boot_total = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string_view name = s.name;
    const double d = Us(s.duration_ns());
    if (name == kSpanPush) {
      push_total += d;
      push_self_us.push_back(Us(self[i]));
      continue;
    }
    replay_total += d;
    if (name == kSpanSignature) {
      sig_us.push_back(d);
      sig_total += d;
    } else if (name == kSpanEmd) {
      emd_us.push_back(d);
      emd_total += d;
    } else if (name == kSpanScore) {
      score_us.push_back(d);
    } else if (name == kSpanBootstrap) {
      boot_us.push_back(d);
      boot_total += d;
    }
  }
  const double share_base = push_total > 0 ? push_total : 1.0;
  const double boot_p50 = Median(boot_us);
  std::vector<Metric>& m = report->layer;
  m.push_back({"bootstrap.us_p50", boot_p50, "us"});
  m.push_back({"bootstrap.us_per_replicate",
               replicates > 0 ? boot_p50 / replicates : 0.0, "us"});
  m.push_back({"bootstrap.share", boot_total / share_base, "ratio"});
  m.push_back({"emd.column_us_p50", Median(emd_us), "us"});
  m.push_back({"emd.us_per_solve",
               totals.solves > 0 && totals.steps > 0
                   ? emd_total / static_cast<double>(emd_us.size()) /
                         (static_cast<double>(totals.solves) / totals.steps)
                   : 0.0,
               "us"});
  m.push_back({"emd.solves",
               totals.steps > 0
                   ? static_cast<double>(totals.solves) / totals.steps
                   : 0.0,
               "solves/step"});
  m.push_back({"emd.allocs_steady", static_cast<double>(totals.allocs),
               "count"});
  m.push_back({"emd.fallbacks", static_cast<double>(totals.fallbacks),
               "count"});
  m.push_back({"emd.share", emd_total / share_base, "ratio"});
  m.push_back({"signature.build_us_p50", Median(sig_us), "us"});
  m.push_back({"signature.share", sig_total / share_base, "ratio"});
  m.push_back({"scores.us_p50", Median(score_us), "us"});
  m.push_back({"detector.self_us_p50", Median(push_self_us), "us"});
  m.push_back({"detector.replay_coverage", replay_total / share_base,
               "ratio"});
  m.push_back({"detector.push_s_total", push_total * 1e-6, "s"});
  m.push_back({"detector.replay_s_total", replay_total * 1e-6, "s"});
}

struct RuntimeLayer {
  double submit_us_p50 = 0, submit_us_p99 = 0;
  double queue_wait_us_p50 = 0, queue_wait_us_p99 = 0;
  double process_emit_us_p50 = 0;
  double backlog_max = 0, gen_late_ms_max = 0, dropped = 0;
  double arena_hit_rate = 0, arena_dropped_releases = 0;
};

void AddRuntimeLayerMetrics(const RuntimeLayer& r, Report* report) {
  std::vector<Metric>& m = report->layer;
  m.push_back({"runtime.submit_us_p50", r.submit_us_p50, "us"});
  m.push_back({"runtime.submit_us_p99", r.submit_us_p99, "us"});
  m.push_back({"runtime.queue_wait_us_p50", r.queue_wait_us_p50, "us"});
  m.push_back({"runtime.queue_wait_us_p99", r.queue_wait_us_p99, "us"});
  m.push_back({"runtime.process_emit_us_p50", r.process_emit_us_p50, "us"});
  m.push_back({"runtime.backlog_max", r.backlog_max, "bags"});
  m.push_back({"runtime.gen_late_ms_max", r.gen_late_ms_max, "ms"});
  m.push_back({"runtime.dropped", r.dropped, "count"});
  m.push_back({"arena.hit_rate", r.arena_hit_rate, "ratio"});
  m.push_back({"arena.dropped_releases", r.arena_dropped_releases, "count"});
}

struct BatchLayer {
  double table_build_s = 0, run_s = 0, rows_per_s = 0;
};

void AddBatchLayerMetrics(const BatchLayer& b, Report* report) {
  report->layer.push_back({"batch.table_build_s", b.table_build_s, "s"});
  report->layer.push_back({"batch.run_s", b.run_s, "s"});
  report->layer.push_back({"batch.rows_per_s", b.rows_per_s, "rows/s"});
}

// ---------------------------------------------------------------------------
// paper_step / wide_k: one serial detector, closed loop
// ---------------------------------------------------------------------------

struct SerialShape {
  std::size_t k;
  std::size_t points;
  std::size_t dim;
  std::size_t prefix;      // Bags in the untimed bitwise-check prefix.
  std::size_t p50_window;  // Pushes per p50 window (~0.1-0.25 s).
};

constexpr std::size_t kShiftPeriod = 200;
constexpr double kShift = 1.5;
// Latency samples a serial run collects at least, so the p99 has ten
// samples beyond it.
constexpr std::size_t kMinTailSamples = 1100;
// Set-ups a run times at least for the setup_s median.
constexpr std::size_t kMinSetups = 9;

DetectorOptions SerialDetector(const SerialShape& shape, std::uint64_t seed) {
  DetectorOptions o;
  o.tau = 5;
  o.tau_prime = 5;
  o.signature.k = shape.k;
  o.bootstrap.replicates = 200;
  o.seed = seed;
  return o;
}

void RunSerial(const Args& args, const SerialShape& shape, Report* report) {
  const DetectorOptions options = SerialDetector(shape, args.seed);
  const std::size_t window = options.tau + options.tau_prime;
  report->Note("detector", "tau=5 tau'=5 k=" + std::to_string(shape.k) +
                               " points=" + std::to_string(shape.points) +
                               " dim=" + std::to_string(shape.dim) +
                               " emd=exact T=200");
  auto stream = [&] {
    return BagStream(args.seed, shape.points, shape.dim, kShiftPeriod, kShift);
  };

  // Untimed check: Push and the replay agree bitwise on a fixed prefix.
  {
    ChainProbe probe(options);
    BagStream bags = stream();
    std::string error;
    for (std::size_t i = 0; i < shape.prefix; ++i) {
      std::optional<StepResult> r;
      if (!probe.Step(bags.Next(), nullptr, i, &r, &error)) {
        report->Fail("prefix check: " + error);
        return;
      }
    }
    if (!probe.checksums_match()) report->Fail("prefix checksum differs");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, probe.checksum());
    report->Note("prefix_checksum", buf);
  }

  // Set-up: Create plus the warm-up pushes that fill the window. One set-up
  // runs between consecutive p50 windows, so the median pools the whole
  // run's conditions the way the pooled p99 does.
  std::vector<FlatBag> warm;
  {
    BagStream bags = stream();
    for (std::size_t i = 0; i < window; ++i) warm.push_back(bags.Next());
  }
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const std::int64_t t0 = NowNs();
    auto created = bagcpd::BagStreamDetector::Create(options);
    if (!created.ok()) {
      report->Fail("Create: " + created.status().ToString());
      return;
    }
    auto detector = created.MoveValueUnsafe();
    for (const FlatBag& bag : warm) {
      if (!detector->Push(bag.view()).ok()) report->Fail("warm-up Push");
    }
    setup_s.push_back(Seconds(NowNs() - t0));
  };

  BagStream bags = stream();
  const std::int64_t budget_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  std::vector<double> latency_us;
  const auto account = [&](std::int64_t ns) {
    latency_us.push_back(Us(ns));
    if (latency_us.size() % shape.p50_window == 0) set_up();
  };
  const auto running = [&](std::int64_t start) {
    return NowNs() - start < budget_ns || latency_us.size() < kMinTailSamples ||
           setup_s.size() < kMinSetups;
  };

  if (args.trace == 0) {
    auto detector = bagcpd::BagStreamDetector::Create(options).MoveValueUnsafe();
    for (std::size_t i = 0; i < window; ++i) {
      ++report->attempted;
      if (!detector->Push(bags.Next().view()).ok()) ++report->failed;
    }
    const std::int64_t start = NowNs();
    while (running(start)) {
      const FlatBag bag = bags.Next();
      const std::int64_t t0 = NowNs();
      const bool ok = detector->Push(bag.view()).ok();
      const std::int64_t t1 = NowNs();
      ++report->attempted;
      if (!ok) ++report->failed;
      account(t1 - t0);
    }
  } else {
    ChainProbe probe(options);
    std::string error;
    const std::int64_t start = NowNs();
    std::uint64_t id = 0;
    while (running(start)) {
      const FlatBag bag = bags.Next();
      std::optional<StepResult> r;
      const std::size_t timed_before = probe.push_ns().size();
      ++report->attempted;
      if (!probe.Step(bag.view(), &report->spans, id++, &r, &error)) {
        report->Fail("traced step: " + error);
        return;
      }
      if (probe.push_ns().size() > timed_before) {
        account(probe.push_ns().back());
      }
    }
    ProbeTotals totals;
    totals.Add(probe);
    AddDetectorLayerMetrics(report->spans, totals,
                            options.bootstrap.replicates, report);
    AddRuntimeLayerMetrics(RuntimeLayer{}, report);
    AddBatchLayerMetrics(BatchLayer{}, report);
  }

  // Per-window figures, aggregated by LowDecile: the mean Push time of each
  // p50 window gives the rate, each 200-bag planted-shift period a wall
  // time.
  const auto sums = [&](std::size_t size, double scale) {
    std::vector<double> out;
    for (std::size_t b = 0; b + size <= latency_us.size(); b += size) {
      double sum = 0.0;
      for (std::size_t i = b; i < b + size; ++i) sum += latency_us[i];
      out.push_back(sum * scale);
    }
    return out;
  };
  const std::vector<double> window_mean_s =
      sums(shape.p50_window, 1e-6 / shape.p50_window);
  const std::vector<double> period_s = sums(kShiftPeriod, 1e-6);
  report->e2e.push_back({"setup_s", Median(setup_s), "s"});
  report->Note("setups", static_cast<double>(setup_s.size()));
  AddLatencyMetrics(RunLatency(latency_us, shape.p50_window), report);
  report->e2e.push_back(
      {"sustained_bags_per_s", 1.0 / LowDecile(window_mean_s), "bags/s"});
  report->e2e.push_back({"batch_wall_s", LowDecile(period_s), "s"});
  report->Note("periods", static_cast<double>(period_s.size()));
}

// ---------------------------------------------------------------------------
// engine_open: StreamEngine under an open-loop Poisson generator
// ---------------------------------------------------------------------------

constexpr std::uint32_t kEngineKeys = 2048;
constexpr std::size_t kEngineShards = 3;
constexpr std::size_t kEnginePoints = 16;
constexpr std::size_t kEngineBagDoubles = kEnginePoints * 2;
// Open-loop capacity of this profile is ~20k bags/s on a 4-core x86 host;
// the nominal rate is ~40% of it and the ladder straddles it.
constexpr double kNominalRate = 8000.0;
constexpr double kLadderStep = 1.10;
constexpr int kLadderRungs = 4;
constexpr double kLadderBase = 16000.0;
constexpr double kLatencyLimitMs = 5.0;
constexpr std::uint32_t kEngineSampleEvery = 128;  // 16 sampled keys.
// Latency windows (in bags) of the nominal phase, and the windows whose
// median p99 judges a ladder rung.
constexpr std::size_t kNominalWindow = 1000;
constexpr std::size_t kRungWindow = 1000;
// Engine set-ups (Create plus one bag per key) timed for setup_s before the
// first phase, the first building the engine that runs the workload; one
// more runs before every later phase.
constexpr int kEngineSetupReps = 3;
// Closed-loop bursts at random keys, each drained before the next (~0.4 s
// of work each). They define batch_wall_s, e2e_latency_ms_* and step_us_*.
constexpr int kEngineBursts = 12;
constexpr std::size_t kEngineBurstBags = 8192;

DetectorOptions EngineDetector() {
  DetectorOptions o;
  o.tau = 4;
  o.tau_prime = 4;
  o.signature.k = 4;
  o.bootstrap.replicates = 20;
  return o;
}

std::string KeyName(std::uint32_t k) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key-%04u", k);
  return buf;
}

// Waits until the steady clock reaches `due_ns`: sleeps while the due time
// is far off, then spins. A sleeping thread can take milliseconds to wake
// on a virtualized host, and a yielding one can wait out a shard worker's
// whole time slice, so the last 200 us are spun: the generator keeps one
// core and the three shard workers share the other three.
void WaitUntil(std::int64_t due_ns) {
  for (;;) {
    const std::int64_t left = due_ns - NowNs();
    if (left <= 0) return;
    if (left > 300000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 200000));
    }
  }
}

struct Phase {
  std::string name;
  double rate = 0.0;          // 0 for the closed-loop fill and bursts.
  std::size_t begin = 0;      // Submission index range [begin, end).
  std::size_t end = 0;
  std::vector<BacklogSample> backlog;
};

void RunEngine(const Args& args, Report* report) {
  const DetectorOptions profile = EngineDetector();
  const std::size_t fill_rounds = profile.tau + profile.tau_prime - 1;
  std::vector<double> ladder;
  for (int i = 0; i < kLadderRungs; ++i) {
    ladder.push_back(kLadderBase * std::pow(kLadderStep, i));
  }
  // Time split: 30% nominal, 45% shared by the ladder rungs; the bursts and
  // set-ups take most of the rest.
  const double nominal_s = std::max(0.3 * args.seconds, 0.2);
  const double rung_s = std::max(0.45 * args.seconds / kLadderRungs, 0.2);
  {
    std::string rates;
    for (double r : ladder) rates += (rates.empty() ? "" : ",") +
                                     std::to_string(static_cast<int>(r));
    report->Note("ladder_rates", rates);
  }
  report->Note("nominal_rate", kNominalRate);
  report->Note("shards", static_cast<double>(kEngineShards));
  report->Note("keys", static_cast<double>(kEngineKeys));
  report->Note("detector", "tau=4 tau'=4 k=4 points=16 dim=2 emd=exact T=20");

  // --- Inputs: the whole schedule and every bag, before any timer. ------
  bagcpd::Rng rng(args.seed);
  const auto uniform = [&rng] { return rng.Uniform(); };
  std::vector<Phase> phases;
  std::vector<std::uint32_t> key_of;      // Per submission index.
  std::vector<std::int64_t> due_offset;   // Relative to its phase start.
  {
    Phase fill;
    fill.name = "fill";
    for (std::size_t r = 0; r < fill_rounds; ++r) {
      for (std::uint32_t k = 0; k < kEngineKeys; ++k) {
        key_of.push_back(k);
        due_offset.push_back(0);
      }
    }
    fill.end = key_of.size();
    phases.push_back(fill);
    const auto add_open = [&](const std::string& name, double rate,
                              double seconds) {
      Phase p;
      p.name = name;
      p.rate = rate;
      p.begin = key_of.size();
      const std::size_t count = std::max<std::size_t>(
          kMinTailSamples, static_cast<std::size_t>(rate * seconds));
      for (const Arrival& a : PoissonSchedule(rate, count, kEngineKeys,
                                              uniform)) {
        key_of.push_back(a.key);
        due_offset.push_back(a.due_offset_ns);
      }
      p.end = key_of.size();
      phases.push_back(p);
    };
    add_open("nominal", kNominalRate, nominal_s);
    for (double rate : ladder) {
      add_open("rung-" + std::to_string(static_cast<int>(rate)), rate,
               rung_s);
    }
    for (int b = 0; b < kEngineBursts; ++b) {
      Phase burst;
      burst.name = "burst-" + std::to_string(b);
      burst.begin = key_of.size();
      for (std::size_t i = 0; i < kEngineBurstBags; ++i) {
        key_of.push_back(static_cast<std::uint32_t>(uniform() * kEngineKeys) %
                         kEngineKeys);
        due_offset.push_back(0);
      }
      burst.end = key_of.size();
      phases.push_back(burst);
    }
  }
  const std::size_t total = key_of.size();
  std::vector<double> values(total * kEngineBagDoubles);
  {
    std::vector<std::uint32_t> per_key(kEngineKeys, 0);
    for (std::size_t i = 0; i < total; ++i) {
      const std::uint32_t k = key_of[i];
      const double mean = 0.25 * (k % 8) + ((per_key[k]++ / 25) % 2) * 1.5;
      for (std::size_t j = 0; j < kEngineBagDoubles; ++j) {
        values[i * kEngineBagDoubles + j] = rng.Gaussian(mean, 1.0);
      }
    }
  }
  std::vector<std::string> names(kEngineKeys);
  std::vector<int> sample_slot(kEngineKeys, -1);
  std::vector<std::uint32_t> sample_keys;
  for (std::uint32_t k = 0; k < kEngineKeys; ++k) {
    names[k] = KeyName(k);
    if (k % kEngineSampleEvery == 0) {
      sample_slot[k] = static_cast<int>(sample_keys.size());
      sample_keys.push_back(k);
    }
  }

  bagcpd::StreamEngineOptions eo;
  eo.num_shards = kEngineShards;
  eo.detector = profile;
  eo.seed = args.seed;

  // Per-sequence records (sequence s is submission index s - 1: one
  // producer, and Submit numbers accepted bags in order).
  std::vector<std::int64_t> due(total + 1, 0), sent(total + 1, 0),
      sent_end(total + 1, 0), receipt(total + 1, 0), queue_ns(total + 1, 0);
  std::vector<std::uint8_t> step_events(total + 1, 0);
  std::vector<std::vector<StepResult>> sample_results(sample_keys.size());
  for (auto& v : sample_results) v.reserve(total / kEngineKeys * 4 + 64);
  std::atomic<std::uint64_t> error_events{0};

  const bagcpd::StreamEngine::EventSink sink =
      [&](const bagcpd::EngineEvent& e) {
        const std::int64_t now = NowNs();
        if (e.kind == bagcpd::EngineEvent::Kind::kStep) {
          if (e.sequence == 0 || e.sequence > total) return;
          receipt[e.sequence] = now;
          queue_ns[e.sequence] = static_cast<std::int64_t>(
              e.enqueue_to_process_ns);
          ++step_events[e.sequence];
          const int slot = sample_slot[key_of[e.sequence - 1]];
          if (slot >= 0) sample_results[slot].push_back(e.step);
        } else if (e.kind == bagcpd::EngineEvent::Kind::kError ||
                   e.kind == bagcpd::EngineEvent::Kind::kStreamFault) {
          error_events.fetch_add(1);
        }
      };

  std::unique_ptr<bagcpd::StreamEngine> engine;
  std::uint64_t submit_failures = 0;
  const auto submit = [&](std::size_t i) {
    FlatBag bag = MakeFlat(&values[i * kEngineBagDoubles], kEngineBagDoubles);
    sent[i + 1] = NowNs();
    const bagcpd::Status s = engine->Submit(names[key_of[i]], std::move(bag));
    sent_end[i + 1] = NowNs();
    if (!s.ok()) ++submit_failures;
  };

  // --- Set-up: Create, set the sink, then the first bag of every key (each
  // creates its stream's detector), drained. The first set-up builds the
  // measured engine; throwaway engines, whose sink ignores events, repeat
  // it right after and between the phases below, so the median pools the
  // whole run's conditions.
  std::vector<double> setup_s;
  const auto set_up = [&](bool measured) {
    const std::int64_t t0 = NowNs();
    auto created = bagcpd::StreamEngine::Create(eo);
    if (!created.ok()) {
      report->Fail("engine Create: " + created.status().ToString());
      return;
    }
    std::unique_ptr<bagcpd::StreamEngine> e = created.MoveValueUnsafe();
    const bagcpd::Status sink_status = e->set_event_sink(
        measured ? sink : [](const bagcpd::EngineEvent&) {});
    if (!sink_status.ok()) {
      report->Fail("set_event_sink: " + sink_status.ToString());
      return;
    }
    if (measured) {
      engine = std::move(e);
      for (std::size_t i = 0; i < kEngineKeys; ++i) submit(i);
      engine->Flush();
    } else {
      for (std::size_t i = 0; i < kEngineKeys; ++i) {
        FlatBag bag =
            MakeFlat(&values[i * kEngineBagDoubles], kEngineBagDoubles);
        if (!e->Submit(names[key_of[i]], std::move(bag)).ok()) {
          report->Fail("Submit failed during set-up");
        }
      }
      e->Flush();
    }
    setup_s.push_back(Seconds(NowNs() - t0));
  };
  set_up(true);
  for (int rep = 1; rep < kEngineSetupReps; ++rep) set_up(false);
  if (!report->failures.empty() || submit_failures > 0) {
    report->Fail("engine set-up failed");
    return;
  }

  // Fill the rest of every key's window (closed loop, as fast as Submit
  // accepts); the open loop is timed only after it.
  for (std::size_t i = kEngineKeys; i < phases[0].end; ++i) submit(i);
  engine->Flush();

  // The open-loop phases, then the closed-loop bursts; each is drained
  // before the next starts.
  const std::int64_t run_start = NowNs();
  std::vector<double> burst_s;
  for (std::size_t p = 1; p < phases.size(); ++p) {
    set_up(false);
    Phase& phase = phases[p];
    if (phase.rate == 0.0) {
      const std::int64_t t0 = NowNs();
      for (std::size_t i = phase.begin; i < phase.end; ++i) {
        due[i + 1] = NowNs();  // Closed loop: a bag is due when issued.
        submit(i);
      }
      engine->Flush();
      burst_s.push_back(Seconds(NowNs() - t0));
      continue;
    }
    const std::int64_t phase_start = NowNs() + 2000000;
    for (std::size_t i = phase.begin; i < phase.end; ++i) {
      due[i + 1] = phase_start + due_offset[i];
      WaitUntil(due[i + 1]);
      submit(i);
      if ((i - phase.begin) % 64 == 0) {
        phase.backlog.push_back(
            {Seconds(NowNs() - phase_start),
             static_cast<double>(engine->submitted_count() -
                                 engine->processed_count())});
      }
    }
    engine->Flush();
  }
  const double open_loop_s = Seconds(NowNs() - run_start);
  report->Note("open_loop_s", open_loop_s);
  report->e2e.push_back({"setup_s", Median(setup_s), "s"});
  report->Note("setups", static_cast<double>(setup_s.size()));

  // --- Correctness (untimed). --------------------------------------------
  report->attempted = total;
  report->failed = submit_failures + error_events.load() +
                   engine->dropped_count();
  if (submit_failures > 0) report->Fail("Submit failed");
  if (engine->submitted_count() != total ||
      engine->processed_count() != total) {
    report->Fail("submitted/processed counts differ from the schedule");
  }
  for (std::size_t s = 1; s <= total; ++s) {
    const std::uint8_t want = s <= phases[0].end ? 0 : 1;
    if (step_events[s] != want) {
      report->Fail("sequence " + std::to_string(s) + " yielded " +
                   std::to_string(step_events[s]) + " kStep events");
      break;
    }
  }
  ProbeTotals totals;
  for (std::size_t slot = 0; slot < sample_keys.size(); ++slot) {
    const std::uint32_t k = sample_keys[slot];
    DetectorOptions o = profile;
    o.seed = bagcpd::DerivePerStreamSeed(args.seed, names[k], "default");
    ChainProbe probe(o);
    std::size_t next = 0;
    std::string error;
    for (std::size_t i = 0; i < total && report->failures.empty(); ++i) {
      if (key_of[i] != k) continue;
      const FlatBag bag =
          MakeFlat(&values[i * kEngineBagDoubles], kEngineBagDoubles);
      std::optional<StepResult> r;
      if (!probe.Step(bag.view(), args.trace ? &report->spans : nullptr, i + 1,
                      &r, &error)) {
        report->Fail("key " + names[k] + ": " + error);
      } else if (r.has_value() &&
                 (next >= sample_results[slot].size() ||
                  !SameStep(*r, sample_results[slot][next++]))) {
        report->Fail("key " + names[k] +
                     " differs from its standalone detector");
      }
    }
    if (next != sample_results[slot].size()) {
      report->Fail("key " + names[k] + " emitted extra kStep events");
    }
    totals.Add(probe);
  }

  // --- Metrics. ----------------------------------------------------------
  const auto slice = [](const std::vector<std::int64_t>& v, const Phase& p) {
    return std::vector<std::int64_t>(v.begin() + p.begin + 1,
                                     v.begin() + p.end + 1);
  };
  const Phase& nominal = phases[1];
  const OpenLoopAccount nom = AccountOpenLoop(
      slice(due, nominal), slice(sent, nominal), slice(receipt, nominal));
  std::vector<double> nominal_us;
  for (double ms : nom.latency_ms) nominal_us.push_back(ms * 1e3);
  // Open-loop latency here is dominated by scheduling stalls, so the p99 too
  // is taken per window and aggregated by LowDecile.
  const TailSummary nominal_tail =
      WindowedSummary(nominal_us, kNominalWindow, [](std::vector<double> v) {
        return LowDecile(std::move(v));
      });
  report->Note("nominal_p50_ms", nominal_tail.p50 * 1e-3);
  report->Note("nominal_p99_ms", nominal_tail.p99 * 1e-3);

  // Bursts: Submit-call-to-kStep latency per burst (p50, p99), and the
  // in-shard step time of every burst bag (dequeue to kStep receipt: the
  // detector step plus event emission, without queueing or wake-up).
  // Multi-threaded throughput on a shared host has fast stretches as well
  // as slow ones, so each burst gives its own p50 and p99, and the run
  // reports their medians across bursts.
  struct PerBurst {
    TailSummary tail{true, 0, kEngineBurstBags};
    std::vector<double> p50, p99;
    void Add(const std::vector<double>& samples) {
      const TailSummary t = Summarize(samples);
      tail.ok = tail.ok && t.ok;
      tail.n += t.n;
      tail.beyond_p99 = std::min(tail.beyond_p99, t.beyond_p99);
      p50.push_back(t.p50);
      p99.push_back(t.p99);
    }
    TailSummary Summary() const {
      TailSummary s = tail;
      s.p50 = Median(p50);
      s.p99 = Median(p99);
      return s;
    }
  };
  PerBurst step, e2e;
  for (const Phase& phase : phases) {
    if (phase.rate != 0.0 || phase.name == "fill") continue;
    std::vector<double> step_us, e2e_us;
    for (std::size_t s = phase.begin + 1; s <= phase.end; ++s) {
      step_us.push_back(Us(receipt[s] - sent_end[s] - queue_ns[s]));
      e2e_us.push_back(Us(receipt[s] - sent[s]));
    }
    step.Add(step_us);
    e2e.Add(e2e_us);
  }
  AddLatencyMetrics(step.Summary(), e2e.Summary(), report);

  const bool generator_ok =
      nom.late_count * 100 <= nominal.end - nominal.begin;
  report->Note("gen_late_ms_max", nom.late_ms_max);
  report->Note("gen_late_count", static_cast<double>(nom.late_count));
  report->Note("valid", generator_ok ? "true" : "false");
  if (!generator_ok) {
    std::fprintf(stderr,
                 "WARNING: generator fell behind at the nominal rate "
                 "(%zu bags more than 1 ms late); run flagged invalid\n",
                 nom.late_count);
  }

  // Sustained rate: climb the ladder from the nominal rate while each rung
  // keeps its (windowed) p99 within the limit without a growing backlog.
  // The last passing rung's achieved rate (bags over first due to last
  // receipt) is refined toward the first failing rung by interpolating
  // log(p99) to the limit; a failure by backlog growth stops at the pass.
  const auto achieved = [&](const Phase& p) {
    std::int64_t last = 0;
    for (std::size_t s = p.begin + 1; s <= p.end; ++s) {
      last = std::max(last, receipt[s]);
    }
    return static_cast<double>(p.end - p.begin) /
           Seconds(last - due[p.begin + 1]);
  };
  double pass_rate = achieved(nominal);
  double pass_p99 = nominal_tail.p99 * 1e-3;
  double sustained = pass_rate;
  std::string rung_report;
  bool climbing = true;
  double backlog_max = 0.0;
  for (std::size_t p = 1; p < phases.size(); ++p) {
    for (const BacklogSample& b : phases[p].backlog) {
      backlog_max = std::max(backlog_max, b.backlog);
    }
    if (p == 1 || phases[p].rate == 0.0) continue;
    const Phase& rung = phases[p];
    const OpenLoopAccount acc = AccountOpenLoop(
        slice(due, rung), slice(sent, rung), slice(receipt, rung));
    const TailSummary s = WindowedSummary(
        acc.latency_ms, kRungWindow,
        [](std::vector<double> v) { return Median(std::move(v)); });
    const double half_s = 0.5 * rung_s;
    const bool grows = BacklogGrows(
        rung.backlog, std::max(64.0, 0.02 * rung.rate * half_s));
    const bool pass = s.p99 <= kLatencyLimitMs && !grows;
    const double rate = achieved(rung);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s%s:p99=%.3fms,grows=%d,achieved=%.0f",
                  rung_report.empty() ? "" : " ", rung.name.c_str(), s.p99,
                  grows ? 1 : 0, rate);
    rung_report += buf;
    if (!climbing) continue;
    if (pass) {
      pass_rate = rate;
      pass_p99 = s.p99;
      sustained = rate;
    } else {
      sustained = InterpolateCrossing(pass_rate, pass_p99, rung.rate,
                                      grows ? 1e9 : s.p99, kLatencyLimitMs);
      climbing = false;
    }
  }
  report->Note("ladder", rung_report);
  report->e2e.push_back({"sustained_bags_per_s", sustained, "bags/s"});
  report->e2e.push_back({"batch_wall_s", Median(burst_s), "s"});
  {
    std::string list;
    for (double b : burst_s) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.4f", list.empty() ? "" : ",", b);
      list += buf;
    }
    report->Note("burst_s", list);
  }

  if (args.trace) {
    AddDetectorLayerMetrics(report->spans, totals, profile.bootstrap.replicates,
                            report);
    std::vector<double> submit_us, queue_us, emit_us;
    for (std::size_t s = nominal.begin + 1; s <= nominal.end; ++s) {
      submit_us.push_back(Us(sent_end[s] - sent[s]));
      queue_us.push_back(Us(queue_ns[s]));
      emit_us.push_back(Us(receipt[s] - sent_end[s] - queue_ns[s]));
    }
    const TailSummary sub = Summarize(submit_us);
    const TailSummary queue = Summarize(queue_us);
    RuntimeLayer r;
    r.submit_us_p50 = sub.p50;
    r.submit_us_p99 = sub.p99;
    r.queue_wait_us_p50 = queue.p50;
    r.queue_wait_us_p99 = queue.p99;
    r.process_emit_us_p50 = Median(emit_us);
    r.backlog_max = backlog_max;
    r.gen_late_ms_max = nom.late_ms_max;
    r.dropped = static_cast<double>(engine->dropped_count());
    const bagcpd::BufferArenaStats arena = engine->arena_stats();
    r.arena_hit_rate = arena.acquires > 0
                           ? static_cast<double>(arena.pool_hits) /
                                 static_cast<double>(arena.acquires)
                           : 0.0;
    r.arena_dropped_releases = static_cast<double>(arena.dropped_releases);
    AddRuntimeLayerMetrics(r, report);
    AddBatchLayerMetrics(BatchLayer{}, report);
  }
  engine.reset();
}

// ---------------------------------------------------------------------------
// batch_sweep: RunBatchColumnar over a synthetic grouped corpus
// ---------------------------------------------------------------------------

// The run is serial (no pool): on a shared host, co-tenant load slows a
// multi-threaded RunBatchColumnar by up to 40% for minutes at a time (its
// ParallelFor chunks statically, so one descheduled thread holds up the
// whole run), a single thread by about 10%.
//
// The corpus is cut into kBatchSlices slices of kSliceGroups groups, each
// its own table and RunBatchColumnar call of about half a second. A round
// builds and runs every slice and replays the slice's groups through
// standalone detectors; a run makes as many rounds as fit its time, at least
// kMinRounds. Each slice's times are their lower decile over the rounds,
// and each step's Push latency its minimum, which drops what a loaded
// stretch of the host slowed; the corpus figures sum the slices, so the
// seed-dependent cost of single groups averages out over all of them.
constexpr std::size_t kBatchSlices = 6;
constexpr std::size_t kSliceGroups = 50;
constexpr std::size_t kBatchSteps = 40;
constexpr std::size_t kMinRounds = 4;

DetectorOptions BatchDetector() {
  DetectorOptions o;
  o.tau = 4;
  o.tau_prime = 4;
  o.signature.k = 8;
  o.emd.kind = bagcpd::EmdSolverKind::kSinkhorn;
  o.emd.sinkhorn_eps = 0.1;
  o.bootstrap.replicates = 50;
  return o;
}

struct BatchSlice {
  bagcpd::BatchSeriesRows rows;
  bagcpd::BatchTable table;
  std::uint64_t checksum = 0;  // Of the first round's result rows.
  // Per round: the timed table build and RunBatchColumnar call.
  std::vector<double> build_s, run_s, wall_s;
  // Every table build: the round's own plus one extra per round.
  std::vector<double> setup_s;
  // Per reference step, its minimum Push latency over the rounds.
  std::vector<double> best_us;
};

StepResult BatchRow(const bagcpd::BatchResultTable& result, std::size_t row) {
  StepResult s;
  s.time = result.step[row];
  s.score = result.score[row];
  s.ci_lo = result.ci_lo[row];
  s.ci_up = result.ci_up[row];
  s.xi = result.xi[row];
  s.alarm = result.is_change[row] != 0;
  return s;
}

void RunBatch(const Args& args, Report* report) {
  std::vector<BatchSlice> slices(kBatchSlices);
  for (std::size_t i = 0; i < kBatchSlices; ++i) {
    bagcpd::BatchSeriesSpec spec;
    spec.num_groups = kSliceGroups;
    spec.steps_per_group = kBatchSteps;
    spec.points_per_step = 32;
    spec.dim = 2;
    spec.seed = bagcpd::DerivePerStreamSeed(
        args.seed, "slice-" + std::to_string(i), "default");
    slices[i].rows = bagcpd::GenerateBatchSeriesRows(spec).MoveValueUnsafe();
  }
  report->Note("corpus", "slices=6 groups=50 steps=40 points=32 dim=2");
  report->Note("detector", "tau=4 tau'=4 k=8 emd=sinkhorn:0.1 T=50");
  report->Note("threads", "1");

  bagcpd::BatchRunnerOptions options;
  options.detector = BatchDetector();
  options.seed = args.seed;

  std::uint64_t batch_sum = 0, reference_sum = 0;
  ProbeTotals totals;
  // Replays every group of `slice` through a standalone detector, compares
  // its steps with the batch rows and keeps each step's fastest Push. Traced
  // runs replay the layer calls in the first round only.
  const auto replay = [&](BatchSlice& slice,
                          const bagcpd::BatchResultTable& result,
                          bool first_round) {
    const bagcpd::BatchTable& table = slice.table;
    const bool traced = args.trace != 0 && first_round;
    std::size_t cursor = 0;
    for (std::size_t g = 0; g < table.group_count(); ++g) {
      DetectorOptions o = options.detector;
      o.seed = bagcpd::DerivePerStreamSeed(args.seed, table.group_key(g),
                                           "default");
      ChainProbe probe(o, traced);
      std::string error;
      for (std::size_t s = 0; s < kBatchSteps; ++s) {
        std::optional<StepResult> r;
        if (!probe.Step(table.step_bag(g, s), traced ? &report->spans : nullptr,
                        g * kBatchSteps + s, &r, &error)) {
          report->Fail("group " + table.group_key(g) + ": " + error);
          return;
        }
        if (!r.has_value()) continue;
        const std::size_t row =
            g * kBatchSteps + static_cast<std::size_t>(r->time);
        if (!result.has_score[row]) report->Fail("scored step has no score");
        batch_sum = FoldStep(batch_sum, BatchRow(result, row));
        reference_sum = FoldStep(reference_sum, *r);
      }
      for (std::int64_t ns : probe.push_ns()) {
        if (first_round) {
          slice.best_us.push_back(Us(ns));
        } else if (cursor < slice.best_us.size()) {
          slice.best_us[cursor] = std::min(slice.best_us[cursor], Us(ns));
        }
        ++cursor;
      }
      if (first_round) totals.Add(probe);
    }
    if (cursor != slice.best_us.size()) {
      report->Fail("reference rounds timed different step counts");
    }
  };

  // Whole rounds only: a round starts while it is expected to end within
  // the budget, or while fewer than kMinRounds have run.
  const std::int64_t budget_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  const std::int64_t start = NowNs();
  std::size_t rounds = 0;
  for (;;) {
    const std::int64_t elapsed = NowNs() - start;
    if (rounds >= kMinRounds &&
        elapsed + elapsed / static_cast<std::int64_t>(rounds) > budget_ns) {
      break;
    }
    for (BatchSlice& slice : slices) {
      const std::int64_t t0 = NowNs();
      slice.table = bagcpd::BuildBatchTable(slice.rows);
      const std::int64_t t1 = NowNs();
      auto ran = bagcpd::RunBatchColumnar(slice.table, options);
      const std::int64_t t2 = NowNs();
      if (!ran.ok()) {
        report->Fail("RunBatchColumnar: " + ran.status().ToString());
        return;
      }
      const bagcpd::BatchResultTable result = ran.MoveValueUnsafe();
      slice.build_s.push_back(Seconds(t1 - t0));
      slice.run_s.push_back(Seconds(t2 - t1));
      slice.wall_s.push_back(Seconds(t2 - t0));
      slice.setup_s.push_back(Seconds(t1 - t0));

      // --- Correctness (untimed). ----------------------------------------
      report->attempted += slice.table.step_count();
      std::size_t lost = 0;
      for (const auto& q : result.quarantined) lost += q.steps;
      report->failed += lost + result.skipped.size();
      if (result.row_count() != slice.table.step_count()) {
        report->Fail("output rows != input steps");
      }
      if (!result.quarantined.empty()) report->Fail("groups quarantined");
      if (!result.skipped.empty()) report->Fail("steps skipped");
      if (!report->failures.empty()) return;
      std::uint64_t h = 0;
      for (std::size_t r = 0; r < result.row_count(); ++r) {
        h = FoldStep(h, BatchRow(result, r));
      }
      if (rounds == 0) {
        slice.checksum = h;
      } else if (h != slice.checksum) {
        report->Fail("repeated RunBatchColumnar differs");
      }
      replay(slice, result, rounds == 0);
      if (!report->failures.empty()) return;

      // Set-up: one more table build per slice and round, timed for setup_s
      // only and built, like the round's own, while the slice's table is
      // alive.
      const std::int64_t b0 = NowNs();
      const bagcpd::BatchTable extra = bagcpd::BuildBatchTable(slice.rows);
      slice.setup_s.push_back(Seconds(NowNs() - b0));
    }
    ++rounds;
  }
  if (batch_sum != reference_sum) {
    report->Fail("groups differ from the serial reference");
  }

  // Corpus figures: each slice's lower decile over the rounds (the fastest
  // round below ten; the median for set-up), summed over the slices.
  std::uint64_t checksum = 0, steps = 0;
  double setup = 0, build = 0, run = 0, wall = 0;
  std::vector<double> best_us;
  for (const BatchSlice& slice : slices) {
    checksum = checksum * 0x100000001b3ULL ^ slice.checksum;
    steps += slice.table.step_count();
    setup += Median(slice.setup_s);
    build += LowDecile(slice.build_s);
    run += LowDecile(slice.run_s);
    wall += LowDecile(slice.wall_s);
    best_us.insert(best_us.end(), slice.best_us.begin(), slice.best_us.end());
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, checksum);
  report->Note("result_checksum", buf);
  report->Note("rounds", static_cast<double>(rounds));
  {
    // RunBatchColumnar time of each round, summed over the slices.
    std::string list;
    for (std::size_t r = 0; r < rounds; ++r) {
      double sum = 0;
      for (const BatchSlice& slice : slices) sum += slice.run_s[r];
      char item[32];
      std::snprintf(item, sizeof(item), "%s%.4f", list.empty() ? "" : ",",
                    sum);
      list += item;
    }
    report->Note("round_run_s", list);
  }
  report->e2e.push_back({"setup_s", setup, "s"});
  report->Note("setups", static_cast<double>(2 * rounds * kBatchSlices));
  AddLatencyMetrics(Summarize(best_us), report);
  report->e2e.push_back(
      {"sustained_bags_per_s", static_cast<double>(steps) / run, "bags/s"});
  report->e2e.push_back({"batch_wall_s", wall, "s"});

  if (args.trace) {
    AddDetectorLayerMetrics(report->spans, totals,
                            options.detector.bootstrap.replicates, report);
    AddRuntimeLayerMetrics(RuntimeLayer{}, report);
    BatchLayer b;
    b.table_build_s = build;
    b.run_s = run;
    b.rows_per_s = static_cast<double>(steps) / run;
    AddBatchLayerMetrics(b, report);
  }
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str()) != 0 ? 1 : 0;
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && args->seconds > 0.0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bagcpd_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans PATH] [--commit ID]\n");
    return 2;
  }
  Report report;
  report.Note("workload", args.workload);
  report.Note("seed", std::to_string(args.seed));
  report.Note("seconds", args.seconds);
  report.Note("trace", std::to_string(args.trace));
  report.Note("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report.Note("compiler", __VERSION__);
  report.Note("flags", E2E_CXX_FLAGS);
  report.Note("build_type", E2E_BUILD_TYPE);
  report.Note("commit", args.commit);

  const CpuTicks ticks0 = ReadCpuTicks();
  if (args.workload == "paper_step") {
    RunSerial(args, SerialShape{8, 50, 2, 80, 100}, &report);
  } else if (args.workload == "wide_k") {
    RunSerial(args, SerialShape{32, 400, 8, 40, 25}, &report);
  } else if (args.workload == "engine_open") {
    RunEngine(args, &report);
  } else if (args.workload == "batch_sweep") {
    RunBatch(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  report.e2e.push_back({"peak_rss_mb", PeakRssMb(), "MiB"});
  const CpuTicks ticks1 = ReadCpuTicks();
  if (ticks1.total > ticks0.total) {
    report.Note("host_steal_pct", 100.0 * (ticks1.steal - ticks0.steal) /
                                      (ticks1.total - ticks0.total));
  }

  // Every failed operation fails the run, whatever the workload.
  if (report.failed > 0) {
    report.Fail(std::to_string(report.failed) + " of " +
                std::to_string(report.attempted) + " operations failed");
  }
  if (!args.spans_path.empty() && !report.spans.spans().empty() &&
      !report.spans.WriteTsv(args.spans_path)) {
    report.Fail("cannot write spans to " + args.spans_path);
  }
  // A failed check prints no timings: only the failures, on stderr.
  if (!report.failures.empty()) {
    for (const std::string& f : report.failures) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
    }
    return 1;
  }

  std::string fp;
  for (const auto& [key, value] : report.fingerprint) {
    fp += (fp.empty() ? "" : ", ") + ("\"" + key + "\": \"" +
                                      JsonEscape(value) + "\"");
  }
  std::printf("FINGERPRINT {%s}\n", fp.c_str());
  for (const Metric& m : report.e2e) {
    std::printf("%-24s %16.6f %s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                args.trace ? "  (traced)" : "");
  }
  for (const Metric& m : report.layer) {
    std::printf("%-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (args.trace) {
    // The traced run's own end-to-end figures, for the tracing-overhead
    // comparison against an untraced run (run.py --aa N --with-trace).
    std::string line;
    for (const Metric& m : report.e2e) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g",
                    line.empty() ? "" : ", ", m.name.c_str(), m.value);
      line += buf;
    }
    std::printf("E2E_UNDER_TRACE {%s}\n", line.c_str());
  }
  PrintResult(true, report.attempted, report.failed,
              args.trace ? report.layer : report.e2e);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
