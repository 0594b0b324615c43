// Three-way differential suite: the library scores a recorded keyed bag
// corpus in three ways, and all three must agree bit for bit on every scored
// step of every key:
//   1. StreamEngine: Submit round-robin, Flush, DrainEvents, at 1, 2 and 4
//      shards;
//   2. RunBatchColumnar over a BatchTable, at every (shards, pool size) pair
//      in {1, 2, 4} x {1, 2, 4};
//   3. one standalone BagStreamDetector per key, serial or on a pool of 2 or
//      4 threads, with no buffer arena.
// Every EMD solver meets every signature method. Two keys route to an extra
// profile with its own window, so per-key routing is pinned too. The
// standalone reference seeds each detector from the documented formula
// (engine seed, key hash and, off the default profile, the profile hash),
// not from the library's own derivation, so a seed that drops the profile
// or picks up the shard index shows up as a difference.
//
// Results never depend on a buffer arena, so the arena the columnar runner
// attaches is checked on its own: a hook in this test binary counts heap
// allocations, and each extra step of a columnar run must cost no more than
// it costs a detector that recycles through an arena. The same hook bounds
// the steady-state allocations per push of a pooled standalone detector.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bagcpd/batch/batch_runner.h"
#include "bagcpd/batch/batch_table.h"
#include "bagcpd/common/rng.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/core/profiles.h"
#include "bagcpd/data/gmm.h"
#include "bagcpd/emd/approx/options.h"
#include "bagcpd/runtime/stream_engine.h"
#include "bagcpd/runtime/thread_pool.h"
#include "bagcpd/signature/builder.h"
#include "testing/engine_sweep.h"

namespace {

// Heap allocations made through operator new by any thread of this binary.
std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

// Out of line, so the compiler does not pair an inlined free() with an
// operator new call site and warn about a mismatch that is not one.
__attribute__((noinline)) void CountedFree(void* p) { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace bagcpd {
namespace {

using Series = std::map<std::string, std::vector<StepResult>>;

constexpr std::uint64_t kSeed = 2016;
constexpr char kAltProfile[] = "alt";
constexpr std::size_t kKeys = 6;
constexpr std::size_t kSteps = 10;

// The documented per-key seed, written out independently of the library.
std::uint64_t ReferenceSeed(const std::string& key,
                            const std::string& profile) {
  std::uint64_t base = kSeed ^ Rng::StableHash64(key);
  if (profile != kDefaultProfileName) {
    base ^= Rng::MixSeed64(Rng::StableHash64(profile));
  }
  return Rng::MixSeed64(base);
}

std::string KeyName(std::size_t k) { return "key-" + std::to_string(k); }

// Keys 1 and 4 run under the extra profile.
std::map<std::string, std::string> Routes() {
  return {{KeyName(1), kAltProfile}, {KeyName(4), kAltProfile}};
}

std::string ProfileOf(const std::string& key) {
  const std::map<std::string, std::string> routes = Routes();
  auto it = routes.find(key);
  return it == routes.end() ? std::string(kDefaultProfileName) : it->second;
}

// `keys` groups of `steps` 2-d bags of 12 points; even keys jump in mean at
// step 5. A longer corpus extends a shorter one: same keys, same first bags.
BatchTable Corpus(std::size_t keys, std::size_t steps) {
  const GaussianMixture before = GaussianMixture::Isotropic({0.0, 0.0}, 1.0);
  const GaussianMixture after = GaussianMixture::Isotropic({3.0, 3.0}, 1.0);
  BatchTableBuilder builder;
  for (std::size_t k = 0; k < keys; ++k) {
    Rng rng(100 + k);
    for (std::size_t t = 0; t < steps; ++t) {
      const GaussianMixture& mix =
          (k % 2 == 0 && t >= 5) ? after : before;
      for (const Point& x : mix.SampleBag(12, &rng)) {
        EXPECT_TRUE(
            builder.AddRow(KeyName(k), static_cast<std::int64_t>(t), x).ok());
      }
    }
  }
  return builder.Build();
}

// The table's bags as the engine and the standalone detectors take them:
// in the table's row order, which the quantizers' results depend on.
std::map<std::string, BagSequence> Sequences(const BatchTable& table) {
  std::map<std::string, BagSequence> streams;
  for (std::size_t g = 0; g < table.group_count(); ++g) {
    BagSequence& bags = streams[table.group_key(g)];
    for (std::size_t s = 0; s < table.group_step_count(g); ++s) {
      bags.push_back(table.step_bag(g, s).ToBag());
    }
  }
  return streams;
}

DetectorOptions DefaultDetector(EmdSolverKind solver, SignatureMethod method) {
  DetectorOptions options;
  options.tau = 4;
  options.tau_prime = 4;
  options.bootstrap.replicates = 8;
  options.signature.method = method;
  options.signature.k = 3;
  options.signature.bin_width = 1.5;
  options.emd.kind = solver;
  return options;
}

DetectorOptions AltDetector(EmdSolverKind solver, SignatureMethod method) {
  DetectorOptions options = DefaultDetector(solver, method);
  options.tau = 3;
  options.tau_prime = 3;
  return options;
}

// One detector per key, on a pool of `pool_size` threads (0: serial) and
// recycling through `arena` when one is given.
Series RunStandalone(const std::map<std::string, BagSequence>& streams,
                     EmdSolverKind solver, SignatureMethod method,
                     std::size_t pool_size, BufferArena* arena = nullptr) {
  std::unique_ptr<ThreadPool> pool;
  if (pool_size > 0) pool = std::make_unique<ThreadPool>(pool_size);
  Series out;
  for (const auto& [key, bags] : streams) {
    const std::string profile = ProfileOf(key);
    DetectorOptions options = profile == kDefaultProfileName
                                  ? DefaultDetector(solver, method)
                                  : AltDetector(solver, method);
    options.seed = ReferenceSeed(key, profile);
    auto detector = BagStreamDetector::Create(options).MoveValueUnsafe();
    detector->set_thread_pool(pool.get());
    detector->set_buffer_arena(arena);
    std::vector<StepResult>& series = out[key];
    for (const Bag& bag : bags) {
      Result<std::optional<StepResult>> step = detector->Push(bag);
      EXPECT_TRUE(step.ok()) << key << ": " << step.status().ToString();
      if (step.ok() && step.ValueOrDie().has_value()) {
        series.push_back(*step.ValueOrDie());
      }
    }
  }
  return out;
}

Series RunEngine(const std::map<std::string, BagSequence>& streams,
                 EmdSolverKind solver, SignatureMethod method,
                 std::size_t shards) {
  StreamEngineOptions options;
  options.num_shards = shards;
  options.detector = DefaultDetector(solver, method);
  options.seed = kSeed;
  auto engine = StreamEngine::Create(options).MoveValueUnsafe();
  EXPECT_TRUE(
      engine->RegisterProfile(kAltProfile, AltDetector(solver, method)).ok());
  Result<Series> swept = SweepEngine(*engine, streams, Routes());
  EXPECT_TRUE(swept.ok()) << swept.status().ToString();
  return swept.ok() ? swept.MoveValueUnsafe() : Series();
}

BatchRunnerOptions ColumnarOptions(EmdSolverKind solver,
                                   SignatureMethod method) {
  BatchRunnerOptions options;
  options.detector = DefaultDetector(solver, method);
  options.profiles.emplace(kAltProfile, AltDetector(solver, method));
  options.profile_by_key = Routes();
  options.seed = kSeed;
  return options;
}

// The columnar result's scored rows as per-key step series; unscored rows
// (warm-up and tail) are skipped, as the other paths emit nothing for them.
Series RunColumnar(const BatchTable& table, EmdSolverKind solver,
                   SignatureMethod method, std::size_t shards,
                   ThreadPool* pool) {
  BatchRunnerOptions options = ColumnarOptions(solver, method);
  options.num_shards = shards;
  options.pool = pool;
  Result<BatchResultTable> run = RunBatchColumnar(table, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (!run.ok()) return Series();
  const BatchResultTable& result = run.ValueOrDie();
  EXPECT_TRUE(result.quarantined.empty());
  EXPECT_TRUE(result.skipped.empty());
  EXPECT_EQ(result.row_count(), table.step_count());
  Series out;
  for (std::size_t g = 0; g < result.group_count(); ++g) {
    EXPECT_EQ(result.profiles[g], ProfileOf(result.keys[g]));
    out[result.keys[g]];
  }
  for (std::size_t r = 0; r < result.row_count(); ++r) {
    if (!result.has_score[r]) continue;
    StepResult step;
    step.time = result.step[r];
    step.score = result.score[r];
    step.ci_lo = result.ci_lo[r];
    step.ci_up = result.ci_up[r];
    step.xi = result.xi[r];
    step.alarm = result.is_change[r] != 0;
    out[result.keys[result.group[r]]].push_back(step);
  }
  return out;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameSeries(const Series& want, const Series& got,
                      const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (const auto& [key, steps] : want) {
    auto it = got.find(key);
    ASSERT_NE(it, got.end()) << what << ": no series for " << key;
    const std::vector<StepResult>& other = it->second;
    ASSERT_EQ(steps.size(), other.size()) << what << ", " << key;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const StepResult& a = steps[i];
      const StepResult& b = other[i];
      EXPECT_EQ(a.time, b.time) << what << ", " << key << " step " << i;
      EXPECT_TRUE(SameBits(a.score, b.score) && SameBits(a.ci_lo, b.ci_lo) &&
                  SameBits(a.ci_up, b.ci_up) && SameBits(a.xi, b.xi) &&
                  a.alarm == b.alarm)
          << what << ", " << key << " t=" << a.time << ": score " << a.score
          << " vs " << b.score << ", ci [" << a.ci_lo << ", " << a.ci_up
          << "] vs [" << b.ci_lo << ", " << b.ci_up << "]";
    }
  }
}

class ThreeWayDifferentialTest
    : public ::testing::TestWithParam<
          std::tuple<EmdSolverKind, SignatureMethod>> {};

TEST_P(ThreeWayDifferentialTest, AllPathsAgreeBitwise) {
  const auto [solver, method] = GetParam();
  const BatchTable table = Corpus(kKeys, kSteps);
  const std::map<std::string, BagSequence> streams = Sequences(table);

  const Series reference = RunStandalone(streams, solver, method, 0);
  ASSERT_EQ(reference.size(), kKeys);
  for (const auto& [key, steps] : reference) {
    // A window of w = tau + tau' scores kSteps - w + 1 steps.
    const std::size_t window = ProfileOf(key) == kDefaultProfileName ? 8 : 6;
    EXPECT_EQ(steps.size(), kSteps - window + 1) << key;
  }

  for (std::size_t pool_size : {2u, 4u}) {
    ExpectSameSeries(reference,
                     RunStandalone(streams, solver, method, pool_size),
                     "standalone, pool " + std::to_string(pool_size));
  }
  for (std::size_t shards : {1u, 2u, 4u}) {
    ExpectSameSeries(reference, RunEngine(streams, solver, method, shards),
                     "engine, " + std::to_string(shards) + " shards");
  }
  for (std::size_t pool_size : {1u, 2u, 4u}) {
    ThreadPool pool(pool_size);
    for (std::size_t shards : {1u, 2u, 4u}) {
      ExpectSameSeries(reference,
                       RunColumnar(table, solver, method, shards, &pool),
                       "columnar, " + std::to_string(shards) + " shards, pool " +
                           std::to_string(pool_size));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SolversAndQuantizers, ThreeWayDifferentialTest,
    ::testing::Combine(::testing::ValuesIn(AllEmdSolverKinds()),
                       ::testing::ValuesIn(AllSignatureMethods())),
    [](const ::testing::TestParamInfo<ThreeWayDifferentialTest::ParamType>&
           info) {
      return std::string(EmdSolverKindName(std::get<0>(info.param))) + "_" +
             SignatureMethodName(std::get<1>(info.param));
    });

// Heap allocations made while `run` runs.
template <typename Fn>
std::uint64_t CountAllocations(Fn&& run) {
  const std::uint64_t before = g_allocations.load();
  run();
  return g_allocations.load() - before;
}

TEST(ThreeWayDifferentialArenaTest, ColumnarStepsRecycleThroughTheArena) {
  // Every group's extra steps cost the columnar run (serial, one shard) no
  // more heap allocations than they cost detectors sharing an arena, whose
  // count also holds the growth of their result vectors. Without the arena
  // each step allocates its signature buffers too, a few per step.
  const EmdSolverKind solver = EmdSolverKind::kExact;
  const SignatureMethod method = SignatureMethod::kKMeans;
  const BatchTable short_table = Corpus(kKeys, 2 * kSteps);
  const BatchTable long_table = Corpus(kKeys, 4 * kSteps);
  const std::map<std::string, BagSequence> short_streams =
      Sequences(short_table);
  const std::map<std::string, BagSequence> long_streams =
      Sequences(long_table);

  const BatchRunnerOptions options = ColumnarOptions(solver, method);
  auto columnar = [&](const BatchTable& table) {
    return CountAllocations([&] {
      EXPECT_TRUE(RunBatchColumnar(table, options).ok());
    });
  };
  auto standalone = [&](const std::map<std::string, BagSequence>& streams) {
    BufferArena arena;
    return CountAllocations(
        [&] { RunStandalone(streams, solver, method, 0, &arena); });
  };
  const std::uint64_t columnar_extra =
      columnar(long_table) - columnar(short_table);
  const std::uint64_t arena_extra =
      standalone(long_streams) - standalone(short_streams);
  EXPECT_LE(columnar_extra, arena_extra)
      << "heap allocations for " << kKeys * 2 * kSteps << " extra steps";
}

// Heap allocations per push over `measured` pushes of one standalone
// detector that has already taken `warm_up` bags, on a pool of `pool_size`
// threads (0: serial), recycling through an arena.
double AllocationsPerPush(const BagSequence& bags, std::size_t warm_up,
                          std::size_t measured, std::size_t pool_size) {
  std::unique_ptr<ThreadPool> pool;
  if (pool_size > 0) pool = std::make_unique<ThreadPool>(pool_size);
  BufferArena arena;
  DetectorOptions options =
      DefaultDetector(EmdSolverKind::kExact, SignatureMethod::kKMeans);
  options.seed = ReferenceSeed(KeyName(0), kDefaultProfileName);
  auto detector = BagStreamDetector::Create(options).MoveValueUnsafe();
  detector->set_thread_pool(pool.get());
  detector->set_buffer_arena(&arena);
  for (std::size_t t = 0; t < warm_up; ++t) {
    EXPECT_TRUE(detector->Push(bags[t]).ok());
  }
  const std::uint64_t allocations = CountAllocations([&] {
    for (std::size_t t = warm_up; t < warm_up + measured; ++t) {
      EXPECT_TRUE(detector->Push(bags[t]).ok());
    }
  });
  return static_cast<double>(allocations) / static_cast<double>(measured);
}

TEST(ThreeWayDifferentialArenaTest, PooledDetectorStepAllocationsAreBounded) {
  // A pooled step's EMD column allocates only what the pool's dispatch
  // does (its chunk tasks and their latch), never a per-step buffer. The
  // bounds are the measured steady-state counts per push of the default
  // detector here (exact EMD, k-means k = 3, w = 8, 8 bootstrap replicates)
  // with an arena, which also hold the chunked bootstrap's allocations and
  // the k-means build's. The serial count (11) is in the failure message.
  constexpr std::size_t kWarmUp = 40;
  constexpr std::size_t kMeasured = 20;
  const BagSequence bags =
      Sequences(Corpus(1, kWarmUp + kMeasured)).at(KeyName(0));
  const double serial = AllocationsPerPush(bags, kWarmUp, kMeasured, 0);
  const std::pair<std::size_t, double> bounds[] = {{2, 27.2}, {4, 39.4}};
  for (const auto& [pool_size, bound] : bounds) {
    const double pooled =
        AllocationsPerPush(bags, kWarmUp, kMeasured, pool_size);
    EXPECT_LE(pooled, bound) << "pool " << pool_size << "; serial " << serial;
  }
}

}  // namespace
}  // namespace bagcpd
