// Detector snapshot/restore contract: a detector restored from an
// ExportState blob continues the stream bitwise-identically to the
// uninterrupted original — for every quantizer, for both approximate EMD
// solvers, and at every thread-pool size — and every malformed blob fails
// with a typed Status that leaves the target detector untouched.

#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bagcpd/api/spec.h"
#include "bagcpd/common/buffer_arena.h"
#include "bagcpd/common/rng.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/data/gmm.h"
#include "bagcpd/runtime/thread_pool.h"
#include "bagcpd/serialize/checkpoint.h"
#include "bagcpd/serialize/wire.h"

namespace bagcpd {
namespace {

DetectorOptions BaseOptions() {
  DetectorOptions options;
  options.tau = 3;
  options.tau_prime = 3;
  options.bootstrap.replicates = 40;
  options.signature.method = SignatureMethod::kKMeans;
  options.signature.k = 3;
  options.seed = 17;
  return options;
}

BagSequence JumpStream(std::size_t length, std::size_t change_at,
                       std::uint64_t seed) {
  Rng rng(seed);
  const GaussianMixture before = GaussianMixture::Isotropic({0.0, 0.0}, 0.5);
  const GaussianMixture after = GaussianMixture::Isotropic({4.0, 4.0}, 0.5);
  BagSequence bags;
  for (std::size_t t = 0; t < length; ++t) {
    const GaussianMixture& mix =
        (change_at > 0 && t >= change_at) ? after : before;
    bags.push_back(mix.SampleBag(14, &rng));
  }
  return bags;
}

void ExpectIdenticalStep(const std::optional<StepResult>& a,
                         const std::optional<StepResult>& b,
                         const std::string& what) {
  ASSERT_EQ(a.has_value(), b.has_value()) << what;
  if (!a.has_value()) return;
  EXPECT_EQ(a->time, b->time) << what;
  EXPECT_EQ(a->score, b->score) << what;
  EXPECT_TRUE((std::isnan(a->ci_lo) && std::isnan(b->ci_lo)) ||
              a->ci_lo == b->ci_lo)
      << what;
  EXPECT_TRUE((std::isnan(a->ci_up) && std::isnan(b->ci_up)) ||
              a->ci_up == b->ci_up)
      << what;
  EXPECT_TRUE((std::isnan(a->xi) && std::isnan(b->xi)) || a->xi == b->xi)
      << what;
  EXPECT_EQ(a->alarm, b->alarm) << what;
}

// The core pin: run `options` over a 16-bag stream, snapshot after
// `split` bags, restore into a fresh detector, and feed both the identical
// tail. Every step — and the final re-exported state — must match bitwise.
void RunRestorePin(const DetectorOptions& options, std::size_t split,
                   ThreadPool* pool, const std::string& what) {
  const BagSequence bags = JumpStream(16, 9, 101);

  auto original = BagStreamDetector::Create(options).MoveValueUnsafe();
  original->set_thread_pool(pool);
  for (std::size_t t = 0; t < split; ++t) {
    ASSERT_TRUE(original->Push(bags[t]).ok()) << what;
  }

  std::string blob;
  ASSERT_TRUE(original->ExportState(&blob).ok()) << what;
  EXPECT_GT(blob.size(), 16u) << what;

  auto restored = BagStreamDetector::Create(options).MoveValueUnsafe();
  restored->set_thread_pool(pool);
  const Status imported = restored->ImportState(blob);
  ASSERT_TRUE(imported.ok()) << what << ": " << imported.ToString();
  EXPECT_EQ(restored->pushed_count(), original->pushed_count()) << what;

  for (std::size_t t = split; t < bags.size(); ++t) {
    Result<std::optional<StepResult>> a = original->Push(bags[t]);
    Result<std::optional<StepResult>> b = restored->Push(bags[t]);
    ASSERT_TRUE(a.ok() && b.ok()) << what << " step " << t;
    ExpectIdenticalStep(a.ValueOrDie(), b.ValueOrDie(),
                        what + " step " + std::to_string(t));
  }

  // Stronger than score equality: the complete serialized states agree
  // byte for byte after the shared tail.
  std::string end_a, end_b;
  ASSERT_TRUE(original->ExportState(&end_a).ok()) << what;
  ASSERT_TRUE(restored->ExportState(&end_b).ok()) << what;
  EXPECT_EQ(end_a, end_b) << what;
}

TEST(DetectorStateTest, EveryQuantizerRestoresBitwise) {
  for (SignatureMethod method : AllSignatureMethods()) {
    DetectorOptions options = BaseOptions();
    options.signature.method = method;
    RunRestorePin(options, 9, nullptr,
                  std::string("quantizer=") + SignatureMethodName(method));
  }
}

TEST(DetectorStateTest, ApproxSolversRestoreBitwise) {
  for (EmdSolverKind kind : {EmdSolverKind::kSinkhorn, EmdSolverKind::kSliced}) {
    DetectorOptions options = BaseOptions();
    options.emd.kind = kind;
    RunRestorePin(options, 9, nullptr,
                  std::string("emd=") + EmdSolverKindName(kind));
  }
}

TEST(DetectorStateTest, RestoreIsPoolSizeInvariant) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    for (EmdSolverKind kind :
         {EmdSolverKind::kExact, EmdSolverKind::kSinkhorn,
          EmdSolverKind::kSliced}) {
      DetectorOptions options = BaseOptions();
      options.emd.kind = kind;
      RunRestorePin(options, 9, &pool,
                    std::string("pool=") + std::to_string(threads) +
                        " emd=" + EmdSolverKindName(kind));
    }
  }
}

TEST(DetectorStateTest, MidWarmupSnapshotRestores) {
  // Export before the window ever fills: counters and a partial ring, no
  // primed table, empty history.
  RunRestorePin(BaseOptions(), 3, nullptr, "mid-warmup");
}

TEST(DetectorStateTest, FreshDetectorSnapshotRestores) {
  RunRestorePin(BaseOptions(), 0, nullptr, "fresh");
}

TEST(DetectorStateTest, CreateFromStateRebuildsConfiguration) {
  const BagSequence bags = JumpStream(16, 9, 33);
  DetectorOptions options = BaseOptions();
  options.emd.kind = EmdSolverKind::kSinkhorn;

  auto original = BagStreamDetector::Create(options).MoveValueUnsafe();
  for (std::size_t t = 0; t < 9; ++t) {
    ASSERT_TRUE(original->Push(bags[t]).ok());
  }
  std::string blob;
  ASSERT_TRUE(original->ExportState(&blob).ok());

  Result<std::unique_ptr<BagStreamDetector>> restored =
      BagStreamDetector::CreateFromState(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto detector = restored.MoveValueUnsafe();
  EXPECT_EQ(detector->options().emd.kind, EmdSolverKind::kSinkhorn);
  EXPECT_EQ(detector->options().seed, options.seed);
  EXPECT_EQ(detector->pushed_count(), 9u);

  for (std::size_t t = 9; t < bags.size(); ++t) {
    Result<std::optional<StepResult>> a = original->Push(bags[t]);
    Result<std::optional<StepResult>> b = detector->Push(bags[t]);
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectIdenticalStep(a.ValueOrDie(), b.ValueOrDie(),
                        "CreateFromState step " + std::to_string(t));
  }
}

TEST(DetectorStateTest, RestoresAcrossTheHeapCrossover) {
  // emd-heap-at only picks the exact solver's Dijkstra strategy, so a blob
  // exported at the default crossover imports at any other and continues
  // bitwise. Bags of 24 points at k = 20 put K + L past 32, so the exporter
  // runs the heap while the importers at 0 and 80 run the dense scan.
  Rng rng(5);
  const GaussianMixture before = GaussianMixture::Isotropic({0.0, 0.0}, 0.5);
  const GaussianMixture after = GaussianMixture::Isotropic({3.0, 3.0}, 0.5);
  BagSequence bags;
  for (std::size_t t = 0; t < 14; ++t) {
    bags.push_back((t < 8 ? before : after).SampleBag(24, &rng));
  }
  DetectorOptions exported = BaseOptions();
  exported.signature.k = 20;
  exported.emd.heap_at = 32;

  auto original = BagStreamDetector::Create(exported).MoveValueUnsafe();
  for (std::size_t t = 0; t < 7; ++t) ASSERT_TRUE(original->Push(bags[t]).ok());
  std::string blob;
  ASSERT_TRUE(original->ExportState(&blob).ok());
  std::vector<std::optional<StepResult>> uninterrupted;
  for (std::size_t t = 7; t < bags.size(); ++t) {
    uninterrupted.push_back(original->Push(bags[t]).ValueOrDie());
  }

  for (std::size_t heap_at : {std::size_t{0}, std::size_t{80}}) {
    DetectorOptions options = exported;
    options.emd.heap_at = heap_at;
    auto restored = BagStreamDetector::Create(options).MoveValueUnsafe();
    const Status imported = restored->ImportState(blob);
    ASSERT_TRUE(imported.ok()) << heap_at << ": " << imported.ToString();
    for (std::size_t t = 7; t < bags.size(); ++t) {
      Result<std::optional<StepResult>> step = restored->Push(bags[t]);
      ASSERT_TRUE(step.ok());
      ExpectIdenticalStep(step.ValueOrDie(), uninterrupted[t - 7],
                          "emd-heap-at=" + std::to_string(heap_at) +
                              " step " + std::to_string(t));
    }
  }
}

TEST(DetectorStateTest, ImportRecyclesThroughArena) {
  const BagSequence bags = JumpStream(10, 0, 7);
  auto original = BagStreamDetector::Create(BaseOptions()).MoveValueUnsafe();
  for (const Bag& bag : bags) ASSERT_TRUE(original->Push(bag).ok());
  std::string blob;
  ASSERT_TRUE(original->ExportState(&blob).ok());

  BufferArena arena{BufferArenaOptions{}};
  auto restored = BagStreamDetector::Create(BaseOptions()).MoveValueUnsafe();
  restored->set_buffer_arena(&arena);
  ASSERT_TRUE(restored->ImportState(blob).ok());
  const BufferArenaStats first = arena.stats();
  EXPECT_GT(first.acquires, 0u);
  // A second import re-acquires the staging buffer from the pool.
  ASSERT_TRUE(restored->ImportState(blob).ok());
  const BufferArenaStats second = arena.stats();
  EXPECT_GT(second.pool_hits, first.pool_hits);
}

// ---- Robustness: every malformed blob is a typed error, and the target
// ---- detector keeps producing the untouched twin's results afterwards.

class DetectorStateRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bags_ = JumpStream(16, 9, 55);
    auto source = BagStreamDetector::Create(BaseOptions()).MoveValueUnsafe();
    for (std::size_t t = 0; t < 9; ++t) ASSERT_TRUE(source->Push(bags_[t]).ok());
    ASSERT_TRUE(source->ExportState(&blob_).ok());
  }

  // Feeds the remaining bags to `victim` and an untouched twin built from
  // `expected`, the options the victim was created with; a failed import
  // must not have changed the victim's configuration or what it computes.
  void ExpectUnmodified(BagStreamDetector* victim, std::size_t fed,
                        const DetectorOptions& expected = BaseOptions()) {
    EXPECT_EQ(api::DetectorSpec::FromOptions(victim->options()).ToKeyValues(),
              api::DetectorSpec::FromOptions(expected).ToKeyValues());
    auto twin = BagStreamDetector::Create(expected).MoveValueUnsafe();
    for (std::size_t t = 0; t < fed; ++t) ASSERT_TRUE(twin->Push(bags_[t]).ok());
    for (std::size_t t = fed; t < bags_.size(); ++t) {
      Result<std::optional<StepResult>> a = victim->Push(bags_[t]);
      Result<std::optional<StepResult>> b = twin->Push(bags_[t]);
      ASSERT_TRUE(a.ok() && b.ok());
      ExpectIdenticalStep(a.ValueOrDie(), b.ValueOrDie(),
                          "post-failure step " + std::to_string(t));
    }
  }

  BagSequence bags_;
  std::string blob_;
};

TEST_F(DetectorStateRobustnessTest, TruncatedBlobIsIoError) {
  auto victim = BagStreamDetector::Create(BaseOptions()).MoveValueUnsafe();
  for (std::size_t t = 0; t < 5; ++t) ASSERT_TRUE(victim->Push(bags_[t]).ok());
  for (std::size_t len : {std::size_t{0}, std::size_t{7}, std::size_t{40},
                          blob_.size() - 1}) {
    const Status status =
        victim->ImportState(std::string_view(blob_).substr(0, len));
    EXPECT_EQ(status.code(), StatusCode::kIoError)
        << "prefix " << len << ": " << status.ToString();
  }
  ExpectUnmodified(victim.get(), 5);
}

TEST_F(DetectorStateRobustnessTest, FlippedByteIsChecksumError) {
  auto victim = BagStreamDetector::Create(BaseOptions()).MoveValueUnsafe();
  std::string corrupt = blob_;
  corrupt[corrupt.size() / 2] ^= 0x20;
  const Status status = victim->ImportState(corrupt);
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  ExpectUnmodified(victim.get(), 0);
}

TEST_F(DetectorStateRobustnessTest, UnknownVersionIsNotImplemented) {
  auto victim = BagStreamDetector::Create(BaseOptions()).MoveValueUnsafe();
  std::string future = blob_;
  future[8] = 42;  // Version u32 sits right after the 8-byte magic.
  const Status status = victim->ImportState(future);
  EXPECT_EQ(status.code(), StatusCode::kNotImplemented) << status.ToString();
}

TEST_F(DetectorStateRobustnessTest, SpecMismatchIsInvalid) {
  DetectorOptions other = BaseOptions();
  other.tau_prime = 4;  // Same blob, differently-configured target.
  auto victim = BagStreamDetector::Create(other).MoveValueUnsafe();
  const Status status = victim->ImportState(blob_);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  // The message names both specs so the mismatch is actionable.
  EXPECT_NE(status.ToString().find("tau_prime"), std::string::npos);
}

// The blob with its embedded options spec replaced (a CRC-valid blob whose
// spec no detector of this build exported).
std::string WithSpec(std::string_view blob, const std::string& spec) {
  serialize::WireReader reader =
      serialize::OpenBlob(blob, serialize::BlobKind::kDetector)
          .MoveValueUnsafe();
  std::string out;
  serialize::WireWriter writer(&out);
  writer.BeginBlob(serialize::BlobKind::kDetector);
  while (!reader.AtEnd()) {
    std::uint32_t tag = 0;
    std::string_view payload;
    EXPECT_TRUE(reader.NextSection(&tag, &payload).ok());
    writer.BeginSection(tag);
    if (tag == serialize::kSecSpec) {
      writer.PutString(spec);
    } else {
      writer.PutBytes(payload.data(), payload.size());
    }
    writer.EndSection();
  }
  writer.EndBlob();
  return out;
}

TEST_F(DetectorStateRobustnessTest, EveryResultKeyGatesTheImport) {
  // One value per key that differs from BaseOptions() and still builds. A
  // key added to the table without an entry here fails the test, so every
  // key is covered.
  const std::map<std::string, std::string> changed = {
      {"quantizer", "kmedoids"}, {"k", "4"},
      {"bin_width", "0.5"},      {"histogram_origin", "0.25"},
      {"normalize", "true"},     {"tau", "4"},
      {"tau_prime", "4"},        {"score", "lr"},
      {"weights", "discounted"}, {"ground", "manhattan"},
      {"bootstrap", "standard"}, {"replicates", "41"},
      {"alpha", "0.1"},          {"distance_floor", "1e-9"},
      {"emd", "sliced:8"},       {"emd-heap-at", "80"},
      {"emd-fallback", "exact"}, {"seed", "18"}};
  const std::string base =
      api::DetectorSpec::FromOptions(BaseOptions()).ToKeyValues();
  for (const api::SpecKey& key : api::DetectorSpec::Keys()) {
    const auto it = changed.find(key.name);
    if (it == changed.end()) {
      ADD_FAILURE() << "no changed value for key '" << key.name << "'";
      continue;
    }
    const std::string text = base + "," + key.name + "=" + it->second;
    Result<DetectorOptions> options =
        api::DetectorSpec::FromKeyValues(text).ValueOrDie().Build();
    ASSERT_TRUE(options.ok()) << text << ": " << options.status().ToString();
    auto victim = BagStreamDetector::Create(*options).MoveValueUnsafe();
    for (std::size_t t = 0; t < 2; ++t) {
      ASSERT_TRUE(victim->Push(bags_[t]).ok());
    }
    const Status status = victim->ImportState(blob_);
    if (key.key_class == api::KeyClass::kPerformance) {
      EXPECT_TRUE(status.ok()) << key.name << ": " << status.ToString();
      continue;
    }
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << key.name << ": " << status.ToString();
    // The message names both specs.
    EXPECT_NE(status.message().find(base), std::string::npos) << key.name;
    ExpectUnmodified(victim.get(), 2, *options);
  }
}

TEST_F(DetectorStateRobustnessTest, UnparsableEmbeddedSpecIsTypedError) {
  const std::string spec =
      api::DetectorSpec::FromOptions(BaseOptions()).ToKeyValues();
  for (const std::string& bad :
       {spec + ",numerics=fast", spec + ",tau", spec + ",tau=three",
        std::string("quantizer=kmeanz")}) {
    const std::string blob = WithSpec(blob_, bad);
    auto victim = BagStreamDetector::Create(BaseOptions()).MoveValueUnsafe();
    for (std::size_t t = 0; t < 4; ++t) {
      ASSERT_TRUE(victim->Push(bags_[t]).ok());
    }
    const Status status = victim->ImportState(blob);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << bad << ": " << status.ToString();
    EXPECT_FALSE(BagStreamDetector::CreateFromState(blob).ok()) << bad;
    ExpectUnmodified(victim.get(), 4);
  }
  // The untouched spec still imports, so the rewrite itself is faithful.
  auto control = BagStreamDetector::Create(BaseOptions()).MoveValueUnsafe();
  EXPECT_TRUE(control->ImportState(WithSpec(blob_, spec)).ok());
}

TEST_F(DetectorStateRobustnessTest, OversizedEmbeddedWindowIsInvalid) {
  // CreateFromState builds the detector from the blob's own spec: a window
  // past kMaxDetectorWindow must be refused before anything is allocated.
  for (const std::string& window :
       {std::string("tau=100000"), std::string("tau=4294967296"),
        std::string("tau=2147483648,tau_prime=2147483648"),
        std::string("tau=9223372036854775808,tau_prime=9223372036854775808"),
        std::string("tau=2,tau_prime=4095")}) {
    const std::string spec =
        api::DetectorSpec::FromOptions(BaseOptions()).ToKeyValues() + "," +
        window;
    Result<DetectorOptions> built =
        api::DetectorSpec::FromKeyValues(spec).ValueOrDie().Build();
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument) << window;
    const Result<std::unique_ptr<BagStreamDetector>> created =
        BagStreamDetector::CreateFromState(WithSpec(blob_, spec));
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument)
        << window << ": " << created.status().ToString();
  }
}

TEST_F(DetectorStateRobustnessTest, WrongBlobKindIsInvalid) {
  auto victim = BagStreamDetector::Create(BaseOptions()).MoveValueUnsafe();
  std::string engine_blob;
  serialize::WireWriter writer(&engine_blob);
  writer.BeginBlob(serialize::BlobKind::kEngineCheckpoint);
  writer.EndBlob();
  const Status status = victim->ImportState(engine_blob);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

TEST(DetectorStateTest, EstimatedStateBytesTracksWindowFill) {
  const BagSequence bags = JumpStream(10, 0, 3);
  auto detector = BagStreamDetector::Create(BaseOptions()).MoveValueUnsafe();
  const std::size_t empty = detector->EstimatedStateBytes();
  for (const Bag& bag : bags) ASSERT_TRUE(detector->Push(bag).ok());
  EXPECT_GT(detector->EstimatedStateBytes(), empty);
}

TEST(DetectorStateTest, InspectDetectorBlobReportsFill) {
  const BagSequence bags = JumpStream(8, 0, 3);
  auto detector = BagStreamDetector::Create(BaseOptions()).MoveValueUnsafe();
  for (const Bag& bag : bags) ASSERT_TRUE(detector->Push(bag).ok());
  std::string blob;
  ASSERT_TRUE(detector->ExportState(&blob).ok());

  Result<serialize::DetectorBlobInfo> info =
      serialize::InspectDetectorBlob(blob);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.ValueOrDie().window_capacity, 6u);
  // Between pushes the steady-state ring holds tau + tau' - 1 signatures:
  // each scored push slides the oldest out before control returns.
  EXPECT_EQ(info.ValueOrDie().window_fill, 5u);
  EXPECT_EQ(info.ValueOrDie().next_index, 8u);
  EXPECT_EQ(info.ValueOrDie().blob_bytes, blob.size());
  EXPECT_NE(info.ValueOrDie().spec.find("tau=3"), std::string::npos);
}

}  // namespace
}  // namespace bagcpd
