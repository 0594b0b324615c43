#include "bagcpd/api/spec.h"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bagcpd/data/gmm.h"

namespace bagcpd {
namespace api {
namespace {

BagSequence SmallStream(std::size_t length, std::uint64_t seed) {
  Rng rng(seed);
  const GaussianMixture mix = GaussianMixture::Isotropic({0.0, 0.0}, 0.5);
  BagSequence bags;
  for (std::size_t t = 0; t < length; ++t) {
    bags.push_back(mix.SampleBag(15, &rng));
  }
  return bags;
}

TEST(DetectorSpecTest, FromKeyValuesParsesFullConfig) {
  Result<DetectorSpec> spec = DetectorSpec::FromKeyValues(
      "quantizer=kmeans, tau=5, score=skl, tau_prime=3, k=6, "
      "weights=discounted, ground=manhattan, bootstrap=standard, "
      "replicates=123, alpha=0.1, normalize=true, bin_width=0.5, "
      "histogram_origin=-1.5, distance_floor=1e-9, seed=99");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  DetectorOptions options = spec->Build().ValueOrDie();
  EXPECT_EQ(options.signature.method, SignatureMethod::kKMeans);
  EXPECT_EQ(options.tau, 5u);
  EXPECT_EQ(options.tau_prime, 3u);
  EXPECT_EQ(options.score_type, ScoreType::kSymmetrizedKl);
  EXPECT_EQ(options.signature.k, 6u);
  EXPECT_EQ(options.weight_scheme, WeightScheme::kDiscounted);
  EXPECT_EQ(options.ground, GroundDistance::kManhattan);
  EXPECT_EQ(options.bootstrap.method, BootstrapMethod::kStandard);
  EXPECT_EQ(options.bootstrap.replicates, 123);
  EXPECT_DOUBLE_EQ(options.bootstrap.alpha, 0.1);
  EXPECT_TRUE(options.signature.normalize);
  EXPECT_DOUBLE_EQ(options.signature.bin_width, 0.5);
  EXPECT_DOUBLE_EQ(options.signature.histogram_origin, -1.5);
  EXPECT_DOUBLE_EQ(options.info.distance_floor, 1e-9);
  EXPECT_EQ(options.seed, 99u);
}

TEST(DetectorSpecTest, FromKeyValuesRejectionMessagesNameTheToken) {
  Result<DetectorSpec> unknown_key = DetectorSpec::FromKeyValues("taau=5");
  ASSERT_FALSE(unknown_key.ok());
  EXPECT_NE(unknown_key.status().message().find("unknown key 'taau'"),
            std::string::npos);
  // The message lists the accepted keys so config typos are self-serviced.
  EXPECT_NE(unknown_key.status().message().find("tau_prime"),
            std::string::npos);

  Result<DetectorSpec> malformed = DetectorSpec::FromKeyValues("tau=5,score");
  ASSERT_FALSE(malformed.ok());
  EXPECT_NE(malformed.status().message().find("'score'"), std::string::npos);
  EXPECT_NE(malformed.status().message().find("key=value"), std::string::npos);

  Result<DetectorSpec> bad_int = DetectorSpec::FromKeyValues("tau=five");
  ASSERT_FALSE(bad_int.ok());
  EXPECT_NE(bad_int.status().message().find("key 'tau'"), std::string::npos);
  EXPECT_NE(bad_int.status().message().find("'five'"), std::string::npos);

  Result<DetectorSpec> bad_enum =
      DetectorSpec::FromKeyValues("quantizer=kmens");
  ASSERT_FALSE(bad_enum.ok());
  EXPECT_NE(bad_enum.status().message().find("kmens"), std::string::npos);

  EXPECT_FALSE(DetectorSpec::FromKeyValues("alpha=0.0.5").ok());
  // The one number rule (common/number_text.h), in plain keys and in emd=:
  // no '+', hex or inner whitespace, and out of range (for the field's own
  // width too) is refused, never wrapped.
  for (const char* text :
       {"tau=+5", "alpha=0x1p-4", "alpha=+0.05", "alpha=0.0 5", "alpha=1e400",
        "alpha=inf", "replicates=2147483648", "seed=18446744073709551616",
        "seed=-1", "tau=5.0", "emd=sinkhorn:+0.1", "emd=sinkhorn:0x1p-4",
        "emd=sinkhorn:0.1:+50", "emd=sliced:18446744073709551616",
        "emd=sliced:1e2"}) {
    EXPECT_FALSE(DetectorSpec::FromKeyValues(text).ok()) << text;
  }
  for (const char* text :
       {"alpha=5e-2", "replicates=2147483647", "seed=18446744073709551615",
        "emd=sinkhorn:1e-1:50:1E-8", "emd=sliced:16"}) {
    EXPECT_TRUE(DetectorSpec::FromKeyValues(text).ok()) << text;
  }
  EXPECT_FALSE(DetectorSpec::FromKeyValues("normalize=yes").ok());
  EXPECT_FALSE(DetectorSpec::FromKeyValues("seed=-1").ok());
}

TEST(DetectorSpecTest, ToKeyValuesRoundTrips) {
  const DetectorSpec spec = DetectorSpec()
                                .Tau(7)
                                .TauPrime(3)
                                .Score(ScoreType::kLogLikelihoodRatio)
                                .Quantizer(SignatureMethod::kHistogram)
                                .BinWidth(0.25)
                                .HistogramOrigin(-2.0)
                                .Normalize(true)
                                .Replicates(77)
                                .Alpha(0.01)
                                .Ground("manhattan")
                                .Weights("discounted")
                                .Bootstrap("standard")
                                .DistanceFloor(1e-10)
                                .Seed(5);
  const std::string text = spec.ToKeyValues();
  Result<DetectorSpec> reparsed = DetectorSpec::FromKeyValues(text);
  ASSERT_TRUE(reparsed.ok()) << text << ": " << reparsed.status().ToString();
  EXPECT_EQ(reparsed->ToKeyValues(), text);
  const DetectorOptions a = spec.Build().ValueOrDie();
  const DetectorOptions b = reparsed->Build().ValueOrDie();
  EXPECT_EQ(a.tau, b.tau);
  EXPECT_EQ(a.tau_prime, b.tau_prime);
  EXPECT_EQ(a.score_type, b.score_type);
  EXPECT_EQ(a.signature.method, b.signature.method);
  EXPECT_DOUBLE_EQ(a.signature.bin_width, b.signature.bin_width);
  EXPECT_DOUBLE_EQ(a.signature.histogram_origin, b.signature.histogram_origin);
  EXPECT_EQ(a.signature.normalize, b.signature.normalize);
  EXPECT_EQ(a.bootstrap.replicates, b.bootstrap.replicates);
  EXPECT_DOUBLE_EQ(a.bootstrap.alpha, b.bootstrap.alpha);
  EXPECT_EQ(a.ground, b.ground);
  EXPECT_EQ(a.weight_scheme, b.weight_scheme);
  EXPECT_EQ(a.bootstrap.method, b.bootstrap.method);
  EXPECT_DOUBLE_EQ(a.info.distance_floor, b.info.distance_floor);
  EXPECT_EQ(a.seed, b.seed);
}

TEST(DetectorSpecTest, EmdKeyParsesEverySolverForm) {
  // Bare kind names select the solver with its defaults.
  Result<DetectorSpec> exact = DetectorSpec::FromKeyValues("emd=exact");
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(exact->Build().ValueOrDie().emd.kind, EmdSolverKind::kExact);

  Result<DetectorSpec> sinkhorn =
      DetectorSpec::FromKeyValues("emd=sinkhorn:0.05");
  ASSERT_TRUE(sinkhorn.ok()) << sinkhorn.status().ToString();
  DetectorOptions sk = sinkhorn->Build().ValueOrDie();
  EXPECT_EQ(sk.emd.kind, EmdSolverKind::kSinkhorn);
  EXPECT_DOUBLE_EQ(sk.emd.sinkhorn_eps, 0.05);

  Result<DetectorSpec> full =
      DetectorSpec::FromKeyValues("emd=sinkhorn:0.2:250:1e-8");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  DetectorOptions fo = full->Build().ValueOrDie();
  EXPECT_DOUBLE_EQ(fo.emd.sinkhorn_eps, 0.2);
  EXPECT_EQ(fo.emd.sinkhorn_max_iters, 250u);
  EXPECT_DOUBLE_EQ(fo.emd.sinkhorn_tolerance, 1e-8);

  Result<DetectorSpec> sliced = DetectorSpec::FromKeyValues("emd=sliced:32");
  ASSERT_TRUE(sliced.ok()) << sliced.status().ToString();
  DetectorOptions sl = sliced->Build().ValueOrDie();
  EXPECT_EQ(sl.emd.kind, EmdSolverKind::kSliced);
  EXPECT_EQ(sl.emd.sliced_projections, 32u);

  // Rejections name the offending token.
  Result<DetectorSpec> bad = DetectorSpec::FromKeyValues("emd=sankhorn:0.1");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("sankhorn"), std::string::npos);
  EXPECT_FALSE(DetectorSpec::FromKeyValues("emd=sinkhorn:0").ok());
  EXPECT_FALSE(DetectorSpec::FromKeyValues("emd=sinkhorn:-0.1").ok());
  EXPECT_FALSE(DetectorSpec::FromKeyValues("emd=sliced:0").ok());
  EXPECT_FALSE(DetectorSpec::FromKeyValues("emd=exact:1").ok());
  EXPECT_FALSE(DetectorSpec::FromKeyValues("emd=sliced:16:2").ok());
}

TEST(DetectorSpecTest, EmdKeyRoundTripsCanonically) {
  // Default (exact) stays in the canonical echo and reparses.
  const std::string base = DetectorSpec().ToKeyValues();
  EXPECT_NE(base.find("emd=exact"), std::string::npos);

  for (const std::string& form :
       {std::string("exact"), std::string("sinkhorn:0.05"),
        std::string("sinkhorn:0.1:250:1e-08"), std::string("sliced:32")}) {
    const DetectorSpec spec = DetectorSpec().Emd(form);
    const std::string text = spec.ToKeyValues();
    EXPECT_NE(text.find("emd=" + form), std::string::npos) << text;
    Result<DetectorSpec> reparsed = DetectorSpec::FromKeyValues(text);
    ASSERT_TRUE(reparsed.ok()) << text << ": " << reparsed.status().ToString();
    EXPECT_EQ(reparsed->ToKeyValues(), text);
  }

  // Non-canonical but valid spellings normalize: default iters/tol collapse
  // to the short form.
  const DetectorSpec shorthand = DetectorSpec().Emd("sinkhorn:0.1:100:1e-06");
  EXPECT_NE(shorthand.ToKeyValues().find("emd=sinkhorn:0.1,"),
            std::string::npos)
      << shorthand.ToKeyValues();

  // The enum/options fluent overloads agree with the string form.
  EmdSolverOptions options;
  options.kind = EmdSolverKind::kSliced;
  options.sliced_projections = 8;
  EXPECT_EQ(DetectorSpec().Emd(options).ToKeyValues(),
            DetectorSpec().Emd("sliced:8").ToKeyValues());
  EXPECT_EQ(DetectorSpec().Emd(EmdSolverKind::kSinkhorn).ToKeyValues(),
            DetectorSpec().Emd("sinkhorn").ToKeyValues());
}

TEST(DetectorSpecTest, EmdHeapAtKeyParsesAndRoundTrips) {
  // Default crossover is in the canonical echo and survives a round trip.
  const std::string base = DetectorSpec().ToKeyValues();
  EXPECT_NE(base.find("emd-heap-at=" + std::to_string(kDefaultEmdHeapAt)),
            std::string::npos)
      << base;
  // Pinned until the default is re-measured and moved on purpose. Checkpoint
  // imports compare result keys only, so a move strands no checkpoint.
  EXPECT_EQ(kDefaultEmdHeapAt, 32u);

  // A value other than the default, so the checks prove the key overrides it.
  const std::size_t custom = kDefaultEmdHeapAt + 16;
  const std::string custom_kv = "emd-heap-at=" + std::to_string(custom);
  Result<DetectorSpec> parsed = DetectorSpec::FromKeyValues(custom_kv);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Build().ValueOrDie().emd.heap_at, custom);
  EXPECT_NE(parsed->ToKeyValues().find(custom_kv), std::string::npos);
  Result<DetectorSpec> reparsed =
      DetectorSpec::FromKeyValues(parsed->ToKeyValues());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->ToKeyValues(), parsed->ToKeyValues());

  // 0 = always the dense scan; the fluent setter agrees with the text form.
  Result<DetectorSpec> dense = DetectorSpec::FromKeyValues("emd-heap-at=0");
  ASSERT_TRUE(dense.ok());
  EXPECT_EQ(dense->Build().ValueOrDie().emd.heap_at, 0u);
  EXPECT_EQ(DetectorSpec().EmdHeapAt(custom).ToKeyValues(),
            parsed->ToKeyValues());

  // Negative and malformed values are rejected with the numeric-key message.
  Result<DetectorSpec> negative =
      DetectorSpec::FromKeyValues("emd-heap-at=-1");
  ASSERT_FALSE(negative.ok());
  EXPECT_NE(negative.status().message().find("a non-negative integer"),
            std::string::npos)
      << negative.status().ToString();
  EXPECT_FALSE(DetectorSpec::FromKeyValues("emd-heap-at=abc").ok());

  // The crossover is independent of the emd= key: setting either before or
  // after the other preserves both (key-order independence).
  Result<DetectorSpec> before =
      DetectorSpec::FromKeyValues("emd-heap-at=96,emd=sinkhorn:0.1");
  Result<DetectorSpec> after =
      DetectorSpec::FromKeyValues("emd=sinkhorn:0.1,emd-heap-at=96");
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->ToKeyValues(), after->ToKeyValues());
  EXPECT_EQ(before->Build().ValueOrDie().emd.heap_at, 96u);
  EXPECT_EQ(before->Build().ValueOrDie().emd.kind, EmdSolverKind::kSinkhorn);
  // Likewise the fluent Emd(string) overload.
  EXPECT_EQ(DetectorSpec().EmdHeapAt(96).Emd("sinkhorn:0.1").ToKeyValues(),
            before->ToKeyValues());
}

TEST(DetectorSpecTest, FluentStringErrorSurfacesAtBuild) {
  const DetectorSpec spec = DetectorSpec().Quantizer("nope").Tau(5);
  Result<DetectorOptions> built = spec.Build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.status().message().find("nope"), std::string::npos);
  // Create() surfaces the same deferred error.
  EXPECT_EQ(spec.Create().status().ToString(), built.status().ToString());
}

TEST(DetectorSpecTest, CreateFailuresMirrorEveryValidationCase) {
  // Every incoherent-options case fails Create() with exactly the status
  // ValidateDetectorOptions reports for it.
  std::vector<DetectorOptions> bad_cases;
  DetectorOptions bad_tau;
  bad_tau.tau = 1;
  bad_cases.push_back(bad_tau);
  DetectorOptions bad_tau_prime;
  bad_tau_prime.tau_prime = 0;
  bad_cases.push_back(bad_tau_prime);
  DetectorOptions bad_alpha_low;
  bad_alpha_low.bootstrap.alpha = 0.0;
  bad_cases.push_back(bad_alpha_low);
  DetectorOptions bad_alpha_high;
  bad_alpha_high.bootstrap.alpha = 1.0;
  bad_cases.push_back(bad_alpha_high);
  DetectorOptions bad_floor;
  bad_floor.info.distance_floor = 0.0;
  bad_cases.push_back(bad_floor);
  // Configs that used to pass Create and then fail every push.
  for (SignatureMethod method : {SignatureMethod::kKMeans,
                                 SignatureMethod::kKMedoids,
                                 SignatureMethod::kLvq}) {
    DetectorOptions bad_k;
    bad_k.signature.method = method;
    bad_k.signature.k = 0;
    bad_cases.push_back(bad_k);
  }
  for (double width : {0.0, -1.0, std::nan("")}) {
    DetectorOptions bad_width;
    bad_width.signature.method = SignatureMethod::kHistogram;
    bad_width.signature.bin_width = width;
    bad_cases.push_back(bad_width);
  }
  // Non-finite values, which the spec text form cannot carry, so a
  // checkpoint of such a detector could never be rebuilt from its spec.
  DetectorOptions nan_alpha;
  nan_alpha.bootstrap.replicates = 0;
  nan_alpha.bootstrap.alpha = std::nan("");
  bad_cases.push_back(nan_alpha);
  DetectorOptions infinite_origin;
  infinite_origin.signature.histogram_origin = HUGE_VAL;
  bad_cases.push_back(infinite_origin);
  DetectorOptions infinite_floor;
  infinite_floor.info.distance_floor = HUGE_VAL;
  bad_cases.push_back(infinite_floor);
  for (int replicates : {1, -1}) {
    DetectorOptions bad_replicates;
    bad_replicates.bootstrap.replicates = replicates;
    bad_cases.push_back(bad_replicates);
  }
  // Windows whose rolling table could not be allocated, including sums that
  // wrap around std::size_t.
  const std::size_t huge = std::size_t{1} << 63;
  for (const auto& [tau, tau_prime] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {100000, 5},
           {4294967296, 5},
           {2147483648, 2147483648},
           {huge, huge},
           {4, ~std::size_t{0} - 1},  // Wraps to 2.
           {2, kMaxDetectorWindow - 1}}) {
    DetectorOptions bad_window;
    bad_window.tau = tau;
    bad_window.tau_prime = tau_prime;
    bad_cases.push_back(bad_window);
  }

  for (const DetectorOptions& options : bad_cases) {
    const Status validated = ValidateDetectorOptions(options);
    ASSERT_FALSE(validated.ok());
    Result<std::unique_ptr<BagStreamDetector>> created =
        BagStreamDetector::Create(options);
    ASSERT_FALSE(created.ok());
    EXPECT_EQ(created.status().ToString(), validated.ToString());
  }

  // And a coherent config succeeds.
  DetectorOptions good;
  good.bootstrap.replicates = 0;
  EXPECT_TRUE(ValidateDetectorOptions(good).ok());
  Result<std::unique_ptr<BagStreamDetector>> created =
      BagStreamDetector::Create(good);
  ASSERT_TRUE(created.ok()) << created.status().ToString();

  // k is free where the quantizer ignores it, bin_width likewise, and the
  // largest window is accepted.
  DetectorOptions centroid;
  centroid.signature.method = SignatureMethod::kCentroid;
  centroid.signature.k = 0;
  centroid.signature.bin_width = 0.0;
  EXPECT_TRUE(ValidateDetectorOptions(centroid).ok());
  DetectorOptions histogram;
  histogram.signature.method = SignatureMethod::kHistogram;
  histogram.signature.k = 0;
  EXPECT_TRUE(ValidateDetectorOptions(histogram).ok());
  DetectorOptions widest;
  widest.tau = 2;
  widest.tau_prime = kMaxDetectorWindow - 2;
  EXPECT_TRUE(ValidateDetectorOptions(widest).ok());
}

TEST(DetectorSpecTest, SpecCreatedDetectorMatchesOptionsCreate) {
  DetectorOptions options;
  options.tau = 3;
  options.tau_prime = 3;
  options.bootstrap.replicates = 30;
  options.signature.k = 3;
  options.seed = 21;
  std::unique_ptr<BagStreamDetector> direct =
      BagStreamDetector::Create(options).MoveValueUnsafe();

  std::unique_ptr<BagStreamDetector> modern =
      DetectorSpec()
          .Tau(3)
          .TauPrime(3)
          .Replicates(30)
          .K(3)
          .Seed(21)
          .Create()
          .MoveValueUnsafe();

  const BagSequence bags = SmallStream(10, 4);
  const std::vector<StepResult> a = direct->Run(bags).ValueOrDie();
  const std::vector<StepResult> b = modern->Run(bags).ValueOrDie();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].score, b[i].score);
    EXPECT_EQ(a[i].ci_lo, b[i].ci_lo);
    EXPECT_EQ(a[i].ci_up, b[i].ci_up);
  }
}

TEST(EngineSpecTest, CreateFailuresMirrorEveryValidationCase) {
  std::vector<StreamEngineOptions> bad_cases;
  StreamEngineOptions bad_queue;
  bad_queue.num_shards = 1;
  bad_queue.shard_queue_capacity = 0;
  bad_cases.push_back(bad_queue);
  StreamEngineOptions bad_detector;
  bad_detector.num_shards = 1;
  bad_detector.detector.tau = 1;
  bad_cases.push_back(bad_detector);
  StreamEngineOptions bad_k;  // Would quarantine every stream on push.
  bad_k.num_shards = 1;
  bad_k.detector.signature.k = 0;
  bad_cases.push_back(bad_k);
  StreamEngineOptions bad_arena;
  bad_arena.num_shards = 1;
  bad_arena.arena.min_buffer_capacity = 100;  // Not a power of two.
  bad_cases.push_back(bad_arena);
  // The detector.seed footgun: historically ignored silently, now loud.
  StreamEngineOptions seeded_detector;
  seeded_detector.num_shards = 1;
  seeded_detector.detector.seed = 7;
  bad_cases.push_back(seeded_detector);

  for (const StreamEngineOptions& options : bad_cases) {
    const Status validated = ValidateStreamEngineOptions(options);
    ASSERT_FALSE(validated.ok());
    Result<std::unique_ptr<StreamEngine>> created =
        StreamEngine::Create(options);
    ASSERT_FALSE(created.ok());
    EXPECT_EQ(created.status().ToString(), validated.ToString());
  }

  EXPECT_NE(StreamEngine::Create(seeded_detector)
                .status()
                .message()
                .find("detector.seed"),
            std::string::npos);
}

TEST(EngineSpecTest, BuildRejectsSeededDetectorSpec) {
  Result<StreamEngineOptions> built =
      EngineSpec()
          .NumShards(1)
          .Seed(5)
          .Detector(DetectorSpec().Tau(4).TauPrime(4).Seed(9))
          .Build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.status().message().find("detector.seed"), std::string::npos);
}

TEST(EngineSpecTest, CreateRegistersProfilesInOrder) {
  Result<std::unique_ptr<StreamEngine>> created =
      EngineSpec()
          .NumShards(2)
          .Seed(3)
          .Detector(DetectorSpec().Tau(4).TauPrime(4).Replicates(0))
          .Profile("coarse", DetectorSpec().Tau(2).TauPrime(2).Replicates(0))
          .Profile("lr", DetectorSpec()
                             .Tau(4)
                             .TauPrime(4)
                             .Score("lr")
                             .Replicates(0))
          .Create();
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  StreamEngine& engine = **created;
  EXPECT_EQ(engine.profile_count(), 3u);

  const BagSequence bags = SmallStream(6, 9);
  for (const Bag& bag : bags) {
    ASSERT_TRUE(engine.Submit("a", bag, "coarse").ok());
  }
  engine.Flush();
  // tau + tau' = 4 on the coarse profile: 6 bags yield 3 results.
  std::size_t steps = 0;
  for (const EngineEvent& event : engine.DrainEvents()) {
    if (event.kind == EngineEvent::Kind::kStep) ++steps;
  }
  EXPECT_EQ(steps, 3u);

  // A bad profile spec fails Create with the profile's error.
  Result<std::unique_ptr<StreamEngine>> bad =
      EngineSpec()
          .NumShards(1)
          .Profile("broken", DetectorSpec().Tau(1))
          .Create();
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("tau"), std::string::npos);
}

TEST(EngineSpecTest, FromKeyValuesSplitsEngineAndDetectorKeys) {
  Result<EngineSpec> spec = EngineSpec::FromKeyValues(
      "shards=4,queue=128,collect=true,max_idle=500,seed=42,"
      "quantizer=kmeans,tau=5,tau_prime=5,replicates=0,emd=sinkhorn:0.1");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  Result<StreamEngineOptions> options = spec->Build();
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->num_shards, 4u);
  EXPECT_EQ(options->shard_queue_capacity, 128u);
  EXPECT_TRUE(options->collect_results);
  EXPECT_EQ(options->max_idle_submissions, 500u);
  EXPECT_EQ(options->seed, 42u);
  EXPECT_EQ(options->detector.tau, 5u);
  EXPECT_EQ(options->detector.bootstrap.replicates, 0);
  EXPECT_EQ(options->detector.emd.kind, EmdSolverKind::kSinkhorn);
  // Engine convention: the run seed lives on the engine, never the detector.
  EXPECT_EQ(options->detector.seed, 0u);

  EXPECT_FALSE(EngineSpec::FromKeyValues("shards=many").ok());
  EXPECT_FALSE(EngineSpec::FromKeyValues("collect=maybe").ok());
  EXPECT_FALSE(EngineSpec::FromKeyValues("tau=not_a_number").ok());
}

TEST(EngineSpecTest, ToKeyValuesRoundTrips) {
  Result<EngineSpec> spec = EngineSpec::FromKeyValues(
      "shards=2,queue=64,collect=false,max_idle=100,seed=9,"
      "tau=3,tau_prime=3,replicates=0,emd=sliced:8");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const std::string text = spec->ToKeyValues();
  Result<EngineSpec> reparsed = EngineSpec::FromKeyValues(text);
  ASSERT_TRUE(reparsed.ok()) << text << ": " << reparsed.status().ToString();
  EXPECT_EQ(reparsed->ToKeyValues(), text);

  // The fluent path echoes the same canonical text as the parsed path.
  EngineSpec fluent;
  fluent.NumShards(2)
      .QueueCapacity(64)
      .CollectResults(false)
      .MaxIdleSubmissions(100)
      .Seed(9)
      .Detector(
          DetectorSpec().Tau(3).TauPrime(3).Replicates(0).Emd("sliced:8"));
  EXPECT_EQ(fluent.ToKeyValues(), text);

  // And the defaults round-trip too (detector seed suffix is elided).
  const std::string defaults = EngineSpec().ToKeyValues();
  Result<EngineSpec> redefaults = EngineSpec::FromKeyValues(defaults);
  ASSERT_TRUE(redefaults.ok()) << defaults;
  EXPECT_EQ(redefaults->ToKeyValues(), defaults);
  EXPECT_EQ(defaults.find("seed=0,"), defaults.rfind("seed="))
      << "detector seed must not be re-emitted: " << defaults;
}

TEST(EngineSpecTest, EchoNeverReplacesTheEngineSeed) {
  // A nonzero detector seed fails Build(); the echo must not turn it into
  // a second `seed=` token that re-parses as the engine seed.
  EngineSpec spec;
  spec.NumShards(1).Seed(42).detector().Seed(7);
  ASSERT_FALSE(spec.Build().ok());
  const std::string text = spec.ToKeyValues();
  EXPECT_EQ(text.find("seed="), text.rfind("seed=")) << text;
  Result<EngineSpec> reparsed = EngineSpec::FromKeyValues(text);
  ASSERT_TRUE(reparsed.ok()) << text << ": " << reparsed.status().ToString();
  Result<StreamEngineOptions> options = reparsed->Build();
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->seed, 42u);
  EXPECT_EQ(options->detector.seed, 0u);
}

TEST(EngineSpecTest, UnknownKeyMessageListsTheEngineGrammar) {
  Result<EngineSpec> typo = EngineSpec::FromKeyValues("shardz=4");
  ASSERT_FALSE(typo.ok());
  const std::string& message = typo.status().message();
  EXPECT_NE(message.find("unknown key 'shardz'"), std::string::npos);
  for (const char* key : {"shards", "queue", "spill_dir", "fault_budget",
                          "fault", "tau_prime", "emd-heap-at"}) {
    EXPECT_NE(message.find(key), std::string::npos) << key << ": " << message;
  }
  // `seed` is listed once: the engine seed.
  EXPECT_EQ(message.find("seed"), message.rfind("seed")) << message;
}

TEST(DetectorSpecTest, KeysCarryTheirClassInEchoOrder) {
  std::string names;
  for (const SpecKey& key : DetectorSpec::Keys()) {
    EXPECT_EQ(key.key_class, key.name == "emd-heap-at"
                                 ? KeyClass::kPerformance
                                 : KeyClass::kResult)
        << key.name;
    names += (names.empty() ? "" : ",") + key.name;
  }
  EXPECT_EQ(names,
            "quantizer,k,bin_width,histogram_origin,normalize,tau,tau_prime,"
            "score,weights,ground,bootstrap,replicates,alpha,distance_floor,"
            "emd,emd-heap-at,emd-fallback,seed");
  // The result echo is the full echo without the performance keys.
  const DetectorSpec spec = DetectorSpec().EmdHeapAt(96).EmdFallbackExact(true);
  const std::string heap = ",emd-heap-at=96";
  std::string full = spec.ToKeyValues();
  full.erase(full.find(heap), heap.size());
  EXPECT_EQ(spec.ResultKeyValues(), full);
}

TEST(DetectorSpecTest, StringSettersDeferTheFirstError) {
  const DetectorSpec spec = DetectorSpec()
                                .Emd("sankhorn:0.1")
                                .Score("nope")
                                .Weights("nope")
                                .Ground("nope")
                                .Bootstrap("nope")
                                .Quantizer("nope");
  Result<DetectorOptions> built = spec.Build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.status().message().find("sankhorn"), std::string::npos)
      << built.status().ToString();
  // A failed setter leaves its field alone.
  EXPECT_EQ(spec.ToKeyValues(), DetectorSpec().ToKeyValues());
}

TEST(BatchSpecTest, EchoNeverReplacesTheRunSeed) {
  BatchSpec spec;
  spec.Seed(42).detector().Seed(7);
  ASSERT_FALSE(spec.Build().ok());
  Result<BatchSpec> reparsed = BatchSpec::FromKeyValues(spec.ToKeyValues());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  Result<BatchRunnerOptions> options = reparsed->Build();
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->seed, 42u);
  EXPECT_EQ(options->detector.seed, 0u);
}

TEST(BatchSpecTest, FromKeyValuesSplitsBatchAndDetectorKeys) {
  Result<BatchSpec> spec = BatchSpec::FromKeyValues(
      "shards=8,seed=42,quantizer=kmeans,tau=4,replicates=0");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  Result<BatchRunnerOptions> options = spec->Build();
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->num_shards, 8u);
  EXPECT_EQ(options->seed, 42u);
  EXPECT_EQ(options->detector.tau, 4u);
  EXPECT_EQ(options->detector.bootstrap.replicates, 0);
  EXPECT_EQ(options->detector.seed, 0u);  // Engine convention: run seed only.

  EXPECT_FALSE(BatchSpec::FromKeyValues("shards=zero").ok());
  EXPECT_FALSE(BatchSpec::FromKeyValues("tau=not_a_number").ok());
}

TEST(BatchSpecTest, ToKeyValuesRoundTrips) {
  Result<BatchSpec> spec = BatchSpec::FromKeyValues(
      "shards=4,seed=9,tau=3,tau_prime=3,replicates=0");
  ASSERT_TRUE(spec.ok());
  const std::string text = spec->ToKeyValues();
  Result<BatchSpec> reparsed = BatchSpec::FromKeyValues(text);
  ASSERT_TRUE(reparsed.ok()) << text;
  EXPECT_EQ(reparsed->ToKeyValues(), text);
}

TEST(BatchSpecTest, BuildValidatesLikeTheRunner) {
  // A seeded detector spec violates the derive-from-run-seed convention.
  BatchSpec seeded;
  seeded.detector().Seed(7);
  EXPECT_FALSE(seeded.Build().ok());

  // Registering the reserved default profile name is refused.
  BatchSpec reserved;
  reserved.Profile("default", DetectorSpec());
  EXPECT_FALSE(reserved.Build().ok());

  // Routing a key to a profile that was never registered is refused.
  BatchSpec dangling;
  dangling.ProfileForKey("k", "missing");
  EXPECT_FALSE(dangling.Build().ok());

  // The full fluent surface builds coherent runner options.
  DetectorSpec alt;
  alt.Tau(3).TauPrime(3);
  BatchSpec fluent;
  fluent.NumShards(2).Seed(5).Profile("alt", alt).ProfileForKey("k", "alt");
  Result<BatchRunnerOptions> options = fluent.Build();
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->profiles.count("alt"), 1u);
  EXPECT_EQ(options->profile_by_key.at("k"), "alt");
}

}  // namespace
}  // namespace api
}  // namespace bagcpd
