#include "bagcpd/batch/batch_runner.h"

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bagcpd/batch/synthetic.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/core/profiles.h"
#include "bagcpd/runtime/thread_pool.h"

namespace bagcpd {
namespace {

// CIs off: the 10k-group matrix sweeps stay fast, and score columns are
// still fully exercised.
DetectorOptions FastDetector() {
  DetectorOptions options;
  options.tau = 2;
  options.tau_prime = 2;
  options.bootstrap.replicates = 0;
  options.signature.method = SignatureMethod::kKMeans;
  options.signature.k = 2;
  return options;
}

BatchSeriesSpec SmallCorpus(std::size_t groups) {
  BatchSeriesSpec spec;
  spec.num_groups = groups;
  spec.steps_per_group = 6;
  spec.points_per_step = 2;
  spec.dim = 1;
  spec.seed = 7;
  return spec;
}

// The pinned reference: one detector per group, strictly serial, in table
// order — exactly what RunBatchColumnar must reproduce bit for bit.
BatchResultTable SerialReference(const BatchTable& table,
                                 const BatchRunnerOptions& options) {
  BatchResultTable out;
  const double nan = std::nan("");
  for (std::size_t g = 0; g < table.group_count(); ++g) {
    if (!table.group_status(g).ok()) {
      out.quarantined.push_back(BatchResultTable::Quarantined{
          table.group_key(g), table.group_status(g),
          table.group_step_count(g)});
      continue;
    }
    const std::uint32_t group_index =
        static_cast<std::uint32_t>(out.keys.size());
    out.keys.push_back(table.group_key(g));
    out.profiles.push_back(kDefaultProfileName);
    DetectorOptions per_group = options.detector;
    per_group.seed = DerivePerStreamSeed(options.seed, table.group_key(g),
                                         kDefaultProfileName);
    std::unique_ptr<BagStreamDetector> detector =
        BagStreamDetector::Create(per_group).MoveValueUnsafe();
    const std::size_t steps = table.group_step_count(g);
    const std::size_t base = out.step.size();
    for (std::size_t s = 0; s < steps; ++s) {
      out.group.push_back(group_index);
      out.step.push_back(static_cast<std::uint32_t>(s));
      out.timestamp.push_back(table.step_timestamp(g, s));
      out.score.push_back(nan);
      out.ci_lo.push_back(nan);
      out.ci_up.push_back(nan);
      out.xi.push_back(nan);
      out.is_change.push_back(0);
      out.has_score.push_back(0);
    }
    for (std::size_t s = 0; s < steps; ++s) {
      Result<std::optional<StepResult>> pushed =
          detector->Push(table.step_bag(g, s));
      EXPECT_TRUE(pushed.ok()) << pushed.status().ToString();
      if (!pushed.ok() || !pushed.ValueOrDie().has_value()) continue;
      const StepResult& r = *pushed.ValueOrDie();
      const std::size_t row = base + static_cast<std::size_t>(r.time);
      out.score[row] = r.score;
      out.ci_lo[row] = r.ci_lo;
      out.ci_up[row] = r.ci_up;
      out.xi[row] = r.xi;
      out.is_change[row] = r.alarm ? 1 : 0;
      out.has_score[row] = 1;
    }
  }
  return out;
}

// Bitwise column comparison — NaN bit patterns included, which is what
// "bitwise-identical" means (EXPECT_EQ on doubles would reject NaNs).
void ExpectBitwiseEqual(const std::vector<double>& a,
                        const std::vector<double>& b, const char* column) {
  ASSERT_EQ(a.size(), b.size()) << column;
  ASSERT_EQ(
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << column << " differs";
}

void ExpectIdenticalResults(const BatchResultTable& a,
                            const BatchResultTable& b) {
  EXPECT_EQ(a.keys, b.keys);
  EXPECT_EQ(a.profiles, b.profiles);
  EXPECT_EQ(a.group, b.group);
  EXPECT_EQ(a.step, b.step);
  EXPECT_EQ(a.timestamp, b.timestamp);
  ExpectBitwiseEqual(a.score, b.score, "score");
  ExpectBitwiseEqual(a.ci_lo, b.ci_lo, "ci_lo");
  ExpectBitwiseEqual(a.ci_up, b.ci_up, "ci_up");
  ExpectBitwiseEqual(a.xi, b.xi, "xi");
  EXPECT_EQ(a.is_change, b.is_change);
  EXPECT_EQ(a.has_score, b.has_score);
  ASSERT_EQ(a.quarantined.size(), b.quarantined.size());
  for (std::size_t i = 0; i < a.quarantined.size(); ++i) {
    EXPECT_EQ(a.quarantined[i].key, b.quarantined[i].key);
    EXPECT_EQ(a.quarantined[i].steps, b.quarantined[i].steps);
  }
}

// The PR's acceptance matrix: a 10k-series synthetic table, every
// (shards, pool size) combination in {1, 2, 8} x {1, 2, 8}, all pinned
// bitwise to the serial one-detector-per-group reference loop.
TEST(BatchRunnerTest, TenThousandSeriesMatrixMatchesSerialReference) {
  const Result<BatchTable> table = GenerateBatchSeries(SmallCorpus(10000));
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table.ValueOrDie().group_count(), 10000u);

  BatchRunnerOptions options;
  options.detector = FastDetector();
  options.seed = 42;
  const BatchResultTable reference =
      SerialReference(table.ValueOrDie(), options);
  // Row-count preservation: one output row per input step.
  ASSERT_EQ(reference.row_count(), table.ValueOrDie().step_count());

  for (std::size_t shards : {1u, 2u, 8u}) {
    for (std::size_t pool_size : {1u, 2u, 8u}) {
      ThreadPool pool(pool_size);
      BatchRunnerOptions run = options;
      run.num_shards = shards;
      run.pool = &pool;
      const Result<BatchResultTable> got =
          RunBatchColumnar(table.ValueOrDie(), run);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " pool=" + std::to_string(pool_size));
      EXPECT_EQ(got.ValueOrDie().row_count(), table.ValueOrDie().step_count());
      ExpectIdenticalResults(got.ValueOrDie(), reference);
    }
  }
}

TEST(BatchRunnerTest, BootstrapIntervalsMatchSerialReference) {
  const Result<BatchTable> table = GenerateBatchSeries(SmallCorpus(40));
  ASSERT_TRUE(table.ok());
  BatchRunnerOptions options;
  options.detector = FastDetector();
  options.detector.bootstrap.replicates = 40;
  options.seed = 11;
  const BatchResultTable reference =
      SerialReference(table.ValueOrDie(), options);
  ThreadPool pool(4);
  BatchRunnerOptions run = options;
  run.num_shards = 4;
  run.pool = &pool;
  const Result<BatchResultTable> got =
      RunBatchColumnar(table.ValueOrDie(), run);
  ASSERT_TRUE(got.ok());
  ExpectIdenticalResults(got.ValueOrDie(), reference);
  // CIs on: scored rows carry finite intervals.
  bool saw_interval = false;
  for (std::size_t r = 0; r < got.ValueOrDie().row_count(); ++r) {
    if (got.ValueOrDie().has_score[r] &&
        std::isfinite(got.ValueOrDie().ci_lo[r])) {
      saw_interval = true;
    }
  }
  EXPECT_TRUE(saw_interval);
}

TEST(BatchRunnerTest, QuarantinedGroupsAreReportedNeverDropped) {
  BatchTableBuilder builder;
  ASSERT_TRUE(builder.AddRow("ragged", 1, Point{1.0, 2.0}).ok());
  ASSERT_TRUE(builder.AddRow("ragged", 2, Point{3.0}).ok());
  for (int t = 0; t < 6; ++t) {
    ASSERT_TRUE(builder.AddRow("healthy", t, Point{double(t)}).ok());
  }
  const BatchTable table = builder.Build();

  BatchRunnerOptions options;
  options.detector = FastDetector();
  const Result<BatchResultTable> got = RunBatchColumnar(table, options);
  ASSERT_TRUE(got.ok());
  const BatchResultTable& result = got.ValueOrDie();
  ASSERT_EQ(result.keys.size(), 1u);
  EXPECT_EQ(result.keys[0], "healthy");
  EXPECT_EQ(result.row_count(), 6u);
  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(result.quarantined[0].key, "ragged");
  EXPECT_EQ(result.quarantined[0].steps, 2u);
  EXPECT_FALSE(result.quarantined[0].status.ok());
  // Full accounting: result rows + quarantined steps == input steps.
  EXPECT_EQ(result.row_count() + result.quarantined[0].steps,
            table.step_count());
}

TEST(BatchRunnerTest, ProfileRoutingAndConflicts) {
  BatchTableBuilder builder;
  for (int t = 0; t < 6; ++t) {
    ASSERT_TRUE(builder.AddRow("plain", t, Point{double(t)}).ok());
    ASSERT_TRUE(builder.AddRow("routed", t, Point{double(t)}).ok());
    ASSERT_TRUE(builder.AddRow("tabled", t, Point{double(t)}, "alt").ok());
    ASSERT_TRUE(builder.AddRow("unknown", t, Point{double(t)}, "ghost").ok());
  }
  const BatchTable table = builder.Build();

  BatchRunnerOptions options;
  options.detector = FastDetector();
  DetectorOptions alt = FastDetector();
  alt.tau = 3;
  options.profiles.emplace("alt", alt);
  options.profile_by_key.emplace("routed", "alt");
  const Result<BatchResultTable> got = RunBatchColumnar(table, options);
  ASSERT_TRUE(got.ok());
  const BatchResultTable& result = got.ValueOrDie();

  ASSERT_EQ(result.keys.size(), 3u);  // plain, routed, tabled
  std::map<std::string, std::string> profile_of;
  for (std::size_t i = 0; i < result.keys.size(); ++i) {
    profile_of[result.keys[i]] = result.profiles[i];
  }
  EXPECT_EQ(profile_of["plain"], kDefaultProfileName);
  EXPECT_EQ(profile_of["routed"], "alt");
  EXPECT_EQ(profile_of["tabled"], "alt");
  // The group naming an unregistered profile is quarantined, not fatal.
  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(result.quarantined[0].key, "unknown");

  // A table profile conflicting with the routing map quarantines too.
  BatchRunnerOptions conflicted = options;
  conflicted.profile_by_key["tabled"] = kDefaultProfileName;
  const Result<BatchResultTable> with_conflict =
      RunBatchColumnar(table, conflicted);
  ASSERT_TRUE(with_conflict.ok());
  EXPECT_EQ(with_conflict.ValueOrDie().quarantined.size(), 2u);

  // An unknown profile in the OPTIONS (caller-controlled) is a hard error.
  BatchRunnerOptions dangling = options;
  dangling.profile_by_key["plain"] = "nope";
  EXPECT_FALSE(RunBatchColumnar(table, dangling).ok());
}

TEST(BatchRunnerTest, NonFiniteStepsAreSkippedNotFatal) {
  // One poisoned observation must not take down its group (let alone the
  // batch): the step is skipped, reported in `skipped`, its row stays with
  // has_score = 0, and the group keeps scoring its later steps.
  const double nan = std::nan("");
  BatchTableBuilder builder;
  for (int t = 0; t < 8; ++t) {
    ASSERT_TRUE(
        builder.AddRow("dirty", t, Point{t == 2 ? nan : double(t)}).ok());
  }
  for (int t = 0; t < 6; ++t) {
    ASSERT_TRUE(builder.AddRow("clean", t, Point{double(t) * 0.5}).ok());
  }
  const BatchTable table = builder.Build();

  BatchRunnerOptions options;
  options.detector = FastDetector();
  const Result<BatchResultTable> got = RunBatchColumnar(table, options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const BatchResultTable& result = got.ValueOrDie();

  // Nothing quarantined, nothing dropped: full row accounting holds.
  EXPECT_TRUE(result.quarantined.empty());
  ASSERT_EQ(result.keys.size(), 2u);
  EXPECT_EQ(result.row_count(), table.step_count());
  ASSERT_EQ(result.skipped.size(), 1u);
  EXPECT_EQ(result.skipped[0].key, "dirty");
  EXPECT_EQ(result.skipped[0].step, 2u);
  EXPECT_EQ(result.skipped[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.skipped[0].status.message().find("non-finite"),
            std::string::npos);

  // The skipped step's row survives, unscored.
  std::size_t dirty_base = 0;
  while (result.keys[result.group[dirty_base]] != "dirty") ++dirty_base;
  EXPECT_EQ(result.has_score[dirty_base + 2], 0);
  EXPECT_TRUE(std::isnan(result.score[dirty_base + 2]));

  // Scored rows match a detector that never saw the poisoned bag, with
  // detector time mapped back to table steps across the gap.
  DetectorOptions per_group = options.detector;
  per_group.seed =
      DerivePerStreamSeed(options.seed, "dirty", kDefaultProfileName);
  std::unique_ptr<BagStreamDetector> reference =
      BagStreamDetector::Create(per_group).MoveValueUnsafe();
  std::size_t dirty_group = 0;  // Builder order is canonical (sorted keys).
  while (table.group_key(dirty_group) != "dirty") ++dirty_group;
  std::vector<std::size_t> pushed_step;
  for (std::size_t s = 0; s < 8; ++s) {
    if (s == 2) continue;
    pushed_step.push_back(s);
    Result<std::optional<StepResult>> pushed =
        reference->Push(table.step_bag(dirty_group, s));
    ASSERT_TRUE(pushed.ok());
    if (!pushed.ValueOrDie().has_value()) continue;
    const StepResult& r = *pushed.ValueOrDie();
    const std::size_t row =
        dirty_base + pushed_step[static_cast<std::size_t>(r.time)];
    EXPECT_EQ(result.has_score[row], 1);
    EXPECT_EQ(result.score[row], r.score);
    EXPECT_EQ(result.is_change[row], r.alarm ? 1 : 0);
  }

  // The skip report and all columns are shard/pool-invariant.
  ThreadPool pool(3);
  BatchRunnerOptions sharded = options;
  sharded.num_shards = 3;
  sharded.pool = &pool;
  const Result<BatchResultTable> parallel = RunBatchColumnar(table, sharded);
  ASSERT_TRUE(parallel.ok());
  ExpectIdenticalResults(result, parallel.ValueOrDie());
  ASSERT_EQ(parallel.ValueOrDie().skipped.size(), 1u);
  EXPECT_EQ(parallel.ValueOrDie().skipped[0].step, 2u);
}

TEST(BatchRunnerTest, ValidatesOptions) {
  const BatchTable empty;
  BatchRunnerOptions options;
  options.detector = FastDetector();
  options.detector.seed = 9;  // Must be 0.
  EXPECT_FALSE(RunBatchColumnar(empty, options).ok());

  BatchRunnerOptions bad_profile;
  bad_profile.detector = FastDetector();
  DetectorOptions seeded = FastDetector();
  seeded.seed = 1;
  bad_profile.profiles.emplace("p", seeded);
  EXPECT_FALSE(RunBatchColumnar(empty, bad_profile).ok());

  BatchRunnerOptions reserved;
  reserved.detector = FastDetector();
  reserved.profiles.emplace(kDefaultProfileName, FastDetector());
  EXPECT_FALSE(RunBatchColumnar(empty, reserved).ok());

  BatchRunnerOptions fine;
  fine.detector = FastDetector();
  const Result<BatchResultTable> got = RunBatchColumnar(empty, fine);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.ValueOrDie().row_count(), 0u);
}

}  // namespace
}  // namespace bagcpd
