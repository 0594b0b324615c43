// Columnar batch frontend benchmark: the 10k-series offline sweep the batch/
// subsystem exists for. Two phases, both emitted into BENCH_batch.json:
//
//  1. Ingest race — the same interleaved unsorted row corpus built into (a)
//     the nested per-vector idiom (map of key -> map of timestamp -> Bag,
//     one heap allocation per observation) and (b) a BatchTableBuilder
//     columnar table. Best-of-3 each; CI gates columnar_speedup >= 1.15x.
//     The columnar ingest is BuildBatchTable's two calls, AddBatchSeriesRows
//     and Build(), timed whole and split (observational: add_rows_seconds,
//     build_seconds). The built table's retained_bytes() per row is
//     table_bytes_per_row, a byte count CI gates with a ceiling.
//
//  2. Detection — RunBatchColumnar over the table at several pool sizes,
//     reporting groups/sec and rows/sec. Every run's score column is folded
//     into a bitwise checksum; CI gates that all pool sizes agree and that
//     row counts are preserved exactly (output rows == input steps).
//
//   micro_batch [groups] [steps_per_group] [points_per_step] [pool_list]
//   e.g. micro_batch 10000 8 2 1,4

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bagcpd/batch/batch_runner.h"
#include "bagcpd/batch/batch_table.h"
#include "bagcpd/batch/synthetic.h"
#include "bagcpd/common/point.h"
#include "bagcpd/runtime/thread_pool.h"
#include "bench_util.h"

namespace bagcpd {
namespace {

double Seconds(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point stop) {
  return std::chrono::duration<double>(stop - start).count();
}

DetectorOptions BatchDetector() {
  DetectorOptions options;
  options.tau = 2;
  options.tau_prime = 2;
  options.bootstrap.replicates = 0;  // Scores only: the 10k sweep stays fast.
  options.signature.method = SignatureMethod::kKMeans;
  options.signature.k = 2;
  return options;
}

// The pre-batch-subsystem ingest idiom: nested owning containers keyed twice
// over, one vector<double> allocation per observation.
std::size_t NestedIngest(const BatchSeriesRows& rows) {
  std::map<std::string, std::map<std::int64_t, Bag>> nested;
  const std::size_t dim = rows.dim;
  for (std::size_t r = 0; r < rows.row_count(); ++r) {
    const double* v = rows.values.data() + r * dim;
    nested[rows.keys[rows.group[r]]][rows.timestamp[r]].push_back(
        Point(v, v + dim));
  }
  std::size_t total_points = 0;
  for (const auto& [key, series] : nested) {
    (void)key;
    for (const auto& [ts, bag] : series) {
      (void)ts;
      total_points += bag.size();
    }
  }
  return total_points;
}

// Bitwise fold of the scored rows: XOR of the score bit patterns (position-
// mixed) plus the scored-row count. Any cross-pool divergence — value,
// placement, or count — changes it.
std::uint64_t ScoreChecksum(const BatchResultTable& result) {
  std::uint64_t checksum = 0x9e3779b97f4a7c15ull * (result.row_count() + 1);
  for (std::size_t r = 0; r < result.row_count(); ++r) {
    if (!result.has_score[r]) continue;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &result.score[r], sizeof(bits));
    checksum ^= bits + 0x9e3779b97f4a7c15ull + (checksum << 6) +
                (checksum >> 2) + r;
  }
  return checksum;
}

struct DetectionRow {
  std::size_t pool = 0;
  double seconds = 0.0;
  double groups_per_sec = 0.0;
  double rows_per_sec = 0.0;
  std::uint64_t scored_rows = 0;
  std::uint64_t checksum = 0;
  bool row_count_preserved = false;
};

int Main(int argc, char** argv) {
  BatchSeriesSpec spec;
  spec.num_groups = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 10000;
  spec.steps_per_group = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 8;
  spec.points_per_step = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 2;
  spec.dim = 2;
  spec.seed = 7;
  std::vector<std::size_t> pool_sizes = {1, 4};
  if (argc > 4) {
    pool_sizes.clear();
    for (char* tok = std::strtok(argv[4], ","); tok != nullptr;
         tok = std::strtok(nullptr, ",")) {
      pool_sizes.push_back(static_cast<std::size_t>(std::atoi(tok)));
    }
  }

  bench::PrintHeader("micro_batch: columnar batch ingest + detection",
                     "BatchTableBuilder vs nested ingest; RunBatchColumnar "
                     "groups/sec by pool size");
  const BatchSeriesRows rows =
      bench::Unwrap(GenerateBatchSeriesRows(spec), "corpus generation");
  const double row_count = static_cast<double>(rows.row_count());
  std::printf("groups=%zu steps/group=%zu points/step=%zu dim=%zu rows=%zu\n\n",
              spec.num_groups, spec.steps_per_group, spec.points_per_step,
              spec.dim, rows.row_count());

  // --- Phase 1: ingest race (best of 3 each) -----------------------------
  constexpr int kIngestReps = 3;
  double nested_best = 1e300;
  std::size_t nested_points = 0;
  for (int rep = 0; rep < kIngestReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    nested_points = NestedIngest(rows);
    const auto stop = std::chrono::steady_clock::now();
    const double s = Seconds(start, stop);
    if (s < nested_best) nested_best = s;
  }

  // Columnar ingest, timed whole for the gate and split into its two
  // phases: BuildBatchTable's append (AddBatchSeriesRows, the call it makes)
  // and Build()'s sort into the canonical layout.
  double columnar_best = 1e300;
  double add_rows_best = 1e300;
  double build_best = 1e300;
  BatchTable table;
  for (int rep = 0; rep < kIngestReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    BatchTableBuilder builder;
    if (!AddBatchSeriesRows(rows, &builder).ok()) {
      std::fprintf(stderr, "FATAL: columnar append failed\n");
      return 1;
    }
    const auto added = std::chrono::steady_clock::now();
    table = builder.Build();
    const auto stop = std::chrono::steady_clock::now();
    columnar_best = std::min(columnar_best, Seconds(start, stop));
    add_rows_best = std::min(add_rows_best, Seconds(start, added));
    build_best = std::min(build_best, Seconds(added, stop));
  }
  if (nested_points != table.row_count()) {
    std::fprintf(stderr, "FATAL: ingest paths disagree on row count\n");
    return 1;
  }

  const double columnar_speedup = nested_best / columnar_best;
  std::printf("ingest nested    %8.3fs  %12.0f rows/s\n", nested_best,
              row_count / nested_best);
  std::printf("ingest columnar  %8.3fs  %12.0f rows/s  speedup %.2fx\n",
              columnar_best, row_count / columnar_best, columnar_speedup);
  std::printf("  of which append %8.3fs, Build() %8.3fs (best of %d each)\n",
              add_rows_best, build_best, kIngestReps);
  const double table_bytes_per_row =
      static_cast<double>(table.retained_bytes()) / row_count;
  std::printf("table            %zu bytes retained, %.2f bytes/row\n\n",
              table.retained_bytes(), table_bytes_per_row);

  // --- Phase 2: detection sweep by pool size -----------------------------
  std::vector<DetectionRow> detection;
  bool checksums_match = true;
  for (std::size_t pool_size : pool_sizes) {
    ThreadPool pool(pool_size);
    BatchRunnerOptions options;
    options.detector = BatchDetector();
    options.seed = 7;
    options.num_shards = pool_size > 1 ? pool_size * 2 : 1;
    options.pool = &pool;

    const auto start = std::chrono::steady_clock::now();
    const BatchResultTable result =
        bench::Unwrap(RunBatchColumnar(table, options), "RunBatchColumnar");
    const auto stop = std::chrono::steady_clock::now();

    DetectionRow row;
    row.pool = pool_size;
    row.seconds = Seconds(start, stop);
    row.groups_per_sec = static_cast<double>(table.group_count()) / row.seconds;
    row.rows_per_sec = static_cast<double>(table.step_count()) / row.seconds;
    for (std::uint8_t scored : result.has_score) row.scored_rows += scored;
    row.checksum = ScoreChecksum(result);
    row.row_count_preserved =
        result.quarantined.empty() && result.row_count() == table.step_count();
    if (!detection.empty() && row.checksum != detection.front().checksum) {
      checksums_match = false;
    }
    detection.push_back(row);
    std::printf(
        "pool=%2zu  %8.3fs  %10.1f groups/s  %10.0f rows/s  "
        "scored=%" PRIu64 "  checksum=%016" PRIx64 "  rows %s\n",
        row.pool, row.seconds, row.groups_per_sec, row.rows_per_sec,
        row.scored_rows, row.checksum,
        row.row_count_preserved ? "preserved" : "LOST");
  }

  std::FILE* json = std::fopen("BENCH_batch.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "FATAL: cannot open BENCH_batch.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"micro_batch\",\n"
               "  \"groups\": %zu,\n  \"steps_per_group\": %zu,\n"
               "  \"rows\": %zu,\n"
               "  \"ingest\": {\"nested_seconds\": %.6f, "
               "\"nested_rows_per_sec\": %.0f, \"columnar_seconds\": %.6f, "
               "\"columnar_rows_per_sec\": %.0f, \"columnar_speedup\": "
               "%.3f, \"add_rows_seconds\": %.6f, \"build_seconds\": "
               "%.6f},\n"
               "  \"table_retained_bytes\": %zu,\n"
               "  \"table_bytes_per_row\": %.3f,\n"
               "  \"detection\": [\n",
               spec.num_groups, spec.steps_per_group, rows.row_count(),
               nested_best, row_count / nested_best, columnar_best,
               row_count / columnar_best, columnar_speedup, add_rows_best,
               build_best, table.retained_bytes(), table_bytes_per_row);
  for (std::size_t i = 0; i < detection.size(); ++i) {
    const DetectionRow& r = detection[i];
    std::fprintf(json,
                 "    {\"pool\": %zu, \"seconds\": %.6f, "
                 "\"groups_per_sec\": %.1f, \"rows_per_sec\": %.1f, "
                 "\"scored_rows\": %" PRIu64 ", "
                 "\"checksum\": \"%016" PRIx64 "\", "
                 "\"row_count_preserved\": %s}%s\n",
                 r.pool, r.seconds, r.groups_per_sec, r.rows_per_sec,
                 r.scored_rows, r.checksum,
                 r.row_count_preserved ? "true" : "false",
                 i + 1 < detection.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"checksums_match\": %s\n}\n",
               checksums_match ? "true" : "false");
  std::fclose(json);
  std::printf("\nwrote BENCH_batch.json\n");
  return checksums_match ? 0 : 1;
}

}  // namespace
}  // namespace bagcpd

int main(int argc, char** argv) { return bagcpd::Main(argc, argv); }
