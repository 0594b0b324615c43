// Flat-vs-nested bag storage microbenchmark: the cache/allocator win the
// FlatBag layer buys on the distance-dominated hot paths, proof that the
// nested->flat conversion happens exactly once per bag at the ingest
// boundary, and the pooled-memory sections (BufferArena ingest vs malloc
// ingest, packed single-buffer signature build vs the old split layout).
// Emits BENCH_flatbag.json in the working directory.
//
//   micro_flatbag [bag_size] [dim] [repeats]
//   e.g. micro_flatbag 256 8 50

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bagcpd/common/buffer_arena.h"
#include "bagcpd/common/flat_bag.h"
#include "bagcpd/common/rng.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/data/gmm.h"
#include "bagcpd/signature/kmeans.h"
#include "bench_util.h"

namespace bagcpd {
namespace {

double Seconds(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point stop) {
  return std::chrono::duration<double>(stop - start).count();
}

// Sum of all pairwise squared distances over the nested representation:
// every point access chases one pointer per row.
double PairwiseNested(const Bag& bag) {
  double acc = 0.0;
  for (std::size_t i = 0; i < bag.size(); ++i) {
    for (std::size_t j = i + 1; j < bag.size(); ++j) {
      acc += SquaredDistance(bag[i], bag[j]);
    }
  }
  return acc;
}

// Same sweep over the flat view: rows are adjacent in one buffer.
double PairwiseFlat(BagView bag) {
  double acc = 0.0;
  for (std::size_t i = 0; i < bag.size(); ++i) {
    for (std::size_t j = i + 1; j < bag.size(); ++j) {
      acc += SquaredDistance(bag[i], bag[j]);
    }
  }
  return acc;
}

struct Row {
  const char* name;
  double nested_seconds = 0.0;
  double flat_seconds = 0.0;
  double speedup = 0.0;
};

// Pooled-memory comparison rows: a malloc baseline vs the arena/packed path.
struct MemRow {
  const char* name;
  double baseline_seconds = 0.0;
  double pooled_seconds = 0.0;
  double speedup = 0.0;
};

// Mimics the engine's steady-state ingest: flatten a nested bag, keep the
// FlatBag in flight while its shard works through the queue, then retire it.
// Slots retire in scrambled order (a fixed LCG) because shards drain at
// different rates, so freed buffers are scattered across the heap exactly as
// in production — the regime where the general allocator coalesces and
// re-splits chunks on every cycle while the arena just pops a freelist. The
// only difference between the two passes is where buffers come from.
double IngestPass(const BagSequence& stream, int iterations,
                  std::size_t window, BufferArena* arena, double* checksum) {
  std::vector<FlatBag> in_flight(window);
  double acc = 0.0;
  std::uint64_t lcg = 0x2545F4914F6CDD1DULL;
  const auto start = std::chrono::steady_clock::now();
  for (int it = 0; it < iterations; ++it) {
    const Bag& bag = stream[static_cast<std::size_t>(it) % stream.size()];
    FlatBag flat = bench::Unwrap(FlatBag::FromBag(bag, arena), "ingest");
    acc += flat.data()[0];
    // Retire a pseudo-random slot: releases its buffer (to the arena when
    // one is attached) — the producer/consumer cycle of a shard queue.
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    in_flight[static_cast<std::size_t>((lcg >> 33) % window)] =
        std::move(flat);
  }
  const auto stop = std::chrono::steady_clock::now();
  *checksum += acc;
  return Seconds(start, stop);
}

// The old split signature layout (separate center and weight vectors), kept
// here as the baseline the packed single-buffer layout replaced.
struct SplitSignature {
  std::vector<double> centers;
  std::vector<double> weights;
};

int Main(int argc, char** argv) {
  const std::size_t bag_size =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 256;
  const std::size_t dim =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 8;
  const int repeats = argc > 3 ? std::atoi(argv[3]) : 50;

  bench::PrintHeader(
      "micro_flatbag: nested vs flat bag storage",
      "pairwise kernels, k-means quantization, detector ingestion");
  std::printf("bag_size=%zu dim=%zu repeats=%d\n\n", bag_size, dim, repeats);

  Rng rng(2025);
  Point mean(dim, 0.0);
  const GaussianMixture mix = GaussianMixture::Isotropic(mean, 1.0);
  const Bag bag = mix.SampleBag(bag_size, &rng);
  const FlatBag flat = bench::Unwrap(FlatBag::FromBag(bag), "FromBag");

  std::vector<Row> rows;

  // 1) Raw pairwise-distance sweep (the shape of every EMD cost matrix and
  // k-means assignment pass).
  {
    Row row;
    row.name = "pairwise_sq_distance";
    double nested_sink = 0.0;
    double flat_sink = 0.0;
    auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r) nested_sink += PairwiseNested(bag);
    auto stop = std::chrono::steady_clock::now();
    row.nested_seconds = Seconds(start, stop);
    start = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r) flat_sink += PairwiseFlat(flat.view());
    stop = std::chrono::steady_clock::now();
    row.flat_seconds = Seconds(start, stop);
    // Identical operations in identical order: the sums must match bitwise.
    if (nested_sink != flat_sink) {
      std::fprintf(stderr, "FATAL: nested/flat pairwise sums diverged\n");
      return 1;
    }
    row.speedup = row.nested_seconds / row.flat_seconds;
    rows.push_back(row);
  }

  // 2) k-means quantization: nested input (validate + flatten every call,
  // then quantize) vs flat input (flattened once upstream).
  {
    Row row;
    row.name = "kmeans_quantize";
    KMeansOptions options;
    options.k = 8;
    options.seed = 3;
    auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r) {
      const FlatBag each = bench::Unwrap(FlatBag::FromBag(bag), "flatten");
      bench::Unwrap(KMeansQuantize(each.view(), options), "kmeans nested");
    }
    auto stop = std::chrono::steady_clock::now();
    row.nested_seconds = Seconds(start, stop);
    start = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r) {
      bench::Unwrap(KMeansQuantize(flat.view(), options), "kmeans flat");
    }
    stop = std::chrono::steady_clock::now();
    row.flat_seconds = Seconds(start, stop);
    row.speedup = row.nested_seconds / row.flat_seconds;
    rows.push_back(row);
  }

  // 3) Detector ingestion: a nested stream (flattened once per bag at the
  // Push boundary) vs a pre-flattened stream (zero conversions inside the
  // loop). Confirms the boundary cost is one conversion per bag, after which
  // both paths run the identical flat pipeline.
  {
    Row row;
    row.name = "detector_ingest";
    Rng stream_rng(7);
    BagSequence stream;
    for (std::size_t t = 0; t < 32; ++t) {
      stream.push_back(mix.SampleBag(bag_size / 4, &stream_rng));
    }
    const FlatBagSequence flat_stream =
        bench::Unwrap(FlattenSequence(stream), "FlattenSequence");
    DetectorOptions options;
    options.tau = 4;
    options.tau_prime = 4;
    options.bootstrap.replicates = 0;
    options.signature.k = 4;
    auto detector_owner =
        bench::Unwrap(BagStreamDetector::Create(options), "create");
    BagStreamDetector& detector = *detector_owner;
    const int ingest_repeats = std::max(1, repeats / 10);
    auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < ingest_repeats; ++r) {
      bench::Unwrap(detector.Run(stream), "nested run");
    }
    auto stop = std::chrono::steady_clock::now();
    row.nested_seconds = Seconds(start, stop);
    start = std::chrono::steady_clock::now();
    for (int r = 0; r < ingest_repeats; ++r) {
      bench::Unwrap(detector.Run(flat_stream), "flat run");
    }
    stop = std::chrono::steady_clock::now();
    row.flat_seconds = Seconds(start, stop);
    row.speedup = row.nested_seconds / row.flat_seconds;
    rows.push_back(row);
  }

  std::vector<MemRow> mem_rows;

  // 4) Arena vs malloc ingest: the steady-state flatten/retire cycle of the
  // engine's shard queues — a realistic queue depth of bags in flight and
  // bag sizes spread across several size classes (real streams are not
  // uniform), which is exactly the regime where the general allocator falls
  // off its per-thread fast path while the arena keeps popping freelists.
  {
    MemRow row;
    row.name = "arena_ingest";
    Rng ingest_rng(11);
    // Fixed geometry for this section (independent of the CLI dims): 4-d
    // bags of 36..96 points, i.e. 1.1-3 KB buffers. Large enough that every
    // size misses the allocator's per-thread cache, small enough that the
    // flatten copy does not drown the allocation cost being measured.
    Point ingest_mean(4, 0.0);
    const GaussianMixture ingest_mix =
        GaussianMixture::Isotropic(ingest_mean, 1.0);
    BagSequence stream;
    for (std::size_t t = 0; t < 64; ++t) {
      stream.push_back(ingest_mix.SampleBag(36 + 4 * (t % 16), &ingest_rng));
    }
    const std::size_t window = 128;
    const int iterations = std::max(4000, repeats * 800);
    BufferArena arena;
    double malloc_sum = 0.0;
    double arena_sum = 0.0;
    // Warm both paths once (page faults, arena freelist fill).
    IngestPass(stream, iterations / 4, window, nullptr, &malloc_sum);
    IngestPass(stream, iterations / 4, window, &arena, &arena_sum);
    malloc_sum = arena_sum = 0.0;
    // Alternate the two passes and keep each side's best time, so transient
    // container noise (frequency shifts, background work) cannot poison one
    // side of the ratio.
    row.baseline_seconds = 1e100;
    row.pooled_seconds = 1e100;
    double malloc_pass_sum = 0.0;
    double arena_pass_sum = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      malloc_pass_sum = 0.0;
      arena_pass_sum = 0.0;
      row.baseline_seconds = std::min(
          row.baseline_seconds,
          IngestPass(stream, iterations, window, nullptr, &malloc_pass_sum));
      row.pooled_seconds = std::min(
          row.pooled_seconds,
          IngestPass(stream, iterations, window, &arena, &arena_pass_sum));
    }
    // Identical bags in identical order: the checksums must match bitwise.
    if (malloc_pass_sum != arena_pass_sum) {
      std::fprintf(stderr, "FATAL: malloc/arena ingest checksums diverged\n");
      return 1;
    }
    row.speedup = row.baseline_seconds / row.pooled_seconds;
    mem_rows.push_back(row);
  }

  // 5) Packed vs split signature build: a detector window's worth of
  // signatures built and alive together per round (the way windows and batch
  // analyses actually hold them), as one (K*d + K) buffer each (today's
  // layout) against the historical two-vector layout — twice the
  // allocations, half the locality.
  {
    Rng sig_rng(13);
    const std::size_t k = 8;
    const std::size_t sig_dim = dim;
    const std::size_t batch = 64;  // Signatures alive simultaneously.
    std::vector<double> source_centers(k * sig_dim);
    std::vector<double> source_weights(k);
    for (double& v : source_centers) v = sig_rng.Uniform(-2.0, 2.0);
    for (double& w : source_weights) w = sig_rng.Uniform(0.5, 4.0);
    const int rounds = std::max(200, repeats * 10);

    double split_sum = 0.0;
    const auto split_start = std::chrono::steady_clock::now();
    for (int it = 0; it < rounds; ++it) {
      std::vector<SplitSignature> window(batch);
      for (SplitSignature& split : window) {
        split.centers.reserve(k * sig_dim);
        split.weights.reserve(k);
        for (std::size_t c = 0; c < k; ++c) {
          split.centers.insert(split.centers.end(),
                               source_centers.data() + c * sig_dim,
                               source_centers.data() + (c + 1) * sig_dim);
          split.weights.push_back(source_weights[c]);
        }
        split_sum += split.centers[0] + split.weights.back();
      }
    }
    const auto split_stop = std::chrono::steady_clock::now();

    // The production assembly path: SignatureAssembler, exactly what the
    // quantizers run after their final assignment pass.
    double packed_sum = 0.0;
    const auto packed_start = std::chrono::steady_clock::now();
    for (int it = 0; it < rounds; ++it) {
      std::vector<Signature> window;
      window.reserve(batch);
      for (std::size_t s = 0; s < batch; ++s) {
        SignatureAssembler assembler(k, sig_dim);
        for (std::size_t c = 0; c < k; ++c) {
          assembler.Add(PointView(source_centers.data() + c * sig_dim, sig_dim),
                        source_weights[c]);
        }
        window.push_back(assembler.Finish());
        packed_sum += window.back().center(0)[0] + window.back().weight(k - 1);
      }
    }
    const auto packed_stop = std::chrono::steady_clock::now();

    MemRow packed;
    packed.name = "packed_signature_build";
    packed.baseline_seconds = Seconds(split_start, split_stop);
    packed.pooled_seconds = Seconds(packed_start, packed_stop);
    packed.speedup = packed.baseline_seconds / packed.pooled_seconds;
    mem_rows.push_back(packed);

    // One timed pass each over identical inputs: both layouts read the same
    // first-center / last-weight values, so the checksums must match
    // bitwise — and consuming split_sum here also keeps the baseline loop
    // from being dead-code eliminated.
    if (split_sum != packed_sum) {
      std::fprintf(stderr, "FATAL: split/packed checksums diverged\n");
      return 1;
    }
  }

  for (const Row& row : rows) {
    std::printf("%-22s nested %9.4fs   flat %9.4fs   flat speedup %.2fx\n",
                row.name, row.nested_seconds, row.flat_seconds, row.speedup);
  }
  for (const MemRow& row : mem_rows) {
    std::printf(
        "%-28s malloc %9.4fs   pooled %9.4fs   pooled speedup %.2fx\n",
        row.name, row.baseline_seconds, row.pooled_seconds, row.speedup);
  }

  std::FILE* json = std::fopen("BENCH_flatbag.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "FATAL: cannot open BENCH_flatbag.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"micro_flatbag\",\n"
               "  \"bag_size\": %zu,\n  \"dim\": %zu,\n  \"repeats\": %d,\n"
               "  \"runs\": [\n",
               bag_size, dim, repeats);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"nested_seconds\": %.6f, "
                 "\"flat_seconds\": %.6f, \"flat_speedup\": %.3f}%s\n",
                 r.name, r.nested_seconds, r.flat_seconds, r.speedup,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"memory_runs\": [\n");
  for (std::size_t i = 0; i < mem_rows.size(); ++i) {
    const MemRow& r = mem_rows[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"baseline_seconds\": %.6f, "
                 "\"pooled_seconds\": %.6f, \"pooled_speedup\": %.3f}%s\n",
                 r.name, r.baseline_seconds, r.pooled_seconds, r.speedup,
                 i + 1 < mem_rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_flatbag.json\n");
  return 0;
}

}  // namespace
}  // namespace bagcpd

int main(int argc, char** argv) { return bagcpd::Main(argc, argv); }
