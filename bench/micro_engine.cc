// Multi-stream engine throughput: K concurrent streams fed through
// StreamEngine::Submit (round-robin, time step first), then Flush and
// DrainEvents, at several shard counts, reporting aggregate bags/sec and
// streams/sec. Emits BENCH_engine.json next to the binary's working
// directory.
//
//   micro_engine [num_streams] [bags_per_stream] [thread_list]
//   e.g. micro_engine 64 40 1,2,4,8

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bagcpd/common/rng.h"
#include "bagcpd/data/gmm.h"
#include "bagcpd/runtime/stream_engine.h"
#include "bench_util.h"

namespace bagcpd {
namespace {

DetectorOptions BenchDetector() {
  DetectorOptions options;
  options.tau = 4;
  options.tau_prime = 4;
  options.bootstrap.replicates = 50;
  options.signature.method = SignatureMethod::kKMeans;
  options.signature.k = 4;
  return options;
}

std::map<std::string, BagSequence> MakeStreams(std::size_t num_streams,
                                               std::size_t bags_per_stream) {
  std::map<std::string, BagSequence> streams;
  Rng base(2024);
  const GaussianMixture before = GaussianMixture::Isotropic({0.0, 0.0}, 0.5);
  const GaussianMixture after = GaussianMixture::Isotropic({4.0, 4.0}, 0.5);
  for (std::size_t s = 0; s < num_streams; ++s) {
    Rng rng = base.Fork(s);
    BagSequence bags;
    bags.reserve(bags_per_stream);
    for (std::size_t t = 0; t < bags_per_stream; ++t) {
      const GaussianMixture& mix =
          (s % 2 == 0 && t >= bags_per_stream / 2) ? after : before;
      bags.push_back(mix.SampleBag(20, &rng));
    }
    char key[32];
    std::snprintf(key, sizeof(key), "stream-%04zu", s);
    streams.emplace(key, std::move(bags));
  }
  return streams;
}

struct Row {
  std::size_t threads = 0;
  double seconds = 0.0;
  double bags_per_sec = 0.0;
  double streams_per_sec = 0.0;
  double speedup = 0.0;
  std::uint64_t results = 0;
  // Aggregated shard-arena counters after the run, so CI can watch pool
  // efficiency (hit rate, dropped releases) over time alongside throughput.
  BufferArenaStats arena;
  // Enqueue→process queueing latency over every processed submission.
  EngineLatencyStats latency;
};

double ArenaHitRate(const BufferArenaStats& stats) {
  return stats.acquires > 0 ? static_cast<double>(stats.pool_hits) /
                                  static_cast<double>(stats.acquires)
                            : 0.0;
}

int Main(int argc, char** argv) {
  const std::size_t num_streams =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 64;
  const std::size_t bags_per_stream =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 40;
  std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  if (argc > 3) {
    thread_counts.clear();
    for (char* tok = std::strtok(argv[3], ","); tok != nullptr;
         tok = std::strtok(nullptr, ",")) {
      thread_counts.push_back(static_cast<std::size_t>(std::atoi(tok)));
    }
  }

  bench::PrintHeader(
      "micro_engine: concurrent multi-stream throughput",
      "StreamEngine Submit + Flush + DrainEvents, aggregate bags/sec vs. "
      "shard count");
  std::printf("streams=%zu bags/stream=%zu bag_size=20 replicates=50\n\n",
              num_streams, bags_per_stream);

  const std::map<std::string, BagSequence> streams =
      MakeStreams(num_streams, bags_per_stream);
  const double total_bags =
      static_cast<double>(num_streams) * static_cast<double>(bags_per_stream);

  std::vector<Row> rows;
  double baseline_seconds = 0.0;
  for (std::size_t threads : thread_counts) {
    StreamEngineOptions options;
    options.num_shards = threads;
    options.detector = BenchDetector();
    options.seed = 7;
    auto engine_owner =
        bench::Unwrap(StreamEngine::Create(options), "engine init");
    StreamEngine& engine = *engine_owner;

    const auto start = std::chrono::steady_clock::now();
    for (std::size_t t = 0; t < bags_per_stream; ++t) {
      for (const auto& [key, bags] : streams) {
        bench::UnwrapStatus(engine.Submit(key, bags[t]), "Submit");
      }
    }
    engine.Flush();
    const std::vector<EngineEvent> events = engine.DrainEvents();
    const auto stop = std::chrono::steady_clock::now();
    for (const EngineEvent& event : events) {
      if (event.kind == EngineEvent::Kind::kError) {
        std::fprintf(stderr, "FATAL: stream %s failed: %s\n",
                     event.stream_id.c_str(), event.error.ToString().c_str());
        return 1;
      }
    }
    const double seconds =
        std::chrono::duration<double>(stop - start).count();

    Row row;
    row.threads = threads;
    row.seconds = seconds;
    row.bags_per_sec = total_bags / seconds;
    row.streams_per_sec = static_cast<double>(num_streams) / seconds;
    row.results = engine.result_count();
    row.arena = engine.arena_stats();
    row.latency = engine.latency_stats();
    if (baseline_seconds == 0.0) baseline_seconds = seconds;
    row.speedup = baseline_seconds / seconds;
    rows.push_back(row);
    std::printf(
        "threads=%2zu  %8.3fs  %10.0f bags/s  %8.1f streams/s  speedup %.2fx"
        "  arena hit %.1f%%  queue mean %.1fus max %.1fus\n",
        row.threads, row.seconds, row.bags_per_sec, row.streams_per_sec,
        row.speedup, 100.0 * ArenaHitRate(row.arena),
        row.latency.mean_ns() / 1e3,
        static_cast<double>(row.latency.max_ns) / 1e3);
  }

  std::FILE* json = std::fopen("BENCH_engine.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "FATAL: cannot open BENCH_engine.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"micro_engine\",\n"
               "  \"streams\": %zu,\n  \"bags_per_stream\": %zu,\n"
               "  \"runs\": [\n",
               num_streams, bags_per_stream);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(json,
                 "    {\"threads\": %zu, \"seconds\": %.6f, "
                 "\"bags_per_sec\": %.1f, \"streams_per_sec\": %.3f, "
                 "\"speedup_vs_first\": %.3f, \"results\": %llu,\n"
                 "     \"arena\": {\"acquires\": %llu, \"pool_hits\": %llu, "
                 "\"hit_rate\": %.4f, \"releases\": %llu, "
                 "\"dropped_releases\": %llu, \"pooled_buffers\": %zu, "
                 "\"pooled_doubles\": %zu},\n"
                 "     \"queue_latency\": {\"samples\": %llu, "
                 "\"mean_ns\": %.1f, \"max_ns\": %llu}}%s\n",
                 r.threads, r.seconds, r.bags_per_sec, r.streams_per_sec,
                 r.speedup, static_cast<unsigned long long>(r.results),
                 static_cast<unsigned long long>(r.arena.acquires),
                 static_cast<unsigned long long>(r.arena.pool_hits),
                 ArenaHitRate(r.arena),
                 static_cast<unsigned long long>(r.arena.releases),
                 static_cast<unsigned long long>(r.arena.dropped_releases),
                 r.arena.pooled_buffers, r.arena.pooled_doubles,
                 static_cast<unsigned long long>(r.latency.samples),
                 r.latency.mean_ns(),
                 static_cast<unsigned long long>(r.latency.max_ns),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_engine.json\n");
  return 0;
}

}  // namespace
}  // namespace bagcpd

int main(int argc, char** argv) { return bagcpd::Main(argc, argv); }
