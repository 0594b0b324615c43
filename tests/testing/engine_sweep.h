// An offline sweep through StreamEngine's own ingest and output paths, for
// tests that compare whole per-key result series: every bag goes in through
// Submit (time step first, round-robin over the keys, so every shard has
// work from the start), then one Flush and one DrainEvents.

#ifndef BAGCPD_TESTS_TESTING_ENGINE_SWEEP_H_
#define BAGCPD_TESTS_TESTING_ENGINE_SWEEP_H_

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "bagcpd/runtime/stream_engine.h"

namespace bagcpd {

/// \brief Feeds `streams` through `engine` and returns each key's step
/// results in time order (an empty series for a key with none). A key
/// listed in `profile_by_key` is submitted under that profile, any other
/// under the default. Fails on the first rejected Submit or the first kError
/// event; other event kinds are dropped. The engine must collect its events
/// (collect_results, no sink).
inline Result<std::map<std::string, std::vector<StepResult>>> SweepEngine(
    StreamEngine& engine, const std::map<std::string, BagSequence>& streams,
    const std::map<std::string, std::string>& profile_by_key = {}) {
  std::size_t max_len = 0;
  for (const auto& [key, bags] : streams) {
    max_len = std::max(max_len, bags.size());
  }
  for (std::size_t t = 0; t < max_len; ++t) {
    for (const auto& [key, bags] : streams) {
      if (t >= bags.size()) continue;
      const auto route = profile_by_key.find(key);
      BAGCPD_RETURN_NOT_OK(engine.Submit(
          key, bags[t],
          route == profile_by_key.end() ? std::string() : route->second));
    }
  }
  engine.Flush();
  std::map<std::string, std::vector<StepResult>> out;
  for (const auto& [key, bags] : streams) out[key];
  for (const EngineEvent& event : engine.DrainEvents()) {
    if (event.kind == EngineEvent::Kind::kError) {
      return Status::Invalid("stream '" + event.stream_id +
                             "' failed: " + event.error.ToString());
    }
    if (event.kind == EngineEvent::Kind::kStep) {
      out[event.stream_id].push_back(event.step);
    }
  }
  return out;
}

}  // namespace bagcpd

#endif  // BAGCPD_TESTS_TESTING_ENGINE_SWEEP_H_
