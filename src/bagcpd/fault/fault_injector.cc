#include "bagcpd/fault/fault_injector.h"

#include <cmath>
#include <cstdlib>
#include <vector>

#include "bagcpd/common/number_text.h"
#include "bagcpd/common/rng.h"

namespace bagcpd {
namespace fault {

namespace internal {
std::atomic<bool> g_fault_armed{false};
}  // namespace internal

namespace {

const char* const kPointNames[kFaultPointCount] = {
    "emd.solve",  "sinkhorn.iterate", "arena.alloc", "spill.write",
    "spill.read", "ckpt.import",      "detector.push",
};

std::vector<std::string> SplitColons(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (true) {
    const std::size_t colon = text.find(':', pos);
    if (colon == std::string::npos) {
      parts.push_back(text.substr(pos));
      return parts;
    }
    parts.push_back(text.substr(pos, colon - pos));
    pos = colon + 1;
  }
}

Result<std::uint64_t> ParseCount(const std::string& spec,
                                 const std::string& value) {
  if (value.empty()) {
    return Status::Invalid("fault spec '" + spec + "': missing count");
  }
  std::uint64_t parsed = 0;
  const NumberParse got = ParseUint64(value, &parsed);
  if (got == NumberParse::kOk) return parsed;
  return Status::Invalid("fault spec '" + spec + "': '" + value +
                         (got == NumberParse::kOutOfRange
                              ? "' is out of range (at most 2^64 - 1)"
                              : "' is not a non-negative integer"));
}

}  // namespace

const char* FaultPointName(FaultPoint point) {
  return kPointNames[static_cast<int>(point)];
}

Result<FaultPoint> ParseFaultPoint(const std::string& name) {
  for (std::size_t i = 0; i < kFaultPointCount; ++i) {
    if (name == kPointNames[i]) return static_cast<FaultPoint>(i);
  }
  return Status::Invalid(
      "unknown fault point '" + name +
      "' (known: emd.solve, sinkhorn.iterate, arena.alloc, spill.write, "
      "spill.read, ckpt.import, detector.push)");
}

Status InjectedFaultError(FaultPoint point) {
  return Status::Internal(std::string("fault-injected: ") +
                          FaultPointName(point));
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* instance = new FaultInjector();
  return *instance;
}

Status FaultInjector::ParseSpec(const std::string& spec, FaultPoint* out_point,
                                Mode* out_mode, std::uint64_t* out_arg,
                                std::uint64_t* out_threshold,
                                std::uint64_t* out_seed) {
  const std::vector<std::string> parts = SplitColons(spec);
  if (parts.size() < 3) {
    return Status::Invalid("fault spec '" + spec +
                           "': expected point:mode:arg[:seed]");
  }
  BAGCPD_ASSIGN_OR_RETURN(FaultPoint point, ParseFaultPoint(parts[0]));
  const std::string& mode_name = parts[1];
  Mode mode;
  std::uint64_t arg = 0;
  std::uint64_t threshold = 0;
  std::uint64_t seed = 0;
  if (mode_name == "nth" || mode_name == "every-n") {
    if (parts.size() != 3) {
      return Status::Invalid("fault spec '" + spec + "': " + mode_name +
                             " takes exactly one argument");
    }
    mode = mode_name == "nth" ? Mode::kNth : Mode::kEveryN;
    BAGCPD_ASSIGN_OR_RETURN(arg, ParseCount(spec, parts[2]));
    if (arg == 0) {
      return Status::Invalid("fault spec '" + spec + "': " + mode_name +
                             " argument must be >= 1");
    }
  } else if (mode_name == "seeded-p") {
    if (parts.size() > 4) {
      return Status::Invalid("fault spec '" + spec +
                             "': seeded-p takes probability[:seed]");
    }
    mode = Mode::kSeededP;
    double p = 0.0;
    if (ParseDouble(parts[2], &p) != NumberParse::kOk || !std::isfinite(p) ||
        p < 0.0 || p > 1.0) {
      return Status::Invalid("fault spec '" + spec + "': '" + parts[2] +
                             "' is not a probability in [0, 1]");
    }
    // P scaled to a [0, 2^64) threshold the mixed hash compares against;
    // p == 1.0 must always fire, so it saturates to the max.
    threshold = p >= 1.0 ? ~std::uint64_t{0}
                         : static_cast<std::uint64_t>(
                               p * 18446744073709551616.0 /* 2^64 */);
    if (parts.size() == 4) {
      BAGCPD_ASSIGN_OR_RETURN(seed, ParseCount(spec, parts[3]));
    }
  } else {
    return Status::Invalid("fault spec '" + spec + "': unknown mode '" +
                           mode_name + "' (known: nth, every-n, seeded-p)");
  }
  *out_point = point;
  *out_mode = mode;
  *out_arg = arg;
  *out_threshold = threshold;
  *out_seed = seed;
  return Status::OK();
}

Status FaultInjector::ValidateSpec(const std::string& spec) {
  FaultPoint point;
  Mode mode;
  std::uint64_t arg = 0;
  std::uint64_t threshold = 0;
  std::uint64_t seed = 0;
  return ParseSpec(spec, &point, &mode, &arg, &threshold, &seed);
}

Status FaultInjector::ArmFromSpec(const std::string& spec) {
  FaultPoint point;
  Mode mode;
  std::uint64_t arg = 0;
  std::uint64_t threshold = 0;
  std::uint64_t seed = 0;
  BAGCPD_RETURN_NOT_OK(ParseSpec(spec, &point, &mode, &arg, &threshold, &seed));
  std::lock_guard<std::mutex> lock(mu_);
  point_ = point;
  mode_ = mode;
  arg_ = arg;
  threshold_ = threshold;
  seed_ = seed;
  spec_ = spec;
  internal::g_fault_armed.store(true, std::memory_order_relaxed);
  return Status::OK();
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  internal::g_fault_armed.store(false, std::memory_order_relaxed);
  spec_.clear();
}

std::string FaultInjector::armed_spec() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spec_;
}

std::uint64_t FaultInjector::fired_count() const {
  return fired_total_.load(std::memory_order_relaxed);
}

std::uint64_t FaultInjector::fired_count(FaultPoint point) const {
  return fired_by_point_[static_cast<int>(point)].load(
      std::memory_order_relaxed);
}

void FaultInjector::ResetCounters() {
  fired_total_.store(0, std::memory_order_relaxed);
  for (auto& counter : fired_by_point_) {
    counter.store(0, std::memory_order_relaxed);
  }
}

namespace internal {

bool FaultFiresSlow(FaultPoint point, std::uint64_t scope,
                    std::uint64_t count) {
  FaultInjector& injector = FaultInjector::Global();
  bool fires = false;
  {
    std::lock_guard<std::mutex> lock(injector.mu_);
    if (!g_fault_armed.load(std::memory_order_relaxed) ||
        injector.point_ != point) {
      return false;
    }
    switch (injector.mode_) {
      case FaultInjector::Mode::kNth:
        fires = count == injector.arg_;
        break;
      case FaultInjector::Mode::kEveryN:
        fires = count >= 1 && count % injector.arg_ == 0;
        break;
      case FaultInjector::Mode::kSeededP: {
        // A pure (seed, point, scope, count) hash against the probability
        // threshold: i.i.d.-looking but exactly reproducible, independent of
        // shard/pool scheduling.
        std::uint64_t h = Rng::MixSeed64(
            injector.seed_ ^ (0x9e3779b97f4a7c15ULL *
                              (static_cast<std::uint64_t>(point) + 1)));
        h = Rng::MixSeed64(h ^ scope);
        h = Rng::MixSeed64(h ^ count);
        fires = h < injector.threshold_;
        break;
      }
    }
  }
  if (fires) {
    injector.fired_total_.fetch_add(1, std::memory_order_relaxed);
    injector.fired_by_point_[static_cast<int>(point)].fetch_add(
        1, std::memory_order_relaxed);
  }
  return fires;
}

}  // namespace internal

namespace {

// BAGCPD_FAULT environment arming: lets the drills and CI arm a fault in any
// binary (tools, benches, tests) without plumbing a flag through every
// main(). A malformed value is ignored — the variable is a test/ops hook,
// never a correctness input.
struct EnvArm {
  EnvArm() {
    const char* spec = std::getenv("BAGCPD_FAULT");
    if (spec != nullptr && spec[0] != '\0') {
      FaultInjector::Global().ArmFromSpec(spec).ok();
    }
  }
};
const EnvArm g_env_arm;

}  // namespace

}  // namespace fault
}  // namespace bagcpd
