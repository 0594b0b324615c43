#include "bagcpd/api/spec.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <type_traits>

#include "bagcpd/api/registry.h"
#include "bagcpd/common/number_text.h"

namespace bagcpd {
namespace api {

namespace {

// Key names that more than one grammar (or a fluent setter) refers to.
constexpr char kSeedKey[] = "seed";
constexpr char kShardsKey[] = "shards";
constexpr char kEmdKey[] = "emd";

std::string Trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

// `emd-fallback` spells its flag "exact" (re-solve a failed approximate pair
// with the exact solver) or "none" (surface the failure).
template <typename Flag>  // bool, or const bool when echoing
struct ExactOrNone {
  Flag& exact;
};
template <typename Flag>
ExactOrNone(Flag&) -> ExactOrNone<Flag>;

// The value codec: parses `value` into a field of type T, leaving it
// unchanged on failure. Numbers follow the rule of common/number_text.h: an
// out-of-range literal (for the field's own type too) is rejected, never
// wrapped.
template <typename T>
Status ParseValue(const std::string& key, const std::string& value, T* out) {
  const auto bad = [&](const char* expected) {
    return Status::Invalid("key '" + key + "': expected " + expected +
                           ", got '" + value + "'");
  };
  if constexpr (std::is_same_v<T, bool>) {
    if (value != "true" && value != "1" && value != "false" && value != "0") {
      return bad("true/false");
    }
    *out = value == "true" || value == "1";
  } else if constexpr (std::is_integral_v<T>) {
    // Read at 64 bits, then refused unless it survives narrowing to T.
    std::conditional_t<std::is_signed_v<T>, std::int64_t, std::uint64_t>
        parsed = 0;
    NumberParse got;
    if constexpr (std::is_signed_v<T>) {
      got = ParseInt64(value, &parsed);
    } else {
      got = ParseUint64(value, &parsed);
    }
    if (got != NumberParse::kOk || static_cast<T>(parsed) != parsed) {
      return bad(std::is_signed_v<T> ? "an integer" : "a non-negative integer");
    }
    *out = static_cast<T>(parsed);
  } else if constexpr (std::is_same_v<T, double>) {
    double parsed = 0.0;
    if (ParseDouble(value, &parsed) != NumberParse::kOk ||
        !std::isfinite(parsed)) {
      return bad("a finite number");
    }
    *out = parsed;
  } else if constexpr (std::is_enum_v<T>) {
    BAGCPD_ASSIGN_OR_RETURN(*out, Component<T>::Parse(value));
  } else if constexpr (std::is_same_v<T, std::string>) {
    *out = value;  // A path or fault spec; it cannot contain a comma.
  } else if constexpr (std::is_same_v<T, EmdSolverOptions>) {
    // A full solver spec ("exact", "sinkhorn:0.05:200:1e-8", "sliced:32"),
    // validated as a whole by ParseEmdSolverSpec. It replaces everything but
    // heap_at and the fallback flag, which have their own keys (so either key
    // order lands on the same options), and fault_scope, which the owning
    // detector stamps.
    BAGCPD_ASSIGN_OR_RETURN(EmdSolverOptions parsed, ParseEmdSolverSpec(value));
    parsed.heap_at = out->heap_at;
    parsed.fallback_exact = out->fallback_exact;
    parsed.fault_scope = out->fault_scope;
    *out = parsed;
  } else {
    static_assert(std::is_same_v<T, ExactOrNone<bool>>);
    if (value != "exact" && value != "none") return bad("exact/none");
    out->exact = value == "exact";
  }
  return Status::OK();
}

// The canonical echo of a field; ParseValue reads it back exactly.
template <typename T>
std::string FormatValue(const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(value);
  } else if constexpr (std::is_same_v<T, double>) {
    return FormatDoubleShortest(value);
  } else if constexpr (std::is_enum_v<T>) {
    return Component<T>::Name(value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return value;
  } else if constexpr (std::is_same_v<T, EmdSolverOptions>) {
    return EmdSolverSpecString(value);
  } else {
    return value.exact ? "exact" : "none";
  }
}

// ---------------------------------------------------------------------------
// The key tables. Each Visit*Keys function is the whole grammar of one spec:
// one entry per key, in canonical echo order, naming the options field the
// key parses into and echoes from (its type picks the codec), whether the
// echo includes it, and, for detector keys, its class. Parsing, the fluent
// string setters, the echo, the unknown-key message and the checkpoint gate
// all walk these tables. `Options` is const when echoing.
// ---------------------------------------------------------------------------

struct Entry {
  const char* name;
  bool echoed = true;
  KeyClass key_class = KeyClass::kResult;
};

// Enum keys are named by the registry: Component<E>::kKind is the key name.
template <typename Visitor, typename E>
void EnumKey(Visitor& v, E& field) {
  v({Component<std::remove_const_t<E>>::kKind}, field);
}

// The engine and batch grammars embed this table without `seed`: their own
// `seed` key is the run seed, and detector seeds stay 0 under them.
template <typename Options, typename Visitor>
void VisitDetectorKeys(Options& o, Visitor&& v, bool with_seed = true) {
  EnumKey(v, o.signature.method);
  v({"k"}, o.signature.k);
  v({"bin_width"}, o.signature.bin_width);
  v({"histogram_origin"}, o.signature.histogram_origin);
  v({"normalize"}, o.signature.normalize);
  v({"tau"}, o.tau);
  v({"tau_prime"}, o.tau_prime);
  EnumKey(v, o.score_type);
  EnumKey(v, o.weight_scheme);
  EnumKey(v, o.ground);
  EnumKey(v, o.bootstrap.method);
  v({"replicates"}, o.bootstrap.replicates);
  v({"alpha"}, o.bootstrap.alpha);
  v({"distance_floor"}, o.info.distance_floor);
  v({kEmdKey}, o.emd);
  // The exact solver's dense/heap Dijkstra crossover (0 = always dense):
  // results are bitwise-identical at any value.
  v({"emd-heap-at", true, KeyClass::kPerformance}, o.emd.heap_at);
  // Echoed only when set, so configs that never enable the fallback echo
  // (and checkpoint) as they did before the key existed.
  v({"emd-fallback", o.emd.fallback_exact}, ExactOrNone{o.emd.fallback_exact});
  if (with_seed) v({kSeedKey}, o.seed);
}

template <typename Options, typename DetectorOpts, typename Visitor>
void VisitEngineKeys(Options& o, DetectorOpts& detector, Visitor&& v) {
  v({kShardsKey}, o.num_shards);
  v({"queue"}, o.shard_queue_capacity);
  v({"collect"}, o.collect_results);
  v({"max_idle"}, o.max_idle_submissions);
  // The ENGINE seed: per-stream seeds derive from it, the stream key, and
  // the profile name.
  v({kSeedKey}, o.seed);
  // Spill and fault-containment keys echo only when set, so configs that
  // never use them echo as before. A budget, GC, backoff or snapshot key
  // set without the key it needs still echoes: Build() rejects that config,
  // and so must it reject the echo.
  v({"spill_dir", !o.spill_directory.empty()}, o.spill_directory);
  v({"spill_budget", o.spill_resident_bytes > 0}, o.spill_resident_bytes);
  v({"spill_gc", o.spill_gc_submissions > 0}, o.spill_gc_submissions);
  v({"fault_budget", o.max_stream_faults > 0}, o.max_stream_faults);
  v({"fault_backoff", o.fault_backoff_submissions > 0},
    o.fault_backoff_submissions);
  v({"snapshot_every", o.snapshot_interval > 0}, o.snapshot_interval);
  v({"fault", !o.fault.empty()}, o.fault);  // "point:mode:arg[:seed]"
  VisitDetectorKeys(detector, v, /*with_seed=*/false);
}

template <typename Options, typename DetectorOpts, typename Visitor>
void VisitBatchKeys(Options& o, DetectorOpts& detector, Visitor&& v) {
  v({kShardsKey}, o.num_shards);
  v({kSeedKey}, o.seed);  // The run seed, as under an engine.
  VisitDetectorKeys(detector, v, /*with_seed=*/false);
}

// Parses `value` into the field of the entry named `key`. `visit` runs one of
// the tables above over a spec's options. An unknown key fails with the
// names of every key of that grammar.
template <typename VisitFn>
Status SetKey(VisitFn&& visit, const std::string& key,
              const std::string& value) {
  bool found = false;
  Status status;
  std::string known;
  visit([&](const Entry& entry, auto&& field) {
    known += (known.empty() ? "" : ", ") + std::string(entry.name);
    if (found || key != entry.name) return;
    found = true;
    status = ParseValue(key, value, &field);
  });
  if (!found) {
    return Status::Invalid("unknown key '" + key + "' (known: " + known + ")");
  }
  return status;
}

// The one tokenizer of all three grammars: comma-separated key=value tokens,
// trimmed; empty tokens (trailing or doubled commas) are skipped, and later
// occurrences of a key overwrite earlier ones.
template <typename VisitFn>
Status ParseKeyValues(const std::string& text, VisitFn&& visit) {
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string token = Trim(text.substr(pos, comma - pos));
    pos = comma + 1;
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return Status::Invalid("malformed token '" + token +
                             "' (expected key=value)");
    }
    BAGCPD_RETURN_NOT_OK(SetKey(visit, Trim(token.substr(0, eq)),
                                Trim(token.substr(eq + 1))));
  }
  return Status::OK();
}

// The canonical "key=value,..." echo, optionally of the result keys only.
template <typename VisitFn>
std::string EchoKeyValues(VisitFn&& visit, bool result_keys_only = false) {
  std::string out;
  visit([&](const Entry& entry, const auto& field) {
    if (!entry.echoed ||
        (result_keys_only && entry.key_class != KeyClass::kResult)) {
      return;
    }
    out += (out.empty() ? "" : ",") + std::string(entry.name) + "=" +
           FormatValue(field);
  });
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// DetectorSpec
// ---------------------------------------------------------------------------

DetectorSpec& DetectorSpec::Tau(std::size_t tau) {
  options_.tau = tau;
  return *this;
}

DetectorSpec& DetectorSpec::TauPrime(std::size_t tau_prime) {
  options_.tau_prime = tau_prime;
  return *this;
}

DetectorSpec& DetectorSpec::Score(ScoreType type) {
  options_.score_type = type;
  return *this;
}

DetectorSpec& DetectorSpec::Score(const std::string& name) {
  return SetDeferred(Component<ScoreType>::kKind, name);
}

DetectorSpec& DetectorSpec::Weights(WeightScheme scheme) {
  options_.weight_scheme = scheme;
  return *this;
}

DetectorSpec& DetectorSpec::Weights(const std::string& name) {
  return SetDeferred(Component<WeightScheme>::kKind, name);
}

DetectorSpec& DetectorSpec::Ground(GroundDistance kind) {
  options_.ground = kind;
  return *this;
}

DetectorSpec& DetectorSpec::Ground(const std::string& name) {
  return SetDeferred(Component<GroundDistance>::kKind, name);
}

DetectorSpec& DetectorSpec::DistanceFloor(double floor) {
  options_.info.distance_floor = floor;
  return *this;
}

DetectorSpec& DetectorSpec::Emd(EmdSolverKind kind) {
  options_.emd.kind = kind;
  return *this;
}

DetectorSpec& DetectorSpec::Emd(const EmdSolverOptions& options) {
  options_.emd = options;
  return *this;
}

DetectorSpec& DetectorSpec::Emd(const std::string& spec) {
  return SetDeferred(kEmdKey, spec);
}

DetectorSpec& DetectorSpec::EmdHeapAt(std::size_t k_plus_l) {
  options_.emd.heap_at = k_plus_l;
  return *this;
}

DetectorSpec& DetectorSpec::EmdFallbackExact(bool fallback) {
  options_.emd.fallback_exact = fallback;
  return *this;
}

DetectorSpec& DetectorSpec::Quantizer(SignatureMethod method) {
  options_.signature.method = method;
  return *this;
}

DetectorSpec& DetectorSpec::Quantizer(const std::string& name) {
  return SetDeferred(Component<SignatureMethod>::kKind, name);
}

DetectorSpec& DetectorSpec::K(std::size_t k) {
  options_.signature.k = k;
  return *this;
}

DetectorSpec& DetectorSpec::BinWidth(double width) {
  options_.signature.bin_width = width;
  return *this;
}

DetectorSpec& DetectorSpec::HistogramOrigin(double origin) {
  options_.signature.histogram_origin = origin;
  return *this;
}

DetectorSpec& DetectorSpec::Normalize(bool normalize) {
  options_.signature.normalize = normalize;
  return *this;
}

DetectorSpec& DetectorSpec::Replicates(int replicates) {
  options_.bootstrap.replicates = replicates;
  return *this;
}

DetectorSpec& DetectorSpec::Alpha(double alpha) {
  options_.bootstrap.alpha = alpha;
  return *this;
}

DetectorSpec& DetectorSpec::Bootstrap(BootstrapMethod method) {
  options_.bootstrap.method = method;
  return *this;
}

DetectorSpec& DetectorSpec::Bootstrap(const std::string& name) {
  return SetDeferred(Component<BootstrapMethod>::kKind, name);
}

DetectorSpec& DetectorSpec::Seed(std::uint64_t seed) {
  options_.seed = seed;
  return *this;
}

DetectorSpec& DetectorSpec::SetDeferred(const char* key,
                                        const std::string& value) {
  const Status status = SetKey(
      [this](auto&& v) { VisitDetectorKeys(options_, v); }, key, value);
  if (!status.ok() && error_.ok()) error_ = status;
  return *this;
}

Result<DetectorSpec> DetectorSpec::FromKeyValues(const std::string& text) {
  DetectorSpec spec;
  BAGCPD_RETURN_NOT_OK(ParseKeyValues(
      text, [&spec](auto&& v) { VisitDetectorKeys(spec.options_, v); }));
  return spec;
}

DetectorSpec DetectorSpec::FromOptions(const DetectorOptions& options) {
  DetectorSpec spec;
  spec.options_ = options;
  return spec;
}

std::vector<SpecKey> DetectorSpec::Keys() {
  std::vector<SpecKey> keys;
  const DetectorOptions options;
  VisitDetectorKeys(options, [&keys](const Entry& entry, const auto&) {
    keys.push_back({entry.name, entry.key_class});
  });
  return keys;
}

Result<DetectorOptions> DetectorSpec::Build() const {
  BAGCPD_RETURN_NOT_OK(error_);
  BAGCPD_RETURN_NOT_OK(ValidateDetectorOptions(options_));
  return options_;
}

Result<std::unique_ptr<BagStreamDetector>> DetectorSpec::Create() const {
  BAGCPD_ASSIGN_OR_RETURN(DetectorOptions options, Build());
  return BagStreamDetector::Create(options);
}

std::string DetectorSpec::ToKeyValues() const {
  return EchoKeyValues([this](auto&& v) { VisitDetectorKeys(options_, v); });
}

std::string DetectorSpec::ResultKeyValues() const {
  return EchoKeyValues([this](auto&& v) { VisitDetectorKeys(options_, v); },
                       /*result_keys_only=*/true);
}

// ---------------------------------------------------------------------------
// EngineSpec
// ---------------------------------------------------------------------------

Result<EngineSpec> EngineSpec::FromKeyValues(const std::string& text) {
  EngineSpec spec;
  BAGCPD_RETURN_NOT_OK(ParseKeyValues(text, [&spec](auto&& v) {
    VisitEngineKeys(spec.options_, spec.detector_.options_, v);
  }));
  return spec;
}

std::string EngineSpec::ToKeyValues() const {
  return EchoKeyValues([this](auto&& v) {
    VisitEngineKeys(options_, detector_.options_, v);
  });
}

EngineSpec& EngineSpec::NumShards(std::size_t num_shards) {
  options_.num_shards = num_shards;
  return *this;
}

EngineSpec& EngineSpec::QueueCapacity(std::size_t capacity) {
  options_.shard_queue_capacity = capacity;
  return *this;
}

EngineSpec& EngineSpec::Seed(std::uint64_t seed) {
  options_.seed = seed;
  return *this;
}

EngineSpec& EngineSpec::CollectResults(bool collect) {
  options_.collect_results = collect;
  return *this;
}

EngineSpec& EngineSpec::MaxIdleSubmissions(std::uint64_t max_idle) {
  options_.max_idle_submissions = max_idle;
  return *this;
}

EngineSpec& EngineSpec::Arena(const BufferArenaOptions& arena) {
  options_.arena = arena;
  return *this;
}

EngineSpec& EngineSpec::SpillDirectory(const std::string& directory) {
  options_.spill_directory = directory;
  return *this;
}

EngineSpec& EngineSpec::SpillBudget(std::size_t bytes) {
  options_.spill_resident_bytes = bytes;
  return *this;
}

EngineSpec& EngineSpec::FaultBudget(std::size_t budget) {
  options_.max_stream_faults = budget;
  return *this;
}

EngineSpec& EngineSpec::FaultBackoff(std::uint64_t submissions) {
  options_.fault_backoff_submissions = submissions;
  return *this;
}

EngineSpec& EngineSpec::SnapshotEvery(std::uint64_t pushes) {
  options_.snapshot_interval = pushes;
  return *this;
}

EngineSpec& EngineSpec::MaxRestoreFailures(std::size_t attempts) {
  options_.max_restore_failures = attempts;
  return *this;
}

EngineSpec& EngineSpec::SpillGc(std::uint64_t submissions) {
  options_.spill_gc_submissions = submissions;
  return *this;
}

EngineSpec& EngineSpec::Fault(const std::string& spec) {
  options_.fault = spec;
  return *this;
}

EngineSpec& EngineSpec::Detector(const DetectorSpec& spec) {
  detector_ = spec;
  return *this;
}

EngineSpec& EngineSpec::Profile(const std::string& name,
                                const DetectorSpec& spec) {
  profiles_.emplace_back(name, spec);
  return *this;
}

Result<StreamEngineOptions> EngineSpec::Build() const {
  StreamEngineOptions options = options_;
  BAGCPD_ASSIGN_OR_RETURN(options.detector, detector_.Build());
  BAGCPD_RETURN_NOT_OK(ValidateStreamEngineOptions(options));
  return options;
}

Result<std::unique_ptr<StreamEngine>> EngineSpec::Create() const {
  BAGCPD_ASSIGN_OR_RETURN(StreamEngineOptions options, Build());
  BAGCPD_ASSIGN_OR_RETURN(std::unique_ptr<StreamEngine> engine,
                          StreamEngine::Create(options));
  for (const auto& [name, spec] : profiles_) {
    BAGCPD_ASSIGN_OR_RETURN(DetectorOptions profile, spec.Build());
    BAGCPD_RETURN_NOT_OK(engine->RegisterProfile(name, profile));
  }
  return engine;
}

// ---------------------------------------------------------------------------
// BatchSpec
// ---------------------------------------------------------------------------

Result<BatchSpec> BatchSpec::FromKeyValues(const std::string& text) {
  BatchSpec spec;
  BAGCPD_RETURN_NOT_OK(ParseKeyValues(text, [&spec](auto&& v) {
    VisitBatchKeys(spec.options_, spec.detector_.options_, v);
  }));
  return spec;
}

BatchSpec& BatchSpec::NumShards(std::size_t num_shards) {
  options_.num_shards = num_shards;
  return *this;
}

BatchSpec& BatchSpec::Seed(std::uint64_t seed) {
  options_.seed = seed;
  return *this;
}

BatchSpec& BatchSpec::Pool(ThreadPool* pool) {
  options_.pool = pool;
  return *this;
}

BatchSpec& BatchSpec::Detector(const DetectorSpec& spec) {
  detector_ = spec;
  return *this;
}

BatchSpec& BatchSpec::Profile(const std::string& name,
                              const DetectorSpec& spec) {
  profiles_.emplace_back(name, spec);
  return *this;
}

BatchSpec& BatchSpec::ProfileForKey(const std::string& key,
                                    const std::string& name) {
  options_.profile_by_key[key] = name;
  return *this;
}

Result<BatchRunnerOptions> BatchSpec::Build() const {
  BatchRunnerOptions options = options_;
  BAGCPD_ASSIGN_OR_RETURN(options.detector, detector_.Build());
  options.profiles.clear();
  for (const auto& [name, spec] : profiles_) {
    BAGCPD_ASSIGN_OR_RETURN(DetectorOptions profile, spec.Build());
    BAGCPD_RETURN_NOT_OK(AddProfile(name, profile, &options.profiles));
  }
  BAGCPD_RETURN_NOT_OK(ValidateBatchRunnerOptions(options));
  return options;
}

std::string BatchSpec::ToKeyValues() const {
  return EchoKeyValues([this](auto&& v) {
    VisitBatchKeys(options_, detector_.options_, v);
  });
}

}  // namespace api
}  // namespace bagcpd
