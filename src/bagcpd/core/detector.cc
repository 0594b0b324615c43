#include "bagcpd/core/detector.h"

#include <algorithm>
#include <cmath>

#include "bagcpd/common/check.h"
#include "bagcpd/common/enum_names.h"
#include "bagcpd/emd/transport_solver.h"
#include "bagcpd/fault/fault_injector.h"
#include "bagcpd/info/weighted_set.h"
#include "bagcpd/runtime/thread_pool.h"

namespace bagcpd {

const char* WeightSchemeName(WeightScheme scheme) {
  switch (scheme) {
    case WeightScheme::kUniform:
      return "uniform";
    case WeightScheme::kDiscounted:
      return "discounted";
  }
  return "unknown";
}

const std::vector<WeightScheme>& AllWeightSchemes() {
  static const std::vector<WeightScheme> kAll = {WeightScheme::kUniform,
                                                 WeightScheme::kDiscounted};
  return kAll;
}

Result<WeightScheme> ParseWeightScheme(const std::string& name) {
  return ParseNamedEnum(name, AllWeightSchemes(), WeightSchemeName,
                        "weight scheme");
}

Status ValidateDetectorOptions(const DetectorOptions& options) {
  if (options.tau < 2) return Status::Invalid("tau must be >= 2");
  if (options.tau_prime < 2) return Status::Invalid("tau' must be >= 2");
  // Each term is bounded first so the sum cannot wrap.
  if (options.tau > kMaxDetectorWindow ||
      options.tau_prime > kMaxDetectorWindow - options.tau) {
    return Status::Invalid("tau + tau' must be <= " +
                           std::to_string(kMaxDetectorWindow));
  }
  const SignatureBuilderOptions& signature = options.signature;
  if (signature.k == 0 && signature.method != SignatureMethod::kCentroid &&
      signature.method != SignatureMethod::kHistogram) {
    return Status::Invalid("k must be >= 1");
  }
  if (signature.method == SignatureMethod::kHistogram &&
      !(signature.bin_width > 0.0)) {
    return Status::Invalid("bin_width must be > 0");
  }
  if (options.bootstrap.replicates < 0 || options.bootstrap.replicates == 1) {
    return Status::Invalid(
        "bootstrap replicates must be 0 (no CIs) or at least 2");
  }
  // Only values the spec text form can carry, so a detector can always be
  // rebuilt from the spec its checkpoints embed.
  for (double value : {signature.bin_width, signature.histogram_origin,
                       options.bootstrap.alpha, options.info.distance_floor}) {
    if (!std::isfinite(value)) {
      return Status::Invalid("detector options must be finite numbers");
    }
  }
  if (options.bootstrap.replicates > 0) {
    if (options.bootstrap.alpha <= 0.0 || options.bootstrap.alpha >= 1.0) {
      return Status::Invalid("bootstrap alpha must be in (0, 1)");
    }
  }
  if (options.info.distance_floor <= 0.0) {
    return Status::Invalid("distance floor must be > 0");
  }
  BAGCPD_RETURN_NOT_OK(ValidateEmdSolverOptions(options.emd));
  return Status::OK();
}

Result<std::unique_ptr<BagStreamDetector>> BagStreamDetector::Create(
    const DetectorOptions& options) {
  BAGCPD_RETURN_NOT_OK(ValidateDetectorOptions(options));
  return std::make_unique<BagStreamDetector>(options);
}

PairwiseDistanceCache::ComputeFn BagStreamDetector::MakeCacheComputeFn() {
  // Solve on the detector-owned EmdSolver (never the 1-d sweep): the exact
  // transportation solve by default, or the configured approximate solver —
  // both dispatch the batched cost kernel on the ground enum.
  return [this](std::uint64_t i, std::uint64_t j) -> Result<double> {
    return solver_.Compute(SignatureAt(i), SignatureAt(j), options_.ground);
  };
}

BagStreamDetector::BagStreamDetector(const DetectorOptions& options)
    : options_(options),
      init_status_(ValidateDetectorOptions(options)),
      builder_(options.signature),
      rng_(options.seed),
      solver_(options.emd),
      cache_(MakeCacheComputeFn()) {
  // Fault-injection scope: the per-stream seed identifies this detector's
  // solves deterministically. Threaded through options_.emd so the serial
  // solver AND the pooled prefill (which passes options_.emd explicitly to
  // thread-local solvers) see the same scope. No effect unless a fault is
  // armed; never serialized.
  options_.emd.fault_scope = options_.seed;
  solver_.set_options(options_.emd);
  if (init_status_.ok()) {
    const std::size_t full = options_.tau + options_.tau_prime;
    window_.Reset(full);
    log_table_.assign(full * full, 0.0);
    batch_lefts_.reserve(full - 1);
    batch_left_pos_.reserve(full - 1);
    batch_emd_.reserve(full - 1);
    // The score-context matrices are sized once here and refilled in place
    // every step; their diagonals stay at the 0.0 the scores ignore.
    ctx_.info = options_.info;
    ctx_.log_ref_ref = Matrix(options_.tau, options_.tau, 0.0);
    ctx_.log_test_test = Matrix(options_.tau_prime, options_.tau_prime, 0.0);
    ctx_.log_ref_test = Matrix(options_.tau, options_.tau_prime, 0.0);
    if (options_.weight_scheme == WeightScheme::kUniform) {
      pi_ref_.assign(options_.tau, 1.0 / static_cast<double>(options_.tau));
      pi_test_.assign(options_.tau_prime,
                      1.0 / static_cast<double>(options_.tau_prime));
    } else {
      pi_ref_ = DiscountWeights(options_.tau, /*toward_end=*/true);
      pi_test_ = DiscountWeights(options_.tau_prime, /*toward_end=*/false);
    }
  }
}

SignatureView BagStreamDetector::SignatureAt(
    std::uint64_t global_index) const {
  const std::uint64_t window_start = next_index_ - window_.size();
  BAGCPD_CHECK_MSG(global_index >= window_start && global_index < next_index_,
                   "signature %llu outside window [%llu, %llu)",
                   static_cast<unsigned long long>(global_index),
                   static_cast<unsigned long long>(window_start),
                   static_cast<unsigned long long>(next_index_));
  return window_.view(static_cast<std::size_t>(global_index - window_start));
}

void BagStreamDetector::Reset() {
  if (init_status_.ok()) {
    window_.Reset(options_.tau + options_.tau_prime);
  }
  upper_history_.clear();
  next_index_ = 0;
  table_base_ = 0;
  table_primed_ = false;
  fault_emd_count_ = 0;
  // Clear — not reallocate — so a long-lived engine stream keeps the cache's
  // bucket storage (and its one generator) across resets.
  cache_.Clear();
  // Per-owner memory policy: with a byte ceiling configured on the solver,
  // oversized EMD scratch (grown by one outlier pair) is released here, at a
  // quiet point, and regrows to the working-set size on the next solve.
  solver_.ShrinkToCeiling();
}

Result<std::optional<StepResult>> BagStreamDetector::Push(const Bag& bag) {
  BAGCPD_RETURN_NOT_OK(init_status_);
  // The boundary flatten recycles through the attached arena too, like the
  // signature build below.
  BAGCPD_ASSIGN_OR_RETURN(FlatBag flat, FlatBag::FromBag(bag, arena_));
  return Push(flat.view());
}

Result<std::optional<StepResult>> BagStreamDetector::Push(BagView bag) {
  BAGCPD_RETURN_NOT_OK(init_status_);
  // Boundary sanitization: a NaN/Inf coordinate must never reach a distance
  // kernel. Checked BEFORE any state mutation, so a direct caller can drop
  // the bad bag and continue the stream on the next good one.
  BAGCPD_RETURN_NOT_OK(CheckBagViewFinite(bag));
  // `detector.push` fault point, keyed to (per-stream seed, push ordinal):
  // deterministic across shard/pool counts, and — like the finite check —
  // raised before any state mutation.
  if (fault::FaultFires(fault::FaultPoint::kDetectorPush, options_.seed,
                        next_index_ + 1)) {
    return fault::InjectedFaultError(fault::FaultPoint::kDetectorPush);
  }
  // The quantizer assembles straight into the window ring's next slot
  // (borrowed-slot build) — no intermediate signature materialized or copied
  // on the push path. Histogram, whose bin count is unbounded, falls back to
  // the copying path inside BuildInto.
  BAGCPD_RETURN_NOT_OK(builder_.BuildInto(bag, next_index_, arena_, &window_));
  ++next_index_;

  const std::size_t full = options_.tau + options_.tau_prime;
  if (window_.size() < full) return std::optional<StepResult>();
  BAGCPD_CHECK(window_.size() == full);

  if (pool_ != nullptr) {
    BAGCPD_RETURN_NOT_OK(PrefillWindowDistances());
  }
  BAGCPD_ASSIGN_OR_RETURN(StepResult step, ScoreInspectionPoint());

  // Slide: drop the oldest signature; its rolling-table slot becomes the
  // next signature's row/column. Every cached raw distance has been folded
  // into the table by now and is never read again, so drop them all —
  // steady-state cache memory is O(tau + tau'), not O((tau + tau')^2).
  window_.PopFront();
  table_base_ = (table_base_ + 1) % full;
  cache_.EvictAll();
  return std::optional<StepResult>(step);
}

Status BagStreamDetector::AdvanceEmdFaultCounter(std::size_t solved) {
  const std::uint64_t begin = fault_emd_count_;
  fault_emd_count_ += solved;
  if (!fault::FaultInjector::Global().armed()) return Status::OK();
  for (std::uint64_t c = begin + 1; c <= begin + solved; ++c) {
    if (fault::FaultFires(fault::FaultPoint::kEmdSolve, options_.seed, c)) {
      return fault::InjectedFaultError(fault::FaultPoint::kEmdSolve);
    }
  }
  return Status::OK();
}

Status BagStreamDetector::PrefillWindowDistances() {
  // Collect the window pairs missing from the cache and solve them
  // concurrently. The rolling table's invariant makes the missing set known
  // without probing the cache: once primed, every pair of the previous
  // window survives eviction, so only the (tau + tau' - 1) pairs of the
  // newest signature are absent; before priming (first full window, or
  // after Reset) the whole C(tau + tau', 2) table is. Each EMD depends only
  // on its two signatures, so the cache contents (and everything downstream)
  // are independent of the pool size; only the insertion happens on this
  // thread.
  const std::uint64_t window_start = next_index_ - window_.size();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> missing;
  if (table_primed_) {
    const std::uint64_t newest = next_index_ - 1;
    missing.reserve(window_.size() - 1);
    for (std::uint64_t i = window_start; i < newest; ++i) {
      missing.emplace_back(i, newest);
    }
  } else {
    missing.reserve(window_.size() * (window_.size() - 1) / 2);
    for (std::uint64_t i = window_start; i < next_index_; ++i) {
      for (std::uint64_t j = i + 1; j < next_index_; ++j) {
        missing.emplace_back(i, j);
      }
    }
  }
  if (missing.empty()) return Status::OK();
  BAGCPD_RETURN_NOT_OK(AdvanceEmdFaultCounter(missing.size()));
  std::vector<SignatureView> lefts;
  std::vector<SignatureView> rights;
  lefts.reserve(missing.size());
  rights.reserve(missing.size());
  for (const auto& [i, j] : missing) {
    lefts.push_back(SignatureAt(i));
    rights.push_back(SignatureAt(j));
  }
  std::vector<double> values(missing.size(), 0.0);
  std::vector<Status> statuses(missing.size(), Status::OK());
  // Each chunk runs ONE batched solve over its contiguous slice of the pair
  // list on a per-pool-thread solver (concurrent solves never share scratch;
  // the explicit-options overload lets one shared thread-local solver serve
  // streams with different emd= selections). ComputeBatch detects the runs
  // of shared right operands — the whole steady-state list shares the newest
  // signature — and hoists their transpose. Any chunking yields the same
  // values because each pair's EMD depends only on its two signatures; a
  // chunk's first error lands at its first index, so the scan below still
  // surfaces the lowest failing pair.
  pool_->ParallelForChunked(0, missing.size(),
                            [&](std::size_t begin, std::size_t end) {
    const Status s = ThreadLocalEmdSolver().ComputeBatch(
        lefts.data() + begin, rights.data() + begin, end - begin,
        options_.ground, options_.emd, values.data() + begin);
    if (!s.ok()) statuses[begin] = s;
  });
  for (std::size_t p = 0; p < missing.size(); ++p) {
    BAGCPD_RETURN_NOT_OK(statuses[p]);
    cache_.Put(missing[p].first, missing[p].second, values[p]);
  }
  return Status::OK();
}

Status BagStreamDetector::FoldNewPairsForColumn(std::size_t q) {
  const std::size_t w = window_.size();  // == tau + tau' (window is full).
  const std::uint64_t window_start = next_index_ - w;
  const double floor = options_.info.distance_floor;
  const auto slot = [this, w](std::size_t pos) {
    return (table_base_ + pos) % w;
  };
  const std::size_t q_slot = slot(q);
  const std::uint64_t gq = window_start + q;
  const auto fold = [&](std::size_t p, double d) {
    const double v = std::log(std::max(d, floor));
    log_table_[slot(p) * w + q_slot] = v;
    log_table_[q_slot * w + slot(p)] = v;
  };
  // Split column q's pairs into cached (pooled prefill already solved them;
  // reading them back counts the same hits as before) and absent. The absent
  // ones — ALL of them on the serial path — go through one batched solve
  // sharing the right operand, then Put() records exactly the misses the
  // per-pair cache walk would have.
  batch_lefts_.clear();
  batch_left_pos_.clear();
  for (std::size_t p = 0; p < q; ++p) {
    const std::uint64_t gp = window_start + p;
    if (cache_.Contains(gp, gq)) {
      BAGCPD_ASSIGN_OR_RETURN(double d, cache_.Get(gp, gq));
      fold(p, d);
    } else {
      batch_lefts_.push_back(window_.view(p));
      batch_left_pos_.push_back(p);
    }
  }
  if (batch_lefts_.empty()) return Status::OK();
  BAGCPD_RETURN_NOT_OK(AdvanceEmdFaultCounter(batch_lefts_.size()));
  batch_emd_.resize(batch_lefts_.size());
  BAGCPD_RETURN_NOT_OK(solver_.ComputeBatch(batch_lefts_.data(),
                                            batch_lefts_.size(),
                                            window_.view(q), options_.ground,
                                            batch_emd_.data()));
  for (std::size_t i = 0; i < batch_left_pos_.size(); ++i) {
    cache_.Put(window_start + batch_left_pos_[i], gq, batch_emd_[i]);
    fold(batch_left_pos_[i], batch_emd_[i]);
  }
  return Status::OK();
}

Status BagStreamDetector::UpdateRollingTable() {
  const std::size_t w = window_.size();
  if (!table_primed_) {
    // First full window (or first after Reset): fill every pair, one batched
    // shared-right column at a time.
    for (std::size_t q = 1; q < w; ++q) {
      BAGCPD_RETURN_NOT_OK(FoldNewPairsForColumn(q));
    }
    table_primed_ = true;
    return Status::OK();
  }
  // Steady state: the slide already retired the oldest row/column (its slot
  // is the newest signature's), so only the newest column's (w - 1) pairs
  // need solving — the detector's hottest loop, now one ComputeBatch call.
  return FoldNewPairsForColumn(w - 1);
}

Result<StepResult> BagStreamDetector::ScoreInspectionPoint() {
  const std::size_t tau = options_.tau;
  const std::size_t tau_prime = options_.tau_prime;
  const std::size_t w = tau + tau_prime;
  // Global indices: reference = [t - tau, t), test = [t, t + tau').
  const std::uint64_t t = next_index_ - tau_prime;

  // Slide the rolling log-EMD table (one new row/column per step), then copy
  // its three window blocks into the reused ScoreContext matrices — straight
  // buffer reads instead of the historical per-step hash-map assembly, and
  // no per-step Matrix allocations. The log values are computed once per
  // pair, so every ctx entry is bit-identical to recomputing it from the
  // cache each step. Reference window = positions 0..tau-1 (oldest first),
  // test window = positions tau..w-1.
  BAGCPD_RETURN_NOT_OK(UpdateRollingTable());
  const auto slot = [this, w](std::size_t pos) {
    return (table_base_ + pos) % w;
  };
  for (std::size_t i = 0; i < tau; ++i) {
    const double* row = log_table_.data() + slot(i) * w;
    for (std::size_t j = i + 1; j < tau; ++j) {
      const double v = row[slot(j)];
      ctx_.log_ref_ref(i, j) = v;
      ctx_.log_ref_ref(j, i) = v;
    }
  }
  for (std::size_t i = 0; i < tau_prime; ++i) {
    const double* row = log_table_.data() + slot(tau + i) * w;
    for (std::size_t j = i + 1; j < tau_prime; ++j) {
      const double v = row[slot(tau + j)];
      ctx_.log_test_test(i, j) = v;
      ctx_.log_test_test(j, i) = v;
    }
  }
  for (std::size_t i = 0; i < tau; ++i) {
    const double* row = log_table_.data() + slot(i) * w;
    for (std::size_t j = 0; j < tau_prime; ++j) {
      ctx_.log_ref_test(i, j) = row[slot(tau + j)];
    }
  }

  StepResult step;
  step.time = t;
  BAGCPD_ASSIGN_OR_RETURN(
      step.score, ComputeScore(options_.score_type, ctx_, pi_ref_, pi_test_));

  if (options_.bootstrap.replicates > 0) {
    BAGCPD_ASSIGN_OR_RETURN(
        BootstrapInterval ci,
        BootstrapScoreInterval(options_.score_type, ctx_, pi_ref_, pi_test_,
                               options_.bootstrap, &rng_, pool_));
    step.ci_lo = ci.lo;
    step.ci_up = ci.up;
    // Eq. 20: compare with theta_up of inspection time t - tau'. The history
    // deque holds the last tau' upper endpoints, front = oldest = t - tau'.
    if (upper_history_.size() == options_.tau_prime) {
      step.xi = step.ci_lo - upper_history_.front();
      step.alarm = step.xi > 0.0;  // Eq. 18.
    }
    upper_history_.push_back(step.ci_up);
    if (upper_history_.size() > options_.tau_prime) upper_history_.pop_front();
  }
  return step;
}

Result<std::vector<StepResult>> BagStreamDetector::Run(const BagSequence& bags) {
  Reset();
  std::vector<StepResult> results;
  results.reserve(bags.size());
  for (const Bag& bag : bags) {
    BAGCPD_ASSIGN_OR_RETURN(std::optional<StepResult> step, Push(bag));
    if (step.has_value()) results.push_back(*step);
  }
  return results;
}

Result<std::vector<StepResult>> BagStreamDetector::Run(
    const FlatBagSequence& bags) {
  Reset();
  std::vector<StepResult> results;
  results.reserve(bags.size());
  for (const FlatBag& bag : bags) {
    BAGCPD_ASSIGN_OR_RETURN(std::optional<StepResult> step, Push(bag.view()));
    if (step.has_value()) results.push_back(*step);
  }
  return results;
}

std::vector<std::uint64_t> AlarmTimes(const std::vector<StepResult>& results) {
  std::vector<std::uint64_t> times;
  for (const StepResult& r : results) {
    if (r.alarm) times.push_back(r.time);
  }
  return times;
}

}  // namespace bagcpd
