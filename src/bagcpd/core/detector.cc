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
  return std::unique_ptr<BagStreamDetector>(new BagStreamDetector(options));
}

BagStreamDetector::BagStreamDetector(const DetectorOptions& options)
    : options_(options),
      builder_(options.signature),
      rng_(options.seed),
      solver_(options.emd) {
  // Fault-injection scope: the per-stream seed identifies this detector's
  // solves deterministically. Threaded through options_.emd so solver_ AND
  // the thread-local solvers of pooled chunks (which take options_.emd
  // through set_options) see the same scope. No effect unless a fault is
  // armed; never serialized.
  options_.emd.fault_scope = options_.seed;
  solver_.set_options(options_.emd);
  const std::size_t full = options_.tau + options_.tau_prime;
  window_.Reset(full);
  log_table_.assign(full * full, 0.0);
  batch_lefts_.reserve(full - 1);
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

void BagStreamDetector::Reset() {
  window_.Reset(options_.tau + options_.tau_prime);
  upper_history_.clear();
  next_index_ = 0;
  table_base_ = 0;
  table_primed_ = false;
  emd_solve_count_ = 0;
  step_failure_ = Status::OK();
  // The bootstrap stream restarts from the seed, so a reset detector repeats
  // a fresh one's results bit for bit (ImportState restores its own position
  // after this).
  rng_ = Rng(options_.seed);
  // Per-owner memory policy: with a byte ceiling configured on the solver,
  // oversized EMD scratch (grown by one outlier pair) is released here, at a
  // quiet point, and regrows to the working-set size on the next solve.
  solver_.ShrinkToCeiling();
}

Result<std::optional<StepResult>> BagStreamDetector::Push(const Bag& bag) {
  // Nested bags are accepted here, at the facade, and flattened once; every
  // layer below takes BagView. The flatten recycles through the attached
  // arena too, like the signature build below.
  BAGCPD_ASSIGN_OR_RETURN(FlatBag flat, FlatBag::FromBag(bag, arena_));
  return Push(flat.view());
}

Result<std::optional<StepResult>> BagStreamDetector::Push(BagView bag) {
  BAGCPD_RETURN_NOT_OK(step_failure_);
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
  // Every quantizer assembles straight into the window ring's next slot
  // (borrowed-slot build) — no intermediate signature materialized or copied
  // on the push path; histogram bins the bag first and borrows a slot of
  // exactly its bin count. A failed build leaves the ring as it was.
  BAGCPD_RETURN_NOT_OK(builder_.BuildInto(bag, next_index_, arena_, &window_));
  ++next_index_;
  Result<std::optional<StepResult>> step = Step();
  if (!step.ok()) step_failure_ = step.status();
  return step;
}

Result<std::optional<StepResult>> BagStreamDetector::Step() {
  const std::size_t full = options_.tau + options_.tau_prime;
  if (window_.size() < full) return std::optional<StepResult>();
  BAGCPD_CHECK(window_.size() == full);
  BAGCPD_ASSIGN_OR_RETURN(StepResult step, ScoreInspectionPoint());
  // Slide: drop the oldest signature; its rolling-table slot becomes the
  // next signature's row/column.
  window_.PopFront();
  table_base_ = (table_base_ + 1) % full;
  return std::optional<StepResult>(step);
}

Status BagStreamDetector::AdvanceEmdFaultCounter(std::size_t solved) {
  const std::uint64_t begin = emd_solve_count_;
  emd_solve_count_ += solved;
  if (!fault::FaultInjector::Global().armed()) return Status::OK();
  for (std::uint64_t c = begin + 1; c <= begin + solved; ++c) {
    if (fault::FaultFires(fault::FaultPoint::kEmdSolve, options_.seed, c)) {
      return fault::InjectedFaultError(fault::FaultPoint::kEmdSolve);
    }
  }
  return Status::OK();
}

void BagStreamDetector::FoldColumn(std::size_t q, const double* emd) {
  const std::size_t w = window_.size();
  const double floor = options_.info.distance_floor;
  const std::size_t q_slot = (table_base_ + q) % w;
  for (std::size_t p = 0; p < q; ++p) {
    const std::size_t p_slot = (table_base_ + p) % w;
    const double v = std::log(std::max(emd[p], floor));
    log_table_[p_slot * w + q_slot] = v;
    log_table_[q_slot * w + p_slot] = v;
  }
}

Status BagStreamDetector::UpdateRollingTable() {
  // The slide already retired the oldest row/column (its slot is the newest
  // signature's), so a primed table needs only the newest column's (w - 1)
  // pairs — the detector's hottest loop. The first full window (or the first
  // after Reset) needs all C(w, 2).
  const std::size_t w = window_.size();
  const std::size_t first_q = table_primed_ ? w - 1 : 1;
  const std::size_t pairs = (w * (w - 1) - first_q * (first_q - 1)) / 2;
  BAGCPD_RETURN_NOT_OK(AdvanceEmdFaultCounter(pairs));
  // The pairs are numbered column by column from first_q; column q holds
  // the q pairs (p, q), p < q, whose lefts are a prefix of batch_lefts_.
  batch_lefts_.clear();
  for (std::size_t p = 0; p + 1 < w; ++p) {
    batch_lefts_.push_back(window_.view(p));
  }
  batch_emd_.resize(pairs);
  // One body solves the pairs [begin, end): one shared-right batch per
  // column segment it covers. Without a pool it runs once over every pair on
  // solver_, one batch per column; with one, each chunk runs on its thread's
  // solver. Each pair's EMD depends only on its two signatures, so every
  // chunking yields the same values, and ForEachChunk surfaces the error of
  // the lowest failing pair, as the one-chunk walk does.
  BAGCPD_RETURN_NOT_OK(ForEachChunk(
      pool_, 0, pairs, [&](std::size_t begin, std::size_t end) -> Status {
        EmdSolver* solver = &solver_;
        if (pool_ != nullptr) {
          solver = &ThreadLocalEmdSolver();
          solver->set_options(options_.emd);
        }
        std::size_t q = first_q;
        std::size_t column = 0;  // Number of column q's first pair.
        while (column + q <= begin) {
          column += q;
          ++q;
        }
        for (std::size_t i = begin; i < end; ++q) {
          const std::size_t count = std::min(end, column + q) - i;
          BAGCPD_RETURN_NOT_OK(solver->ComputeBatch(
              batch_lefts_.data() + (i - column), count, window_.view(q),
              options_.ground, batch_emd_.data() + i));
          i += count;
          column += q;
        }
        return Status::OK();
      }));
  const double* column = batch_emd_.data();
  for (std::size_t q = first_q; q < w; ++q) {
    FoldColumn(q, column);
    column += q;
  }
  table_primed_ = true;
  return Status::OK();
}

Result<StepResult> BagStreamDetector::ScoreInspectionPoint() {
  const std::size_t tau = options_.tau;
  const std::size_t tau_prime = options_.tau_prime;
  const std::size_t w = tau + tau_prime;
  // Global indices: reference = [t - tau, t), test = [t, t + tau').
  const std::uint64_t t = next_index_ - tau_prime;

  // Slide the rolling log-EMD table (one new row/column per step), then copy
  // its three window blocks into the reused ScoreContext matrices — straight
  // buffer reads and no per-step Matrix allocations. The log values are
  // computed once per pair, so every ctx entry is bit-identical to
  // recomputing it each step. Reference window = positions 0..tau-1 (oldest
  // first), test window = positions tau..w-1.
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
