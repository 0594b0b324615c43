// StepReplayer: re-runs one detector step through the public layer calls —
// SignatureBuilder::Build, EmdSolver::ComputeBatch, log(max(d, floor)) into a
// ScoreContext, ComputeScore, BootstrapScoreInterval — timing each call as a
// span. Fed the same bags as a BagStreamDetector with the same options, it
// must produce bitwise-identical StepResults; the benchmark checks that on
// every traced step.

#ifndef BAGCPD_E2EBENCH_REPLAY_H_
#define BAGCPD_E2EBENCH_REPLAY_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <optional>
#include <vector>

#include "bagcpd/core/bootstrap.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/core/scores.h"
#include "bagcpd/emd/approx/emd_solver.h"
#include "bagcpd/signature/builder.h"
#include "harness.h"

namespace e2e {

/// \brief Bitwise fold of a StepResult into a running checksum.
inline std::uint64_t FoldStep(std::uint64_t h, const bagcpd::StepResult& r) {
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  const auto bits = [](double d) {
    std::uint64_t b = 0;
    std::memcpy(&b, &d, sizeof(b));
    return b;
  };
  mix(r.time);
  mix(bits(r.score));
  mix(bits(r.ci_lo));
  mix(bits(r.ci_up));
  mix(bits(r.xi));
  mix(r.alarm ? 1 : 0);
  return h;
}

inline bool SameStep(const bagcpd::StepResult& a, const bagcpd::StepResult& b) {
  return FoldStep(0, a) == FoldStep(0, b);
}

/// \brief Span names of the replayed chain (one per layer call).
inline constexpr const char kSpanPush[] = "detector.push";
inline constexpr const char kSpanSignature[] = "signature.build";
inline constexpr const char kSpanEmd[] = "emd.column";
inline constexpr const char kSpanScore[] = "scores.compute";
inline constexpr const char kSpanBootstrap[] = "bootstrap.interval";

class StepReplayer {
 public:
  /// `options.seed` is the detector's own seed (for engine and batch streams,
  /// the DerivePerStreamSeed value).
  explicit StepReplayer(const bagcpd::DetectorOptions& options)
      : options_(options),
        builder_(options.signature),
        rng_(options.seed),
        window_size_(options.tau + options.tau_prime) {
    bagcpd::EmdSolverOptions emd = options.emd;
    emd.fault_scope = options.seed;  // As the detector stamps it.
    solver_.set_options(emd);
    pi_ref_.assign(options.tau, 1.0 / static_cast<double>(options.tau));
    pi_test_.assign(options.tau_prime,
                    1.0 / static_cast<double>(options.tau_prime));
    ctx_.info = options.info;
    ctx_.log_ref_ref = bagcpd::Matrix(options.tau, options.tau, 0.0);
    ctx_.log_test_test =
        bagcpd::Matrix(options.tau_prime, options.tau_prime, 0.0);
    ctx_.log_ref_test = bagcpd::Matrix(options.tau, options.tau_prime, 0.0);
  }

  /// \brief Replays the push of `bag`. Spans go to `log` (may be null) with
  /// parent `parent` and id `id`. Returns the StepResult Push would return.
  bagcpd::Result<std::optional<bagcpd::StepResult>> Replay(
      bagcpd::BagView bag, SpanLog* log, std::int64_t parent,
      std::uint64_t id) {
    const auto record = [&](const char* name, std::int64_t start,
                            std::int64_t end) {
      if (log != nullptr) log->Add(name, start, end, parent, id);
    };

    std::int64_t t0 = NowNs();
    BAGCPD_ASSIGN_OR_RETURN(bagcpd::Signature sig,
                            builder_.Build(bag, next_index_));
    record(kSpanSignature, t0, NowNs());

    // The newest signature's column of the log-EMD table: one batched solve
    // against every older window signature (the detector's priming fills the
    // same pairs column by column).
    std::vector<double> column(window_.size(), 0.0);
    if (!window_.empty()) {
      lefts_.clear();
      for (const bagcpd::Signature& s : window_) lefts_.push_back(s.view());
      t0 = NowNs();
      BAGCPD_RETURN_NOT_OK(solver_.ComputeBatch(lefts_.data(), lefts_.size(),
                                                sig.view(), options_.ground,
                                                column.data()));
      record(kSpanEmd, t0, NowNs());
      const double floor = options_.info.distance_floor;
      for (double& d : column) d = std::log(std::max(d, floor));
    }
    window_.push_back(std::move(sig));
    log_columns_.push_back(std::move(column));
    ++next_index_;
    if (window_.size() < window_size_) {
      return std::optional<bagcpd::StepResult>();
    }

    const std::size_t tau = options_.tau;
    const std::size_t tau_prime = options_.tau_prime;
    // log_columns_[q][p] = log EMD(p, q) for window positions p < q.
    const auto at = [this](std::size_t p, std::size_t q) {
      return p < q ? log_columns_[q][p] : log_columns_[p][q];
    };
    for (std::size_t i = 0; i < tau; ++i) {
      for (std::size_t j = 0; j < tau; ++j) {
        if (i != j) ctx_.log_ref_ref(i, j) = at(i, j);
      }
      for (std::size_t j = 0; j < tau_prime; ++j) {
        ctx_.log_ref_test(i, j) = at(i, tau + j);
      }
    }
    for (std::size_t i = 0; i < tau_prime; ++i) {
      for (std::size_t j = 0; j < tau_prime; ++j) {
        if (i != j) ctx_.log_test_test(i, j) = at(tau + i, tau + j);
      }
    }

    bagcpd::StepResult step;
    step.time = next_index_ - tau_prime;
    t0 = NowNs();
    BAGCPD_ASSIGN_OR_RETURN(
        step.score,
        bagcpd::ComputeScore(options_.score_type, ctx_, pi_ref_, pi_test_));
    record(kSpanScore, t0, NowNs());
    if (options_.bootstrap.replicates > 0) {
      t0 = NowNs();
      BAGCPD_ASSIGN_OR_RETURN(
          bagcpd::BootstrapInterval ci,
          bagcpd::BootstrapScoreInterval(options_.score_type, ctx_, pi_ref_,
                                         pi_test_, options_.bootstrap, &rng_,
                                         nullptr));
      record(kSpanBootstrap, t0, NowNs());
      step.ci_lo = ci.lo;
      step.ci_up = ci.up;
      if (upper_history_.size() == tau_prime) {
        step.xi = step.ci_lo - upper_history_.front();
        step.alarm = step.xi > 0.0;
      }
      upper_history_.push_back(step.ci_up);
      if (upper_history_.size() > tau_prime) upper_history_.pop_front();
    }

    // Slide: drop the oldest signature and its row of the table.
    window_.pop_front();
    log_columns_.pop_front();
    for (std::vector<double>& c : log_columns_) c.erase(c.begin());
    return std::optional<bagcpd::StepResult>(step);
  }

  const bagcpd::EmdSolver& solver() const { return solver_; }

 private:
  bagcpd::DetectorOptions options_;
  bagcpd::SignatureBuilder builder_;
  bagcpd::EmdSolver solver_;
  bagcpd::Rng rng_;
  std::size_t window_size_;
  std::uint64_t next_index_ = 0;
  std::deque<bagcpd::Signature> window_;
  std::deque<std::vector<double>> log_columns_;
  std::vector<bagcpd::SignatureView> lefts_;
  bagcpd::ScoreContext ctx_;
  std::deque<double> upper_history_;
  std::vector<double> pi_ref_;
  std::vector<double> pi_test_;
};

}  // namespace e2e

#endif  // BAGCPD_E2EBENCH_REPLAY_H_
