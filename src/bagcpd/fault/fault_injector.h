// Deterministic fault injection. A single process-wide injector holds at most
// one armed fault spec ("point:mode:arg") naming one of the library's fault
// points — well-known failure sites wired into the hot layers (EMD solve,
// Sinkhorn iteration, ingest allocation, spill I/O, checkpoint import,
// detector push). Call sites ask `FaultFires(point, scope, count)` with a
// DETERMINISTIC (scope, count) pair — a stable per-entity identifier and a
// submission-/iteration-ordinal, never a wall clock or a global hit counter
// shared across threads — so whether a given operation faults is a pure
// function of the workload, bitwise-reproducible across shard and pool
// counts.
//
// The injector is compiled unconditionally. Disarmed (the default) the check
// is one relaxed atomic load of a namespace-scope flag and a predictable
// branch; the tier-1 perf gates run with exactly this code in the hot paths.
//
// Arming: programmatically (FaultInjector::Global().ArmFromSpec), via the
// engine `fault=` spec key, or via the BAGCPD_FAULT environment variable
// (read once at static-init time). Spec syntax:
//
//   <point>:nth:<K>             fires on the K-th occurrence only (1-based)
//   <point>:every-n:<N>         fires on every N-th occurrence
//   <point>:seeded-p:<P>[:<S>]  fires i.i.d. with probability P, keyed by a
//                               hash of (S, scope, count) — deterministic for
//                               a fixed seed S (default 0)

#ifndef BAGCPD_FAULT_FAULT_INJECTOR_H_
#define BAGCPD_FAULT_FAULT_INJECTOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "bagcpd/common/result.h"
#include "bagcpd/common/status.h"

namespace bagcpd {
namespace fault {

/// \brief The library's named fault points (sites that consult the injector).
enum class FaultPoint : int {
  /// One EMD pair solve of the detector's rolling-table update, serial or
  /// pooled; count = per-stream solved-pair ordinal.
  kEmdSolve = 0,
  /// One Sinkhorn scaling iteration; count = iteration ordinal within the
  /// solve. Firing surfaces as the solver's underflow-style Invalid error,
  /// which exercises the `emd-fallback=exact` degradation path.
  kSinkhornIterate,
  /// Ingest-side flatten/allocation at Submit/TrySubmit; count = global
  /// submission sequence.
  kArenaAlloc,
  /// Spill-file write during eviction; firing behaves as a failed write (the
  /// stream stays resident).
  kSpillWrite,
  /// Spill-file read during transparent rehydrate; firing behaves as an I/O
  /// error and enters the stream-failure recovery ladder.
  kSpillRead,
  /// Detector-state import (snapshot restore / rehydrate parse); firing
  /// fails the restore attempt.
  kCkptImport,
  /// One detector push; count = per-stream push ordinal (1-based).
  kDetectorPush,
};

/// \brief Number of distinct fault points (for counter arrays).
inline constexpr std::size_t kFaultPointCount = 7;

/// \brief Canonical dotted name of a fault point ("emd.solve", ...).
const char* FaultPointName(FaultPoint point);

/// \brief Parses a canonical dotted fault-point name.
Result<FaultPoint> ParseFaultPoint(const std::string& name);

namespace internal {
// Namespace-scope armed flag so the disarmed fast path inlines to one
// relaxed load — no function call, no singleton-accessor guard.
extern std::atomic<bool> g_fault_armed;
// Slow path: only reached while armed; takes the injector mutex.
bool FaultFiresSlow(FaultPoint point, std::uint64_t scope,
                    std::uint64_t count);
}  // namespace internal

/// \brief True iff the armed fault spec targets `point` and fires for this
/// (scope, count). Disarmed cost: one relaxed atomic load. `scope` is a
/// stable identifier of the entity (e.g. the per-stream seed or key hash);
/// `count` is the 1-based occurrence ordinal within that scope. Both must be
/// derived deterministically from the workload, never from timing.
inline bool FaultFires(FaultPoint point, std::uint64_t scope,
                       std::uint64_t count) {
  if (!internal::g_fault_armed.load(std::memory_order_relaxed)) return false;
  return internal::FaultFiresSlow(point, scope, count);
}

/// \brief The canonical Status an injected fault surfaces as: Internal with a
/// message prefixed "fault-injected:" so tests and operators can tell a
/// drilled failure from an organic one.
Status InjectedFaultError(FaultPoint point);

/// \brief Process-wide fault injector: at most one armed spec at a time
/// (arming replaces any previous spec). Thread-safe.
class FaultInjector {
 public:
  /// The process-wide instance every fault point consults.
  static FaultInjector& Global();

  /// \brief Arms from a "point:mode:arg[:seed]" spec (see file comment);
  /// replaces any previously armed spec and resets nothing — call
  /// ResetCounters() for a fresh drill. Invalid on a malformed spec (the
  /// injector stays in its previous state).
  Status ArmFromSpec(const std::string& spec);

  /// \brief Checks a spec for syntactic validity without touching the armed
  /// state — the hook option validators (engine `fault=` key) use this so a
  /// bad spec fails configuration instead of the first drill.
  static Status ValidateSpec(const std::string& spec);

  /// \brief Disarms; every subsequent FaultFires() is false at fast-path
  /// cost.
  void Disarm();

  /// \brief True iff a spec is armed.
  bool armed() const {
    return internal::g_fault_armed.load(std::memory_order_relaxed);
  }

  /// \brief The armed spec string (empty when disarmed).
  std::string armed_spec() const;

  /// \brief Total faults fired since the last ResetCounters().
  std::uint64_t fired_count() const;

  /// \brief Faults fired at one point since the last ResetCounters().
  std::uint64_t fired_count(FaultPoint point) const;

  /// \brief Zeroes the fired counters (does not disarm).
  void ResetCounters();

 private:
  friend bool internal::FaultFiresSlow(FaultPoint, std::uint64_t,
                                       std::uint64_t);

  enum class Mode { kNth, kEveryN, kSeededP };

  // Shared parse path behind ArmFromSpec and ValidateSpec; fills the outputs
  // only on success.
  static Status ParseSpec(const std::string& spec, FaultPoint* point,
                          Mode* mode, std::uint64_t* arg,
                          std::uint64_t* threshold, std::uint64_t* seed);

  FaultInjector() = default;

  mutable std::mutex mu_;
  FaultPoint point_ = FaultPoint::kEmdSolve;
  Mode mode_ = Mode::kNth;
  std::uint64_t arg_ = 0;        // K for nth, N for every-n.
  std::uint64_t threshold_ = 0;  // P scaled to [0, 2^64) for seeded-p.
  std::uint64_t seed_ = 0;
  std::string spec_;
  std::atomic<std::uint64_t> fired_total_{0};
  std::atomic<std::uint64_t> fired_by_point_[kFaultPointCount] = {};
};

/// \brief RAII arm/disarm for tests: arms the global injector (resetting its
/// counters first) and disarms on destruction. Check status() — a malformed
/// spec leaves the injector disarmed.
class ScopedFault {
 public:
  explicit ScopedFault(const std::string& spec) {
    FaultInjector::Global().Disarm();
    FaultInjector::Global().ResetCounters();
    status_ = FaultInjector::Global().ArmFromSpec(spec);
  }
  ~ScopedFault() { FaultInjector::Global().Disarm(); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

  const Status& status() const { return status_; }
  std::uint64_t fired() const {
    return FaultInjector::Global().fired_count();
  }

 private:
  Status status_;
};

}  // namespace fault
}  // namespace bagcpd

#endif  // BAGCPD_FAULT_FAULT_INJECTOR_H_
