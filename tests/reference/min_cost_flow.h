// Reference oracle for the EMD transport solver, built only with the tests
// and benches (the bagcpd_reference library): a generic minimum-cost flow
// with real-valued capacities, and the EMD construction on top of it that
// EmdWorkspace (emd/transport_solver.h) must reproduce bit for bit.
//
// Algorithm: successive shortest augmenting paths with Johnson potentials and
// Dijkstra. All arc costs supplied by the EMD construction are non-negative,
// so initial potentials of zero are valid. Each augmentation saturates at
// least one arc, bounding the number of iterations by the number of arcs.
// Flow amounts at or below kFlowEpsilon (emd/transport_solver.h) count as
// zero here as in the fast solver, so the two augment at identical points.

#ifndef BAGCPD_REFERENCE_MIN_COST_FLOW_H_
#define BAGCPD_REFERENCE_MIN_COST_FLOW_H_

#include <cstddef>
#include <vector>

#include "bagcpd/common/result.h"
#include "bagcpd/emd/emd.h"
#include "bagcpd/emd/ground_distance.h"
#include "bagcpd/signature/signature.h"

namespace bagcpd {

/// \brief Outcome of a min-cost-flow computation.
struct FlowSolution {
  /// Units actually routed (== requested amount on success).
  double flow = 0.0;
  /// Total cost sum(flow_e * cost_e).
  double cost = 0.0;
  /// Number of augmenting-path iterations used.
  int iterations = 0;
};

/// \brief A directed flow network with real capacities and costs.
class MinCostFlow {
 public:
  /// Creates a network with `num_nodes` nodes and no arcs.
  explicit MinCostFlow(std::size_t num_nodes);

  /// \brief Adds a directed arc and returns its id for later FlowOn queries.
  /// Capacity must be >= 0 and cost must be finite and >= 0; a violation is
  /// recorded (not aborted on) and surfaces as an Invalid status from
  /// Solve() — corrupt observation data must degrade into a typed error, not
  /// crash the process. Out-of-range node indices remain a programming error
  /// and still abort.
  int AddArc(std::size_t from, std::size_t to, double capacity, double cost);

  /// \brief Routes `amount` units from `source` to `sink` at minimum cost.
  ///
  /// Fails with Invalid if the network cannot carry `amount` units or if any
  /// AddArc call supplied a non-finite/negative cost or negative capacity.
  /// May be called once per instance (flows persist in the arcs).
  Result<FlowSolution> Solve(std::size_t source, std::size_t sink,
                             double amount);

  /// \brief OK unless an AddArc call supplied invalid capacity/cost (the
  /// first such violation, which Solve() also returns).
  const Status& build_status() const { return build_status_; }

  /// \brief Flow routed on the arc returned by AddArc.
  double FlowOn(int arc_id) const;

  std::size_t num_nodes() const { return graph_.size(); }

 private:
  struct Arc {
    std::size_t to;
    double capacity;  // Residual capacity.
    double cost;
    std::size_t rev;  // Index of the reverse arc in graph_[to].
  };

  // graph_[v] holds the arcs leaving v (forward and residual).
  std::vector<std::vector<Arc>> graph_;
  // (node, index into graph_[node]) for each arc id, in insertion order.
  std::vector<std::pair<std::size_t, std::size_t>> arc_handles_;
  // First AddArc input violation, deferred so construction from untrusted
  // data cannot abort; checked by Solve().
  Status build_status_;
};

/// \brief EMD and optimal flow of `a` against `b` on a fresh MinCostFlow
/// network: source -> supply arcs, one transport arc per (k, l) whose cost
/// is one call through a `std::function` ground distance, demand -> sink
/// arcs; then one Solve and a FlowOn per transport arc. This is the EMD
/// construction the library used before EmdWorkspace, kept verbatim as the
/// oracle the workspace matches bitwise and the baseline bench/micro_emd
/// times it against. Both signatures must be valid and of one dimension.
Result<EmdSolution> ReferenceEmdDetailed(SignatureView a, SignatureView b,
                                         GroundDistance ground);

}  // namespace bagcpd

#endif  // BAGCPD_REFERENCE_MIN_COST_FLOW_H_
