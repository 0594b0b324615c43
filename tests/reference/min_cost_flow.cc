#include "reference/min_cost_flow.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>

#include "bagcpd/common/check.h"
#include "bagcpd/common/point.h"
#include "bagcpd/emd/transport_solver.h"

namespace bagcpd {

MinCostFlow::MinCostFlow(std::size_t num_nodes) : graph_(num_nodes) {}

int MinCostFlow::AddArc(std::size_t from, std::size_t to, double capacity,
                        double cost) {
  BAGCPD_CHECK(from < graph_.size() && to < graph_.size());
  if (build_status_.ok()) {
    // Deferred, not aborted: capacities/costs come straight from observation
    // weights and ground distances, so corrupt input must surface as a typed
    // error from Solve() rather than kill the process.
    if (!(capacity >= 0.0)) {
      build_status_ = Status::Invalid("negative or NaN arc capacity");
    } else if (!(std::isfinite(cost) && cost >= 0.0)) {
      build_status_ =
          Status::Invalid("arc cost must be finite and non-negative");
    }
  }
  if (!std::isfinite(cost)) cost = 0.0;  // Keep the graph arithmetic-safe.
  if (!(capacity >= 0.0)) capacity = 0.0;
  const std::size_t fwd_index = graph_[from].size();
  const std::size_t rev_index = graph_[to].size();
  graph_[from].push_back(Arc{to, capacity, cost, rev_index});
  graph_[to].push_back(Arc{from, 0.0, -cost, fwd_index});
  arc_handles_.emplace_back(from, fwd_index);
  return static_cast<int>(arc_handles_.size()) - 1;
}

Result<FlowSolution> MinCostFlow::Solve(std::size_t source, std::size_t sink,
                                        double amount) {
  if (source >= graph_.size() || sink >= graph_.size()) {
    return Status::Invalid("source/sink out of range");
  }
  if (!build_status_.ok()) return build_status_;
  if (!(amount >= 0.0)) return Status::Invalid("negative or NaN flow amount");

  FlowSolution solution;
  if (amount <= kFlowEpsilon) return solution;

  const std::size_t n = graph_.size();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> potential(n, 0.0);
  std::vector<double> dist(n);
  std::vector<std::size_t> prev_node(n);
  std::vector<std::size_t> prev_arc(n);

  double remaining = amount;
  while (remaining > kFlowEpsilon) {
    // Dijkstra on reduced costs cost + h[u] - h[v] (all >= 0 by induction).
    std::fill(dist.begin(), dist.end(), inf);
    dist[source] = 0.0;
    using QueueItem = std::pair<double, std::size_t>;
    std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> pq;
    pq.emplace(0.0, source);
    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u] + kFlowEpsilon) continue;
      for (std::size_t idx = 0; idx < graph_[u].size(); ++idx) {
        const Arc& arc = graph_[u][idx];
        if (arc.capacity <= kFlowEpsilon) continue;
        // Reduced cost; clamp tiny negatives from floating-point noise.
        double rc = arc.cost + potential[u] - potential[arc.to];
        if (rc < 0.0) rc = 0.0;
        const double nd = dist[u] + rc;
        if (nd + kFlowEpsilon < dist[arc.to]) {
          dist[arc.to] = nd;
          prev_node[arc.to] = u;
          prev_arc[arc.to] = idx;
          pq.emplace(nd, arc.to);
        }
      }
    }
    if (!std::isfinite(dist[sink])) {
      return Status::Invalid(
          "network cannot carry the requested flow (short by " +
          std::to_string(remaining) + " units)");
    }
    // Update potentials.
    for (std::size_t v = 0; v < n; ++v) {
      if (std::isfinite(dist[v])) potential[v] += dist[v];
    }
    // Find the bottleneck on the path.
    double push = remaining;
    for (std::size_t v = sink; v != source; v = prev_node[v]) {
      push = std::min(push, graph_[prev_node[v]][prev_arc[v]].capacity);
    }
    if (!(push > 0.0)) {
      // A zero/NaN bottleneck on a reachable path means the input weights
      // were degenerate (e.g. NaN propagated into capacities); typed error
      // instead of an abort so the caller can contain the stream.
      return Status::Internal("augmenting path has no positive bottleneck");
    }
    // Augment.
    for (std::size_t v = sink; v != source; v = prev_node[v]) {
      Arc& arc = graph_[prev_node[v]][prev_arc[v]];
      arc.capacity -= push;
      graph_[arc.to][arc.rev].capacity += push;
      solution.cost += push * arc.cost;
    }
    solution.flow += push;
    remaining -= push;
    ++solution.iterations;
  }
  return solution;
}

double MinCostFlow::FlowOn(int arc_id) const {
  BAGCPD_CHECK(arc_id >= 0 &&
               static_cast<std::size_t>(arc_id) < arc_handles_.size());
  const auto [node, index] = arc_handles_[static_cast<std::size_t>(arc_id)];
  const Arc& fwd = graph_[node][index];
  // Flow on the forward arc equals the residual capacity of its reverse arc.
  return graph_[fwd.to][fwd.rev].capacity;
}

Result<EmdSolution> ReferenceEmdDetailed(SignatureView a, SignatureView b,
                                         GroundDistance ground) {
  std::function<double(PointView, PointView)> distance;
  switch (ground) {
    case GroundDistance::kSquaredEuclidean:
      distance = [](PointView x, PointView y) { return SquaredDistance(x, y); };
      break;
    case GroundDistance::kManhattan:
      distance = [](PointView x, PointView y) {
        return ManhattanDistance(x, y);
      };
      break;
    case GroundDistance::kEuclidean:
    default:
      distance = [](PointView x, PointView y) {
        return EuclideanDistance(x, y);
      };
      break;
  }
  const std::size_t k = a.size();
  const std::size_t l = b.size();
  const double total_flow = std::min(a.TotalWeight(), b.TotalWeight());
  const std::size_t source = 0;
  const std::size_t sink = k + l + 1;
  MinCostFlow network(k + l + 2);
  for (std::size_t i = 0; i < k; ++i) {
    network.AddArc(source, 1 + i, a.weight(i), 0.0);
  }
  std::vector<std::vector<int>> ids(k, std::vector<int>(l));
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < l; ++j) {
      ids[i][j] =
          network.AddArc(1 + i, 1 + k + j, std::min(a.weight(i), b.weight(j)),
                         distance(a.center(i), b.center(j)));
    }
  }
  for (std::size_t j = 0; j < l; ++j) {
    network.AddArc(1 + k + j, sink, b.weight(j), 0.0);
  }
  BAGCPD_ASSIGN_OR_RETURN(FlowSolution flow,
                          network.Solve(source, sink, total_flow));
  EmdSolution out;
  out.total_flow = flow.flow;
  out.cost = flow.cost;
  out.flow = Matrix(k, l);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < l; ++j) {
      out.flow(i, j) = network.FlowOn(ids[i][j]);
    }
  }
  out.emd = out.cost / out.total_flow;
  return out;
}

}  // namespace bagcpd
