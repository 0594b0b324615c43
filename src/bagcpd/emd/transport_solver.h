// Dedicated transportation-problem solver for the complete bipartite
// signature network behind every EMD evaluation (paper Eqs. 8-12).
//
// The generic MinCostFlow reference (min_cost_flow.h) rebuilds a
// vector-of-vectors adjacency, runs a binary-heap Dijkstra, and calls a
// `std::function` ground distance once per transport arc — from scratch for
// every signature pair. EmdWorkspace replaces all of that on the hot path:
//
//  * ONE reusable workspace holds flat CSR-style arc arrays (to / capacity /
//    cost / reverse-index), the Johnson potentials, the Dijkstra dist/prev
//    arrays, and the K x L ground-distance matrix. Buffers grow
//    monotonically, so steady-state solves perform ZERO heap allocations
//    (allocation_count() exposes the growth counter the perf gate pins).
//  * The CSR layout keeps the reference's per-node arc order, and in it
//    every node's residual arcs form at most two contiguous runs whose heads
//    are consecutive node ids (source -> supply 1..K; supply -> source, then
//    demand K+1..K+L; demand -> supply 1..K, then sink; sink -> demand). One
//    relaxation kernel walks such a run with no per-arc gather through the
//    arc heads, every base pointer hoisted, two arcs per SSE2 step and a
//    scalar remainder. Each arc keeps the reference's exact arithmetic and
//    comparisons, so every relaxation matches it bit for bit.
//  * The EMD network is complete bipartite and tiny (K + L + 2 nodes) at the
//    paper's signature sizes, so Dijkstra runs as a dense O(n^2) scan: a
//    strict-< argmin over a key array that holds dist for unvisited nodes
//    and +inf once a node is popped, which picks the lowest index among
//    equal distances. That is the exact processing order of the reference
//    heap (which pops (dist, node) pairs), so every augmentation reproduces
//    the reference augmentation sequence, and every rounding, bit for bit.
//    The kernel applies each arc's result with selects, not branches, since
//    at these sizes both of its tests are data-dependent coin flips.
//  * Past a node-count crossover (large-K workloads: graph
//    features, high-dimensional bags-of-features), the same scratch runs an
//    indexed 4-ary heap with decrease-key instead. Its keys are the
//    (dist, node) pairs the dense scan minimizes, so the pop order — and
//    therefore every relaxation, augmentation, and rounding — is STILL
//    bitwise-identical to the dense scan; only the selection cost drops from
//    O(n) per pop to O(log n). It relaxes through the same kernel, which
//    there skips pairs of dead arcs and writes only the arcs it takes (at
//    large K most residual arcs carry no flow and improvements are rare); a
//    demand node's K arcs back to the supply side carry flow on only a few
//    arcs, so a bitmask of those lets it relax just them.
//    The crossover is heap_threshold() (K + L; 0 = always dense), default
//    kDefaultEmdHeapAt.
//  * A batched ground-distance kernel fills the cost matrix directly from
//    the two packed signature buffers, dispatching ONCE on the
//    GroundDistance enum instead of through a GroundDistanceFn per arc.
//  * ComputeBatch solves a run of pairs sharing one operand in one call (the
//    detector's rolling-table column shares its newest signature on the
//    right; a matrix row shares its signature on the left): the shared
//    side's transpose is hoisted out of the per-pair fill — one vectorized
//    pass over all K x L cost matrices per shared left signature — and the
//    potentials/dist/prev/heap scratch is reused across pairs without
//    re-allocation. Every per-pair value is bitwise-identical to the
//    corresponding serial Compute call.
//
// Ownership rules (see README "Performance"): a BagStreamDetector owns one
// workspace (inside its EmdSolver) for its unpooled scoring path; a matrix
// fill (PairwiseEmdMatrix / CrossDistanceMatrix) without a pool uses one
// local workspace per call; every chunk that runs on a pool uses its
// thread's ThreadLocalEmdWorkspace() / ThreadLocalEmdSolver(). A workspace
// is NOT thread-safe — never share one across concurrent solves.

#ifndef BAGCPD_EMD_TRANSPORT_SOLVER_H_
#define BAGCPD_EMD_TRANSPORT_SOLVER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bagcpd/common/result.h"
#include "bagcpd/emd/emd.h"
#include "bagcpd/emd/ground_distance.h"
#include "bagcpd/signature/signature.h"

namespace bagcpd {

/// \brief Default K+L crossover at which the exact solver's Dijkstra switches
/// from the dense O(n^2) scan to the indexed 4-ary heap. Measured on random
/// K = L instances with 2-d centers (bench/micro_emd's large-K shapes plus
/// intermediate sizes; x86-64 4-vCPU VM, SSE2 build), heap speed over dense
/// as dense time / heap time: 0.6 at K + L = 24-40, 0.8 at 48, 0.9 at 64,
/// 1.0 at 80, 1.15 at 96, 1.3 at 128 and 1.6 at 192, so the tie now sits
/// near K + L = 80. The default stays at 32 until it is re-measured and moved
/// on purpose; it is a performance key of the canonical spec (`emd-heap-at=`),
/// which checkpoint imports do not compare, so a move strands no checkpoint
/// exported with the old value. Both strategies
/// produce bitwise-identical results; the threshold only trades selection
/// cost. 0 disables the heap entirely.
inline constexpr std::size_t kDefaultEmdHeapAt = 32;

/// \brief Reusable, allocation-free-in-steady-state EMD transport solver.
///
/// Solves the full K x L transportation problem every time (no 1-d fast
/// path), exactly like the MinCostFlow reference construction in
/// ComputeEmdDetailed — results are bitwise-identical to it by design.
class EmdWorkspace {
 public:
  EmdWorkspace() = default;

  // The scratch buffers are the whole point of the type; accidental copies
  // would silently defeat reuse.
  EmdWorkspace(const EmdWorkspace&) = delete;
  EmdWorkspace& operator=(const EmdWorkspace&) = delete;
  EmdWorkspace(EmdWorkspace&&) = default;
  EmdWorkspace& operator=(EmdWorkspace&&) = default;

  /// \brief EMD between two signatures with a built-in ground distance
  /// (batched enum-dispatched cost kernel; the fastest path).
  Result<double> Compute(SignatureView a, SignatureView b,
                         GroundDistance ground);

  /// \brief EMD with a custom ground distance (called once per (k, l) cost
  /// matrix entry, not once per residual arc).
  Result<double> Compute(SignatureView a, SignatureView b,
                         const GroundDistanceFn& ground);

  /// \brief Full solution including the optimal flow matrix. The returned
  /// EmdSolution owns its flow Matrix (one allocation for the caller); the
  /// solve itself still runs entirely inside the workspace.
  Result<EmdSolution> ComputeDetailed(SignatureView a, SignatureView b,
                                      const GroundDistanceFn& ground);

  /// \brief Enum-dispatched variant of ComputeDetailed.
  Result<EmdSolution> ComputeDetailed(SignatureView a, SignatureView b,
                                      GroundDistance ground);

  /// \brief Solves `count` pairs sharing a left operand in one call: `out[p]`
  /// is bitwise-identical to `Compute(a, bs[p], ground)`. All cost matrices
  /// are filled in ONE vectorized pass over a concatenated (d x sum L_p)
  /// transposed demand block, and all scratch (cost block, network, Dijkstra
  /// state) is reused across pairs, so steady-state batches allocate
  /// nothing. On error the batch returns the error of the first failing pair
  /// in pair order — the one the per-pair Compute loop would surface — and
  /// `out` is written only for the pairs before it.
  Status ComputeBatch(SignatureView a, const SignatureView* bs,
                      std::size_t count, GroundDistance ground, double* out);

  /// \brief Shared-right form: `out[p]` == `Compute(as[p], b, ground)` — the
  /// detector's rolling-table shape, where the newest window signature is the
  /// right operand of every new solve. B is transposed once; scratch reuse
  /// and error order as in the shared-left form.
  Status ComputeBatch(const SignatureView* as, std::size_t count,
                      SignatureView b, GroundDistance ground, double* out);

  /// \brief Validates the pair and fills the K x L ground-distance matrix
  /// through the batched vectorized kernel WITHOUT building the flow
  /// network. The approximate solvers (emd/approx/) run their iterations
  /// directly over cost_matrix() afterwards, reusing this workspace's packed
  /// cost buffer; the exact Compute() paths call it internally.
  Status PrepareCost(SignatureView a, SignatureView b, GroundDistance ground);

  /// \brief Row-major K x L cost matrix of the last PrepareCost/Compute.
  /// Valid until the next call that re-lays-out the workspace.
  const double* cost_matrix() const { return cost_matrix_.data(); }
  std::size_t cost_rows() const { return k_; }
  std::size_t cost_cols() const { return l_; }

  /// \brief Number of successful solves since construction.
  std::uint64_t solve_count() const { return solve_count_; }

  /// \brief K+L at or above which SolveNetwork selects the indexed 4-ary
  /// heap Dijkstra instead of the dense O(n^2) scan. 0 forces the dense scan
  /// always (today's behavior, bit-for-bit — though the heap is also
  /// bitwise-identical by construction). Exposed through
  /// EmdSolverOptions::heap_at / the `emd-heap-at=` spec key.
  void set_heap_threshold(std::size_t k_plus_l) { heap_threshold_ = k_plus_l; }
  std::size_t heap_threshold() const { return heap_threshold_; }

  /// \brief Number of buffer growths since construction. Once the workspace
  /// has seen the largest (K, L) of its call site, this stops moving —
  /// "allocations per solve" in steady state is exactly zero, which
  /// bench/micro_emd measures and tools/check_perf_gate.py enforces.
  std::uint64_t allocation_count() const { return allocation_count_; }

  /// \brief Per-owner memory ceiling for the monotonically-growing scratch.
  /// 0 (the default) means unlimited — buffers never shrink, the historical
  /// behavior. With a ceiling set, ShrinkToCeiling() releases ALL scratch
  /// whenever the retained footprint exceeds the ceiling; owners call it at
  /// quiet points (BagStreamDetector::Reset), never mid-solve. The next
  /// solve regrows to its actual need and the regrowth is visible in
  /// allocation_count() — which is exactly what the regression test pins.
  void set_retained_byte_ceiling(std::size_t bytes) {
    retained_byte_ceiling_ = bytes;
  }
  std::size_t retained_byte_ceiling() const { return retained_byte_ceiling_; }

  /// \brief Bytes currently held across all scratch buffers (capacities, not
  /// sizes — what the allocator actually retains).
  std::size_t retained_bytes() const;

  /// \brief Releases every scratch buffer if a ceiling is set and
  /// retained_bytes() exceeds it; otherwise a no-op. Safe between solves.
  void ShrinkToCeiling();

  /// \brief Unconditionally releases all scratch (retained_bytes() drops to
  /// zero; the next solve regrows). Owners with a pooled policy of their own
  /// (EmdSolver) use this directly.
  void ReleaseBuffers();

 private:
  // Validates the pair, sizes the buffers for (K, L), and fills the cost
  // matrix via the batched kernel (enum; public as PrepareCost) or the
  // callback (fn).
  Status Prepare(SignatureView a, SignatureView b,
                 const GroundDistanceFn& ground);
  Status Layout(SignatureView a, SignatureView b);

  // Builds the CSR residual network (arc order identical to the MinCostFlow
  // reference construction) and runs successive shortest augmenting paths
  // for min(total weights) units. On success `emd_out` is Eq. 12's value and
  // the residual arc capacities hold the optimal flow. `cost` points at the
  // k_ x l_ ground-distance block with `cost_stride` doubles between rows
  // (the batched shared-left fill stores all pairs in one wide matrix).
  Status SolveNetwork(SignatureView a, SignatureView b, const double* cost,
                      std::size_t cost_stride, double* emd_out,
                      double* total_flow_out, double* cost_out);

  // SolveNetwork plus extraction of the optimal flow matrix (the shared
  // tail of both ComputeDetailed overloads; Prepare must have run).
  Result<EmdSolution> SolveDetailed(SignatureView a, SignatureView b);

  void BuildNetwork(SignatureView a, SignatureView b, const double* cost,
                    std::size_t cost_stride);

  // One Dijkstra over the residual network from the source, filling
  // dist_/prev_arc_. The two selection strategies pop the exact same
  // (dist, node)-lexicographic order and relax through the same kernel, so
  // they are interchangeable bit for bit; SolveNetwork picks by
  // heap_threshold_.
  void DijkstraDense();
  void DijkstraHeap();

  // Indexed 4-ary min-heap primitives over heap_ (node ids) keyed by
  // (key_[node], node); heap_pos_[node] is position + 1, 0 = absent.
  bool HeapLess(std::size_t u, std::size_t v) const {
    return key_[u] < key_[v] || (key_[u] == key_[v] && u < v);
  }
  void HeapSiftUp(std::size_t pos);
  void HeapSiftDown(std::size_t pos);

  // Re-derives live_'s bit for `arc` after its capacity changed (no-op for
  // arcs other than demand -> supply residual arcs).
  void MarkLive(std::size_t arc);

  // Sets the (k, l) shape and sizes every network/Dijkstra buffer (but not
  // the cost/transpose blocks, which the batch paths manage separately).
  void LayoutShape(std::size_t k, std::size_t l);

  // Shared implementation behind the two public ComputeBatch overloads.
  // Exactly one stride is 0, meaning "every pair uses *as / *bs" (the shared
  // operand).
  Status ComputeBatchImpl(const SignatureView* as, std::size_t as_stride,
                          const SignatureView* bs, std::size_t bs_stride,
                          std::size_t count, GroundDistance ground,
                          double* out);

  // Grows `v` to at least `count` elements (never shrinks), counting real
  // reallocations into allocation_count_.
  template <typename T>
  void Ensure(std::vector<T>* v, std::size_t count);

  std::size_t k_ = 0;      // Supply-side cluster count of the current solve.
  std::size_t l_ = 0;      // Demand-side cluster count.
  std::size_t nodes_ = 0;  // k_ + l_ + 2.
  std::size_t arcs_ = 0;   // 2 * (k_ + l_ + k_ * l_), forward + residual.

  std::vector<double> cost_matrix_;  // k_ x l_ ground distances, row-major.
  std::vector<double> b_transposed_;  // d x l_ demand centers, for the
                                      // unit-stride batched cost kernel.

  // Flat residual network. Arc e leaves the node whose CSR range contains e;
  // arc_rev_[e] is the global index of its reverse arc.
  std::vector<std::size_t> arc_to_;
  std::vector<std::size_t> arc_rev_;
  std::vector<double> arc_cap_;
  std::vector<double> arc_cost_;

  // Dijkstra + potentials scratch (nodes_ entries in use). prev_arc_[v] is
  // the arc that last improved dist_[v]; its tail is arc_to_[arc_rev_[e]].
  // key_ is the selection key: for the dense scan dist_ for unvisited nodes
  // and +inf once popped; for the heap a node's dist_ as of its last sift.
  std::vector<double> dist_;
  std::vector<double> potential_;
  std::vector<std::size_t> prev_arc_;
  std::vector<double> key_;

  // Indexed 4-ary heap scratch (large-K selection; see DijkstraHeap).
  std::vector<std::size_t> heap_;      // Node ids in heap order.
  std::vector<std::size_t> heap_pos_;  // node -> heap position + 1; 0 = out.
  std::vector<std::size_t> improved_;  // Heads one run improved.
  // Bit i of demand j's live_words_ words is set iff its residual arc back
  // to supply i has capacity above kFlowEpsilon; kept by the heap path only.
  std::vector<std::uint64_t> live_;
  std::size_t live_words_ = 0;
  std::size_t heap_size_ = 0;

  // Multi-pair batch scratch: one flat cost block for all pairs (wide
  // row-major k x sum(L_p) for shared-left, per-pair contiguous for
  // shared-right)
  // plus the per-pair offsets into it.
  std::vector<double> batch_cost_;
  std::vector<std::size_t> batch_off_;

  std::size_t heap_threshold_ = kDefaultEmdHeapAt;
  std::uint64_t solve_count_ = 0;
  std::uint64_t allocation_count_ = 0;
  std::size_t retained_byte_ceiling_ = 0;  // 0 = never shrink.
};

/// \brief Per-thread workspace used by the free enum-dispatched ComputeEmd
/// entry point and by the pooled chunks of the matrix fills. Each thread gets its own instance, so concurrent solves never
/// share scratch state. Never solve through this from code that can run
/// INSIDE another solve (a custom GroundDistanceFn) — such paths must use a
/// local workspace, as the fn-based free entry points do.
EmdWorkspace& ThreadLocalEmdWorkspace();

}  // namespace bagcpd

#endif  // BAGCPD_EMD_TRANSPORT_SOLVER_H_
