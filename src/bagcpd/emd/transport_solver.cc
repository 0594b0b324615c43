#include "bagcpd/emd/transport_solver.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

// The SSE2 kernels blend std::size_t arc and node indices in 64-bit lanes,
// so they are x86-64 only; every other build runs the scalar loops.
#if defined(__SSE2__) && defined(__x86_64__)
#include <emmintrin.h>
#define BAGCPD_EMD_SSE2 1
#endif

#include "bagcpd/common/check.h"
#include "bagcpd/common/point.h"

namespace bagcpd {

template <typename T>
void EmdWorkspace::Ensure(std::vector<T>* v, std::size_t count) {
  if (v->size() >= count) return;
  if (v->capacity() < count) ++allocation_count_;
  v->resize(count);
}

void EmdWorkspace::LayoutShape(std::size_t k, std::size_t l) {
  k_ = k;
  l_ = l;
  nodes_ = k_ + l_ + 2;
  arcs_ = 2 * (k_ + l_ + k_ * l_);
  Ensure(&arc_to_, arcs_);
  Ensure(&arc_rev_, arcs_);
  Ensure(&arc_cap_, arcs_);
  Ensure(&arc_cost_, arcs_);
  Ensure(&dist_, nodes_);
  Ensure(&potential_, nodes_);
  Ensure(&prev_arc_, nodes_);
  Ensure(&key_, nodes_);
  Ensure(&improved_, nodes_);
  live_words_ = (k_ + 63) / 64;
  Ensure(&live_, l_ * live_words_);
  Ensure(&heap_, nodes_);
  Ensure(&heap_pos_, nodes_);
}

namespace {

// Batched ground-distance fill: cost is a row-major (k x width) block whose
// columns correspond to the transposed demand block `bt` (d x width). One
// enum dispatch for the whole block, unit-stride inner loops. Every entry
// accumulates its per-coordinate terms in the same t order with the same
// operations as the scalar PointView kernels (init with the t=0 term, then
// one squared/absolute difference per coordinate; 0 + x == x exactly for the
// non-negative terms involved), and the baseline x86-64 target has no FMA
// contraction to re-associate them — so each entry is bitwise-identical
// regardless of `width`. That invariance is what lets the batch path fill
// MANY pairs' cost matrices in one wide pass (width = sum of the pairs' L)
// and still match the per-pair fill bit for bit.
void FillCostBlock(const double* ac, std::size_t k, std::size_t d,
                   const double* bt, std::size_t width, GroundDistance ground,
                   double* cost) {
  switch (ground) {
    case GroundDistance::kSquaredEuclidean:
      for (std::size_t i = 0; i < k; ++i) {
        const double* ai = ac + i * d;
        double* row = cost + i * width;
        const double a0 = ai[0];
        for (std::size_t j = 0; j < width; ++j) {
          const double diff = a0 - bt[j];
          row[j] = diff * diff;
        }
        for (std::size_t t = 1; t < d; ++t) {
          const double at = ai[t];
          const double* btr = bt + t * width;
          for (std::size_t j = 0; j < width; ++j) {
            const double diff = at - btr[j];
            row[j] += diff * diff;
          }
        }
      }
      break;
    case GroundDistance::kManhattan:
      for (std::size_t i = 0; i < k; ++i) {
        const double* ai = ac + i * d;
        double* row = cost + i * width;
        const double a0 = ai[0];
        for (std::size_t j = 0; j < width; ++j) {
          row[j] = std::abs(a0 - bt[j]);
        }
        for (std::size_t t = 1; t < d; ++t) {
          const double at = ai[t];
          const double* btr = bt + t * width;
          for (std::size_t j = 0; j < width; ++j) {
            row[j] += std::abs(at - btr[j]);
          }
        }
      }
      break;
    case GroundDistance::kEuclidean:
    default:  // An out-of-range value fills as Euclidean, the default.
      for (std::size_t i = 0; i < k; ++i) {
        const double* ai = ac + i * d;
        double* row = cost + i * width;
        const double a0 = ai[0];
        for (std::size_t j = 0; j < width; ++j) {
          const double diff = a0 - bt[j];
          row[j] = diff * diff;
        }
        for (std::size_t t = 1; t < d; ++t) {
          const double at = ai[t];
          const double* btr = bt + t * width;
          for (std::size_t j = 0; j < width; ++j) {
            const double diff = at - btr[j];
            row[j] += diff * diff;
          }
        }
        for (std::size_t j = 0; j < width; ++j) {
          row[j] = std::sqrt(row[j]);
        }
      }
      break;
  }
}

// Same rejection the reference applies per transport arc, in the same
// row-major order, so the surfaced error is identical. `stride` lets the
// batch path validate a pair whose rows live inside a wider block.
Status ValidateCostBlock(const double* cost, std::size_t k, std::size_t l,
                         std::size_t stride) {
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < l; ++j) {
      const double dist = cost[i * stride + j];
      if (!(dist >= 0.0) || !std::isfinite(dist)) {
        return Status::Invalid("ground distance produced a negative or "
                               "non-finite value");
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status EmdWorkspace::PrepareCost(SignatureView a, SignatureView b,
                                 GroundDistance ground) {
  BAGCPD_RETURN_NOT_OK(a.Validate());
  BAGCPD_RETURN_NOT_OK(b.Validate());
  if (a.dim() != b.dim()) {
    return Status::Invalid("signatures have different dimensions");
  }
  LayoutShape(a.size(), b.size());
  Ensure(&cost_matrix_, k_ * l_);
  Ensure(&b_transposed_, a.dim() * l_);
  // Batched kernel: one dispatch for the whole K x L matrix, streaming both
  // packed center blocks, instead of a ground-distance call per arc. The
  // demand centers are transposed once into a (d x L) block so every inner
  // loop walks unit-stride over j — straight-line code the compiler
  // auto-vectorizes. See FillCostBlock for the bitwise-identity argument.
  const std::size_t d = a.dim();
  const double* bc = b.centers_data();
  double* bt = b_transposed_.data();
  for (std::size_t j = 0; j < l_; ++j) {
    for (std::size_t t = 0; t < d; ++t) {
      bt[t * l_ + j] = bc[j * d + t];
    }
  }
  FillCostBlock(a.centers_data(), k_, d, bt, l_, ground, cost_matrix_.data());
  return ValidateCostBlock(cost_matrix_.data(), k_, l_, l_);
}

void EmdWorkspace::BuildNetwork(SignatureView a, SignatureView b,
                                const double* cost_block,
                                std::size_t cost_stride) {
  // Node layout (identical to the reference construction): source = 0,
  // supply nodes 1..K, demand nodes K+1..K+L, sink = K+L+1. Per-node arc
  // order also matches the reference adjacency lists exactly — forward and
  // residual arcs land where the reference's AddArc would have appended
  // them — so Dijkstra relaxes arcs in the identical sequence:
  //   source:    K forward arcs to the supply nodes.
  //   supply i:  residual to source, then L forward transport arcs.
  //   demand j:  K residual transport arcs (one per supply), then the
  //              forward arc to the sink.
  //   sink:      L residual arcs to the demand nodes.
  const double* wa = a.weights_data();
  const double* wb = b.weights_data();
  const std::size_t supply_base = k_;                    // First supply arc.
  const std::size_t demand_base = k_ + k_ * (l_ + 1);    // First demand arc.
  const std::size_t sink_base = demand_base + l_ * (k_ + 1);
  const std::size_t sink = nodes_ - 1;
  for (std::size_t i = 0; i < k_; ++i) {
    const std::size_t fwd = i;                      // source -> supply i.
    const std::size_t rev = supply_base + i * (l_ + 1);
    arc_to_[fwd] = 1 + i;
    arc_cap_[fwd] = wa[i];
    arc_cost_[fwd] = 0.0;
    arc_rev_[fwd] = rev;
    arc_to_[rev] = 0;
    arc_cap_[rev] = 0.0;
    arc_cost_[rev] = -0.0;
    arc_rev_[rev] = fwd;
  }
  for (std::size_t i = 0; i < k_; ++i) {
    for (std::size_t j = 0; j < l_; ++j) {
      const std::size_t fwd = supply_base + i * (l_ + 1) + 1 + j;
      const std::size_t rev = demand_base + j * (k_ + 1) + i;
      const double cost = cost_block[i * cost_stride + j];
      arc_to_[fwd] = 1 + k_ + j;
      arc_cap_[fwd] = std::min(wa[i], wb[j]);
      arc_cost_[fwd] = cost;
      arc_rev_[fwd] = rev;
      arc_to_[rev] = 1 + i;
      arc_cap_[rev] = 0.0;
      arc_cost_[rev] = -cost;
      arc_rev_[rev] = fwd;
    }
  }
  for (std::size_t j = 0; j < l_; ++j) {
    const std::size_t fwd = demand_base + j * (k_ + 1) + k_;
    const std::size_t rev = sink_base + j;
    arc_to_[fwd] = sink;
    arc_cap_[fwd] = wb[j];
    arc_cost_[fwd] = 0.0;
    arc_rev_[fwd] = rev;
    arc_to_[rev] = 1 + k_ + j;
    arc_cap_[rev] = 0.0;
    arc_cost_[rev] = -0.0;
    arc_rev_[rev] = fwd;
  }
}

namespace {

// One contiguous run of residual arcs leaving a node: arcs first_arc ..
// first_arc + count - 1 point at the consecutive nodes first_head ..
// first_head + count - 1. BuildNetwork's CSR layout gives every node at most
// two runs:
//   source:    K arcs to supply 1..K.
//   supply i:  one arc to the source, then L arcs to demand K+1..K+L.
//   demand j:  K arcs to supply 1..K, then one arc to the sink.
//   sink:      L arcs to demand K+1..K+L.
struct ArcRun {
  std::size_t first_arc = 0;
  std::size_t first_head = 0;
  std::size_t count = 0;
};

// The runs of node u that can relax anything, in CSR order (the second is
// empty except for demand nodes). A supply node's arc back to the source is
// left out: the source is always popped first, with dist 0, and a popped
// node is never relaxed again (see DijkstraHeap), so that arc never takes.
void NodeRuns(std::size_t u, std::size_t k, std::size_t l, ArcRun runs[2]) {
  const std::size_t demand_base = k + k * (l + 1);
  const std::size_t sink = k + l + 1;
  runs[1] = {};
  if (u == 0) {
    runs[0] = {0, 1, k};
  } else if (u <= k) {
    runs[0] = {k + (u - 1) * (l + 1) + 1, k + 1, l};
  } else if (u < sink) {
    const std::size_t begin = demand_base + (u - 1 - k) * (k + 1);
    runs[0] = {begin, 1, k};
    runs[1] = {begin + k, sink, 1};
  } else {
    runs[0] = {demand_base + l * (k + 1), k + 1, l};
  }
}

// The arrays one relaxation reads and writes, hoisted out of the workspace
// once per Dijkstra so the kernel never reloads a base pointer.
struct RelaxArrays {
  const double* cap;
  const double* cost;
  const double* potential;
  double* dist;
  double* key;  // Dense selection keys; written only when !kHeap.
  std::size_t* prev_arc;
};

// Relaxes one arc (to head `to`) out of a node at distance du with potential
// pu, with the reference arithmetic spelled out at RelaxRun below, and
// returns whether it took. The dense scan (!kHeap) applies the result with
// selects and also moves key[to]; the heap writes only when it takes.
template <bool kHeap>
bool RelaxArc(const RelaxArrays& s, std::size_t arc, std::size_t to, double du,
              double pu) {
  double rc = s.cost[arc] + pu - s.potential[to];
  rc = rc < 0.0 ? 0.0 : rc;
  const double nd = du + rc;
  const bool take =
      !(s.cap[arc] <= kFlowEpsilon) & (nd + kFlowEpsilon < s.dist[to]);
  if constexpr (kHeap) {
    if (take) {
      s.dist[to] = nd;
      s.prev_arc[to] = arc;
    }
  } else {
    s.dist[to] = take ? nd : s.dist[to];
    s.key[to] = take ? nd : s.key[to];
    s.prev_arc[to] = take ? arc : s.prev_arc[to];
  }
  return take;
}

// Relaxes every arc of `run` out of a node at distance du with potential pu.
// Each arc does the reference arithmetic and comparisons exactly:
//   rc = cost + pu - potential[to];  rc < 0.0 -> 0.0 (floating-point noise);
//   nd = du + rc;
//   take iff !(cap <= kFlowEpsilon) && nd + kFlowEpsilon < dist[to]
// and a taken arc sets dist[to] = nd and prev_arc[to] to itself. Heads within
// a run are distinct, so the arcs are independent: SSE2 relaxes two at a
// time, and the scalar loop takes the remainder (every arc on builds without
// SSE2).
//
// Only the way a result is applied differs between the two strategies,
// each tuned to the sizes it runs at by default. The dense scan (small K,
// where both tests are data-dependent coin flips) applies every arc with
// selects, no branches, and also moves key[to] to nd. The heap (large K) sees
// mostly dead residual arcs (only the few transport arcs that carry flow can
// be walked back) and rare improvements; it skips a pair of dead arcs before
// loading anything else, writes only the arcs it takes, and appends their
// heads to `improved` in arc order. Returns how many heads it appended.
template <bool kHeap>
std::size_t RelaxRun(const RelaxArrays& s, const ArcRun& run, double du,
                     double pu, std::size_t* improved) {
  const std::size_t count = run.count;
  std::size_t appended = 0;
  std::size_t i = 0;
#ifdef BAGCPD_EMD_SSE2
  const double* cap = s.cap + run.first_arc;
  const double* cost = s.cost + run.first_arc;
  const double* potential = s.potential + run.first_head;
  double* dist = s.dist + run.first_head;
  double* key = s.key + run.first_head;
  std::size_t* prev_arc = s.prev_arc + run.first_head;
  const __m128d vdu = _mm_set1_pd(du);
  const __m128d vpu = _mm_set1_pd(pu);
  const __m128d veps = _mm_set1_pd(kFlowEpsilon);
  const __m128d zero = _mm_setzero_pd();
  const __m128i two = _mm_set1_epi64x(2);
  __m128i arc = _mm_set_epi64x(static_cast<long long>(run.first_arc + 1),
                               static_cast<long long>(run.first_arc));
  for (; i + 2 <= count; i += 2) {
    const __m128d dead = _mm_cmple_pd(_mm_loadu_pd(cap + i), veps);
    if constexpr (kHeap) {
      if (_mm_movemask_pd(dead) == 3) continue;
    }
    __m128d rc = _mm_sub_pd(_mm_add_pd(_mm_loadu_pd(cost + i), vpu),
                            _mm_loadu_pd(potential + i));
    rc = _mm_andnot_pd(_mm_cmplt_pd(rc, zero), rc);
    const __m128d nd = _mm_add_pd(vdu, rc);
    const __m128d old = _mm_loadu_pd(dist + i);
    const __m128d take =
        _mm_andnot_pd(dead, _mm_cmplt_pd(_mm_add_pd(nd, veps), old));
    if constexpr (kHeap) {
      const int bits = _mm_movemask_pd(take);
      if (bits == 0) continue;
      double lanes[2];
      _mm_storeu_pd(lanes, nd);
      for (std::size_t lane = 0; lane < 2; ++lane) {
        if ((bits >> lane) & 1) {
          dist[i + lane] = lanes[lane];
          prev_arc[i + lane] = run.first_arc + i + lane;
          improved[appended++] = run.first_head + i + lane;
        }
      }
    } else {
      _mm_storeu_pd(dist + i, _mm_or_pd(_mm_and_pd(take, nd),
                                        _mm_andnot_pd(take, old)));
      _mm_storeu_pd(key + i, _mm_or_pd(_mm_and_pd(take, nd),
                                       _mm_andnot_pd(take,
                                                     _mm_loadu_pd(key + i))));
      const __m128i take_i = _mm_castpd_si128(take);
      __m128i* prev = reinterpret_cast<__m128i*>(prev_arc + i);
      _mm_storeu_si128(
          prev, _mm_or_si128(_mm_and_si128(take_i, arc),
                             _mm_andnot_si128(take_i, _mm_loadu_si128(prev))));
      arc = _mm_add_epi64(arc, two);
    }
  }
#endif
  for (; i < count; ++i) {
    const bool took =
        RelaxArc<kHeap>(s, run.first_arc + i, run.first_head + i, du, pu);
    if constexpr (kHeap) {
      improved[appended] = run.first_head + i;
      appended += static_cast<std::size_t>(took);
    }
  }
  return appended;
}

// The heap path's relaxation of a demand node's run back to the supply
// nodes: only the arcs whose bit is set in `live` (one bit per arc of the
// run, set iff its capacity is above kFlowEpsilon) can take, so only those
// are relaxed, in arc order. Appends the improved heads like RelaxRun.
std::size_t RelaxLiveArcs(const RelaxArrays& s, const ArcRun& run,
                          const std::uint64_t* live, double du, double pu,
                          std::size_t* improved) {
  std::size_t appended = 0;
  for (std::size_t w = 0; w * 64 < run.count; ++w) {
    for (std::uint64_t bits = live[w]; bits != 0; bits &= bits - 1) {
      const std::size_t i =
          w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
      if (RelaxArc<true>(s, run.first_arc + i, run.first_head + i, du, pu)) {
        improved[appended++] = run.first_head + i;
      }
    }
  }
  return appended;
}

// Lowest-index node with the smallest key, or n when every key is +inf:
// exactly what a strict-< linear scan from node 0 returns. SSE2 runs two
// independent strict-< chains (even and odd nodes) and combines them by
// (key, node); the scalar loop takes the odd tail.
std::size_t ArgMinKey(const double* key, std::size_t n) {
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_node = n;
  std::size_t v = 0;
#ifdef BAGCPD_EMD_SSE2
  if (n >= 2) {
    __m128d vbest = _mm_set1_pd(best);
    __m128i vnode = _mm_set1_epi64x(static_cast<long long>(n));
    __m128i node = _mm_set_epi64x(1, 0);
    const __m128i two = _mm_set1_epi64x(2);
    for (; v + 2 <= n; v += 2) {
      const __m128d kv = _mm_loadu_pd(key + v);
      const __m128i lt = _mm_castpd_si128(_mm_cmplt_pd(kv, vbest));
      vbest = _mm_min_pd(kv, vbest);  // kv < vbest ? kv : vbest.
      vnode =
          _mm_or_si128(_mm_and_si128(lt, node), _mm_andnot_si128(lt, vnode));
      node = _mm_add_epi64(node, two);
    }
    double b[2];
    std::uint64_t at[2];
    _mm_storeu_pd(b, vbest);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(at), vnode);
    const bool odd = b[1] < b[0] || (b[1] == b[0] && at[1] < at[0]);
    best = odd ? b[1] : b[0];
    best_node = static_cast<std::size_t>(odd ? at[1] : at[0]);
  }
#endif
  for (; v < n; ++v) {
    if (key[v] < best) {
      best = key[v];
      best_node = v;
    }
  }
  return best_node;
}

}  // namespace

void EmdWorkspace::DijkstraDense() {
  // Dense O(n^2) selection: the network is complete bipartite and, at the
  // paper's signature sizes, tiny, so a scan beats a heap. key_ holds dist_
  // for unvisited nodes and +inf once a node is popped; ArgMinKey's strict
  // `<` makes the lowest-index node win among equal distances, which
  // reproduces the reference heap's (distance, node) pop order exactly,
  // augmentation for augmentation. A popped node can never be relaxed again
  // (see DijkstraHeap), so its +inf key stays put.
  const std::size_t n = nodes_;
  const RelaxArrays arrays{arc_cap_.data(),  arc_cost_.data(),
                           potential_.data(), dist_.data(),
                           key_.data(),       prev_arc_.data()};
  double* key = key_.data();
  std::copy(arrays.dist, arrays.dist + n, key);
  ArcRun runs[2];
  for (;;) {
    const std::size_t u = ArgMinKey(key, n);
    if (u == n) break;  // Remaining nodes are unreachable.
    const double du = key[u];
    key[u] = std::numeric_limits<double>::infinity();
    const double pu = arrays.potential[u];
    NodeRuns(u, k_, l_, runs);
    RelaxRun<false>(arrays, runs[0], du, pu, nullptr);
    RelaxRun<false>(arrays, runs[1], du, pu, nullptr);
  }
}

void EmdWorkspace::HeapSiftUp(std::size_t pos) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!HeapLess(heap_[pos], heap_[parent])) break;
    std::swap(heap_[pos], heap_[parent]);
    heap_pos_[heap_[pos]] = pos + 1;
    heap_pos_[heap_[parent]] = parent + 1;
    pos = parent;
  }
}

void EmdWorkspace::HeapSiftDown(std::size_t pos) {
  for (;;) {
    const std::size_t first = 4 * pos + 1;
    if (first >= heap_size_) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, heap_size_);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (HeapLess(heap_[c], heap_[best])) best = c;
    }
    if (!HeapLess(heap_[best], heap_[pos])) break;
    std::swap(heap_[pos], heap_[best]);
    heap_pos_[heap_[pos]] = pos + 1;
    heap_pos_[heap_[best]] = best + 1;
    pos = best;
  }
}

void EmdWorkspace::DijkstraHeap() {
  // Indexed 4-ary heap with decrease-key, keyed by the exact (dist, node)
  // pairs the dense scan minimizes. At any step the heap holds precisely the
  // unvisited nodes with finite tentative distance (a node enters when first
  // relaxed, leaves when popped; a popped node can never be relaxed again
  // because reduced costs are clamped >= 0, so nd >= du >= its final dist).
  // The pop sequence — and therefore every relaxation, prev pointer, and
  // augmentation downstream — is bitwise-identical to DijkstraDense; only
  // the selection cost changes. 4-ary beats binary here: sift-downs touch
  // one cache line of children per level and the tree is half as deep.
  //
  // Each run goes through the same RelaxRun kernel as the dense path, which
  // lists the improved heads; their heap updates then follow in arc order.
  // A demand node's run back to the supply side goes through RelaxLiveArcs
  // instead, which relaxes only the arcs live_ marks (the others cannot
  // take). A node's key_ moves to its new dist_ only right before its own
  // sift, so every sift sees exactly the keys it would have seen had the
  // updates interleaved with the relaxations.
  const RelaxArrays arrays{arc_cap_.data(),  arc_cost_.data(),
                           potential_.data(), dist_.data(),
                           key_.data(),       prev_arc_.data()};
  std::size_t* improved = improved_.data();
  const std::size_t source = 0;
  std::fill(heap_pos_.begin(), heap_pos_.begin() + nodes_, 0);
  key_[source] = arrays.dist[source];
  heap_[0] = source;
  heap_pos_[source] = 1;
  heap_size_ = 1;
  ArcRun runs[2];
  while (heap_size_ > 0) {
    const std::size_t u = heap_[0];
    heap_pos_[u] = 0;
    --heap_size_;
    if (heap_size_ > 0) {
      heap_[0] = heap_[heap_size_];
      heap_pos_[heap_[0]] = 1;
      HeapSiftDown(0);
    }
    const double du = arrays.dist[u];
    const double pu = arrays.potential[u];
    NodeRuns(u, k_, l_, runs);
    for (std::size_t r = 0; r < 2; ++r) {
      const ArcRun& run = runs[r];
      const bool demand_to_supply = r == 0 && u > k_ && u < nodes_ - 1;
      const std::size_t count =
          demand_to_supply
              ? RelaxLiveArcs(arrays, run,
                              live_.data() + (u - 1 - k_) * live_words_, du,
                              pu, improved)
              : RelaxRun<true>(arrays, run, du, pu, improved);
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t to = improved[i];
        key_[to] = arrays.dist[to];
        if (heap_pos_[to] == 0) {
          heap_[heap_size_] = to;
          heap_pos_[to] = ++heap_size_;
        }
        HeapSiftUp(heap_pos_[to] - 1);  // Decrease-key or insert.
      }
    }
  }
}

void EmdWorkspace::MarkLive(std::size_t arc) {
  const std::size_t demand_base = k_ + k_ * (l_ + 1);
  if (arc < demand_base) return;
  const std::size_t j = (arc - demand_base) / (k_ + 1);
  const std::size_t i = (arc - demand_base) % (k_ + 1);
  if (j >= l_ || i == k_) return;  // A sink arc, not demand -> supply.
  std::uint64_t& word = live_[j * live_words_ + i / 64];
  const std::uint64_t bit = std::uint64_t{1} << (i % 64);
  word = arc_cap_[arc] <= kFlowEpsilon ? word & ~bit : word | bit;
}

Status EmdWorkspace::SolveNetwork(SignatureView a, SignatureView b,
                                  const double* cost_block,
                                  std::size_t cost_stride, double* emd_out,
                                  double* total_flow_out, double* cost_out) {
  const double supply = a.TotalWeight();
  const double demand = b.TotalWeight();
  // Requesting min(W, W') units enforces Eq. 11 (partial matching).
  const double amount = std::min(supply, demand);
  BuildNetwork(a, b, cost_block, cost_stride);

  const std::size_t source = 0;
  const std::size_t sink = nodes_ - 1;
  const double inf = std::numeric_limits<double>::infinity();
  // Both strategies pop the same (dist, node) order — the heap just pays
  // O(log n) per pop instead of an O(n) scan, which wins once the network
  // outgrows the paper's typical signature sizes.
  const bool use_heap = heap_threshold_ != 0 && k_ + l_ >= heap_threshold_;
  if (use_heap) {
    // Every demand -> supply residual arc starts at capacity 0.
    std::fill(live_.begin(), live_.begin() + l_ * live_words_, 0);
  }

  double flow = 0.0;
  double cost = 0.0;
  if (amount > kFlowEpsilon) {
    std::fill(potential_.begin(), potential_.begin() + nodes_, 0.0);
    double remaining = amount;
    while (remaining > kFlowEpsilon) {
      // Dijkstra on reduced costs cost + h[u] - h[v] (all >= 0 by
      // induction).
      std::fill(dist_.begin(), dist_.begin() + nodes_, inf);
      dist_[source] = 0.0;
      if (use_heap) {
        DijkstraHeap();
      } else {
        DijkstraDense();
      }
      if (!std::isfinite(dist_[sink])) {
        return Status::Invalid(
            "network cannot carry the requested flow (short by " +
            std::to_string(remaining) + " units)");
      }
      // Update potentials.
      for (std::size_t v = 0; v < nodes_; ++v) {
        if (std::isfinite(dist_[v])) potential_[v] += dist_[v];
      }
      // Find the bottleneck on the path.
      double push = remaining;
      // The tail of arc e is the head of its reverse arc.
      for (std::size_t v = sink; v != source;
           v = arc_to_[arc_rev_[prev_arc_[v]]]) {
        push = std::min(push, arc_cap_[prev_arc_[v]]);
      }
      if (!(push > 0.0)) {
        // A zero/NaN bottleneck on a reachable path means degenerate input
        // (e.g. NaN weights turned the requested amount NaN); surface it as
        // a typed error so the stream can be contained, never an abort.
        return Status::Internal("augmenting path has no positive bottleneck");
      }
      // Augment.
      for (std::size_t v = sink; v != source;) {
        const std::size_t e = prev_arc_[v];
        arc_cap_[e] -= push;
        arc_cap_[arc_rev_[e]] += push;
        cost += push * arc_cost_[e];
        if (use_heap) {
          MarkLive(e);
          MarkLive(arc_rev_[e]);
        }
        v = arc_to_[arc_rev_[e]];
      }
      flow += push;
      remaining -= push;
    }
  }
  // Eq. 12. The moved mass is positive whenever signature weights are
  // strictly positive; anything else (NaN weights leave flow at 0) is
  // degenerate input reported as a typed error, never an abort.
  if (!(flow > 0.0)) {
    return Status::Invalid("no transportable mass (degenerate weights)");
  }
  // Finite ground distances far enough apart still overflow the sum.
  const double emd = cost / flow;
  if (!std::isfinite(emd)) {
    return Status::Invalid("EMD transport cost overflowed");
  }
  *emd_out = emd;
  *total_flow_out = flow;
  *cost_out = cost;
  ++solve_count_;
  return Status::OK();
}

Result<double> EmdWorkspace::Compute(SignatureView a, SignatureView b,
                                     GroundDistance ground) {
  BAGCPD_RETURN_NOT_OK(PrepareCost(a, b, ground));
  double emd = 0.0;
  double total_flow = 0.0;
  double cost = 0.0;
  BAGCPD_RETURN_NOT_OK(SolveNetwork(a, b, cost_matrix_.data(), l_, &emd,
                                    &total_flow, &cost));
  return emd;
}

Status EmdWorkspace::ComputeBatch(SignatureView a, const SignatureView* bs,
                                  std::size_t count, GroundDistance ground,
                                  double* out) {
  return ComputeBatchImpl(&a, 0, bs, 1, count, ground, out);
}

Status EmdWorkspace::ComputeBatch(const SignatureView* as, std::size_t count,
                                  SignatureView b, GroundDistance ground,
                                  double* out) {
  return ComputeBatchImpl(as, 1, &b, 0, count, ground, out);
}

Status EmdWorkspace::ComputeBatchImpl(const SignatureView* as,
                                      std::size_t as_stride,
                                      const SignatureView* bs,
                                      std::size_t bs_stride, std::size_t count,
                                      GroundDistance ground, double* out) {
  // Validate the pairs in pair order (a before b within a pair, the shared
  // operand once, at pair 0). The first pair that fails ends the batch: the
  // pairs before it are still solved, and their cost-block or solve errors
  // come first, so the batch surfaces exactly the error the per-pair Compute
  // loop would. Shape maxima and the flat cost-block offsets fall out of the
  // same scan.
  Status invalid;
  std::size_t max_k = 0;
  std::size_t max_l = 0;
  std::size_t total_cost = 0;
  for (std::size_t p = 0; p < count; ++p) {
    const SignatureView& a = as[p * as_stride];
    const SignatureView& b = bs[p * bs_stride];
    if (as_stride != 0 || p == 0) invalid = a.Validate();
    if (invalid.ok() && (bs_stride != 0 || p == 0)) invalid = b.Validate();
    if (invalid.ok() && a.dim() != b.dim()) {
      invalid = Status::Invalid("signatures have different dimensions");
    }
    if (!invalid.ok()) {
      count = p;
      break;
    }
    max_k = std::max(max_k, a.size());
    max_l = std::max(max_l, b.size());
    total_cost += a.size() * b.size();
  }
  if (count == 0) return invalid;
  LayoutShape(max_k, max_l);
  Ensure(&batch_cost_, total_cost);
  Ensure(&batch_off_, count + 1);

  // Fill phase. batch_off_[p] addresses pair p's cost block: with a shared
  // left operand it is a COLUMN offset into one wide row-major
  // (k x sum L_p) matrix filled in a single kernel pass; with a shared right
  // operand it is a flat offset to a contiguous (K_p x L) block.
  const bool shared_left = as_stride == 0;
  std::size_t wide_l = 0;
  if (shared_left) {
    const std::size_t d = as->dim();
    const std::size_t k = as->size();
    wide_l = total_cost / k;
    Ensure(&b_transposed_, d * wide_l);
    double* bt = b_transposed_.data();
    std::size_t off = 0;
    for (std::size_t p = 0; p < count; ++p) {
      const SignatureView& b = bs[p];
      const double* bc = b.centers_data();
      const std::size_t l = b.size();
      batch_off_[p] = off;
      for (std::size_t j = 0; j < l; ++j) {
        for (std::size_t t = 0; t < d; ++t) {
          bt[t * wide_l + off + j] = bc[j * d + t];
        }
      }
      off += l;
    }
    batch_off_[count] = off;
    // ONE vectorized pass fills every pair's K x L_p cost matrix: each wide
    // row is the concatenation of the per-pair rows, and FillCostBlock's
    // per-entry arithmetic is width-invariant (see its comment).
    FillCostBlock(as->centers_data(), k, d, bt, wide_l, ground,
                  batch_cost_.data());
  } else {
    // Shared right operand (the detector's rolling-table shape): transpose
    // B once, reuse it for every pair's fill.
    const std::size_t d = bs->dim();
    const std::size_t l = bs->size();
    Ensure(&b_transposed_, d * l);
    double* bt = b_transposed_.data();
    const double* bc = bs->centers_data();
    for (std::size_t j = 0; j < l; ++j) {
      for (std::size_t t = 0; t < d; ++t) {
        bt[t * l + j] = bc[j * d + t];
      }
    }
    std::size_t off = 0;
    for (std::size_t p = 0; p < count; ++p) {
      const SignatureView& a = as[p];
      batch_off_[p] = off;
      FillCostBlock(a.centers_data(), a.size(), d, bt, l, ground,
                    batch_cost_.data() + off);
      off += a.size() * l;
    }
    batch_off_[count] = off;
  }

  // Entry validation then solve, pair by pair in order — identical error
  // surfacing to the serial loop. The network/Dijkstra scratch is already
  // sized to the batch maxima, so per-pair LayoutShape never allocates; the
  // potentials are re-zeroed inside SolveNetwork for every pair (value
  // warm-starting would change augmentation order and break the bitwise
  // guarantee — only the scratch is warm).
  for (std::size_t p = 0; p < count; ++p) {
    const SignatureView& a = as[p * as_stride];
    const SignatureView& b = bs[p * bs_stride];
    const double* cost = batch_cost_.data() + batch_off_[p];
    const std::size_t stride = shared_left ? wide_l : b.size();
    BAGCPD_RETURN_NOT_OK(ValidateCostBlock(cost, a.size(), b.size(), stride));
    LayoutShape(a.size(), b.size());
    double emd = 0.0;
    double total_flow = 0.0;
    double path_cost = 0.0;
    BAGCPD_RETURN_NOT_OK(
        SolveNetwork(a, b, cost, stride, &emd, &total_flow, &path_cost));
    out[p] = emd;
  }
  return invalid;
}

Result<EmdSolution> EmdWorkspace::ComputeDetailed(SignatureView a,
                                                  SignatureView b,
                                                  GroundDistance ground) {
  BAGCPD_RETURN_NOT_OK(PrepareCost(a, b, ground));
  EmdSolution out;
  BAGCPD_RETURN_NOT_OK(SolveNetwork(a, b, cost_matrix_.data(), l_, &out.emd,
                                    &out.total_flow, &out.cost));
  // The optimal flow on transport arc (i, j) is the residual capacity of its
  // reverse arc, exactly what the reference FlowOn() reads back.
  out.flow = Matrix(k_, l_);
  const std::size_t demand_base = k_ + k_ * (l_ + 1);
  for (std::size_t i = 0; i < k_; ++i) {
    for (std::size_t j = 0; j < l_; ++j) {
      out.flow(i, j) = arc_cap_[demand_base + j * (k_ + 1) + i];
    }
  }
  return out;
}

}  // namespace bagcpd
