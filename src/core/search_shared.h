#ifndef MVPTREE_CORE_SEARCH_SHARED_H_
#define MVPTREE_CORE_SEARCH_SHARED_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/query.h"
#include "metric/kernels/kernels.h"

/// \file
/// Search primitives shared by the mvp-tree indexes.
///
/// The pruning and candidate-set arithmetic of the §4.3 traversal
/// (core/mvp_search.h, which serves both the heap tree and the flat
/// mmap-native view) lives here: an annulus/shell intersection test, the
/// k-NN shrinking-radius bookkeeping and its k-farthest mirror (growing
/// threshold, farthest-first order), the chunked range leaf filter, node
/// priming and the batching opt-in, and stats merging.

namespace mvp::core {

/// Does the query annulus [d-r, d+r] intersect the shell [lo, hi]?
inline bool ShellIntersects(double d, double r, double lo, double hi) {
  return d - r <= hi && d + r >= lo;
}

/// Current k-NN pruning radius: the k-th best distance so far, or infinity
/// while the candidate heap is not yet full.
inline double KnnTau(const std::vector<Neighbor>& heap, std::size_t k) {
  return heap.size() < k ? std::numeric_limits<double>::infinity()
                         : heap.front().distance;
}

/// Offers a candidate to the max-heap (under NeighborLess) of the best k.
inline void KnnOffer(std::vector<Neighbor>& heap, std::size_t k, Neighbor n) {
  if (heap.size() < k) {
    heap.push_back(n);
    std::push_heap(heap.begin(), heap.end(), NeighborLess);
  } else if (NeighborLess(n, heap.front())) {
    std::pop_heap(heap.begin(), heap.end(), NeighborLess);
    heap.back() = n;
    std::push_heap(heap.begin(), heap.end(), NeighborLess);
  }
}

/// Farthest-first result order: by decreasing distance, ties by id.
inline bool FartherFirst(const Neighbor& a, const Neighbor& b) {
  if (a.distance != b.distance) return a.distance > b.distance;
  return a.id < b.id;
}

/// Current k-farthest pruning threshold: the k-th farthest distance so far,
/// or 0 while the candidate heap is not yet full.
inline double FarTau(const std::vector<Neighbor>& heap, std::size_t k) {
  return heap.size() < k ? 0.0 : heap.front().distance;
}

/// Offers a candidate to the heap (under FartherFirst) of the k farthest.
/// Its front is the closest of the kept k, the one evicted when something
/// farther arrives, as KnnOffer's front is the farthest of the nearest k.
inline void FarOffer(std::vector<Neighbor>& heap, std::size_t k, Neighbor n) {
  if (heap.size() < k) {
    heap.push_back(n);
    std::push_heap(heap.begin(), heap.end(), FartherFirst);
  } else if (FartherFirst(n, heap.front())) {
    std::pop_heap(heap.begin(), heap.end(), FartherFirst);
    heap.back() = n;
    std::push_heap(heap.begin(), heap.end(), FartherFirst);
  }
}

/// Chunk width of the two-phase range-search leaf filter. 64 entries = one
/// pass/fail bit per position in a std::uint64_t mask, which is also what
/// metric::kernels::AnnulusMask produces per sweep.
inline constexpr std::size_t kLeafFilterChunk = 64;

/// The range-search leaf filter.
///
/// Leaves are processed in kLeafFilterChunk-entry chunks, two phases per
/// chunk: `mask_of(base, n)` computes an n-bit pass mask using only the
/// precomputed D1/D2/PATH arrays (no metric calls — the flat SoA layout runs
/// this as branchless compare+mask sweeps), then the chunk's seen/filtered
/// counters are charged, then `eval(i)` runs the real metric on each
/// surviving entry in ascending order (each call is a cancellation point).
/// Every representation's range leaves funnel through this one structure,
/// so the interleaving of counter updates and metric calls — and therefore
/// SearchStats at any mid-leaf budget cancellation — is identical across
/// representations by construction.
///
/// `mask_of` must leave bits >= n clear.
template <typename MaskFn, typename EvalFn>
void ChunkedRangeFilter(std::size_t count, MaskFn&& mask_of, EvalFn&& eval,
                        SearchStats& stats) {
  for (std::size_t base = 0; base < count; base += kLeafFilterChunk) {
    const std::size_t n = std::min(kLeafFilterChunk, count - base);
    std::uint64_t mask = mask_of(base, n);
    stats.leaf_points_seen += n;
    stats.leaf_points_filtered += n - static_cast<std::size_t>(
        std::popcount(mask));
    while (mask != 0) {
      const unsigned bit = static_cast<unsigned>(std::countr_zero(mask));
      mask &= mask - 1;
      eval(base + bit);
    }
  }
}

/// Precomputed vantage-point distances of one node for one query. Root
/// primes come from serve::RunBatch, which amortises a shard root's vp
/// distances across co-arriving queries with the many-queries-one-vantage-
/// point kernel shape; the batched flat traversal (core/mvp_search.h) primes
/// the children it is about to enter with the gathered shape. A consumer
/// substitutes d1/d2 for its own metric calls on entering the node; the
/// values are bit-identical to what those calls would return, and the
/// consumer still charges SearchStats (and the cancellation budget) for
/// each one, so primed and unprimed searches are indistinguishable in
/// results and stats.
struct RootPrime {
  double d1 = 0.0;
  double d2 = 0.0;
  bool has_d1 = false;
  bool has_d2 = false;
};

/// Charges one primed (already-evaluated) distance to the active
/// cancellation budget, if the metric participates in budget accounting.
template <typename Metric>
inline void ConsumePrimedDistance(const Metric& metric) {
  if constexpr (requires { metric.CountPrimed(); }) {
    metric.CountPrimed();
  }
}

/// Opt-in for batched distance evaluation: `available`, and the kernel
/// `family` whose PairDistance(query, row) is this metric's d(query,
/// object). A bare kernel-family metric (metric::kernels::FamilyFor)
/// qualifies. A wrapper qualifies only by an explicit specialisation, and
/// only when ConsumePrimedDistance replays everything its call does besides
/// computing the distance (serve::CancelChecked); counting wrappers stay
/// per call, so their counts never silently drop.
template <typename Metric>
struct BatchFamily : metric::kernels::FamilyFor<Metric> {};

/// Accumulates one search's counters into an aggregate.
inline void MergeSearchStats(SearchStats* out, const SearchStats& in) {
  out->distance_computations += in.distance_computations;
  out->nodes_visited += in.nodes_visited;
  out->leaf_points_seen += in.leaf_points_seen;
  out->leaf_points_filtered += in.leaf_points_filtered;
}

}  // namespace mvp::core

#endif  // MVPTREE_CORE_SEARCH_SHARED_H_
