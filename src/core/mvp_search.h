#ifndef MVPTREE_CORE_MVP_SEARCH_H_
#define MVPTREE_CORE_MVP_SEARCH_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/query.h"
#include "core/search_shared.h"

/// \file
/// The mvp-tree search of §4.3, written once for every representation.
///
/// Range and k-NN search share one depth-first traversal: distances to the
/// node's vantage points (a batch-primed root substitutes precomputed
/// values, still charged as metric calls), the query PATH array extended
/// while descending, shell pruning (range) or best-bound child order
/// (k-NN), and the leaf filter through D1, D2 and PATH before any distance
/// computation. The metric is a parameter, so callers can route the
/// traversal through an accounting or budget-enforcing wrapper.
///
/// A representation plugs in as a node source: `NodeRef` and its null
/// `kNone`, `root()`, `order()`, `num_path_distances()`, per node
/// `is_leaf`/`has_vp2`/`vp1`/`vp2`/`bounds`/`child(n, c)`, `object(id)`,
/// and `leaf(n)`, a view with `size()`, `id(i)`, `has_vp2()`, `d1(i)`,
/// `d2(i)`, `path_checks(i, qpath_size)` and `path(i, j)`. A leaf view may
/// add `RangeMask(base, n, d1, d2, qpath, radius)` computing a range
/// chunk's pass bits directly, equal to LeafEntryPasses bit for bit (the
/// flat SoA layout sweeps its columns with SIMD). core::MvpTree and
/// snapshot::flat::FlatTreeView are the two sources, so their results,
/// discovery order and SearchStats agree by construction.

namespace mvp::core {

/// Shell bounds of one internal node: child c = g*m + s lies in
/// [lower1[g], upper1[g]] around vp1 and [lower2[c], upper2[c]] around vp2.
struct ShellBounds {
  const double* lower1;
  const double* upper1;
  const double* lower2;
  const double* upper2;
};

/// Step 2 of §4.3 for one leaf entry: can it lie within `r` of the query,
/// judging only from its stored distances to the leaf's vantage points
/// (D1/D2) and to the first ancestors (PATH)? Always inlined: it runs
/// once per leaf entry, and GCC otherwise leaves it an out-of-line call in
/// the heap tree's leaf loops.
template <typename Leaf>
[[gnu::always_inline]] inline bool LeafEntryPasses(const Leaf& leaf, std::size_t i, double d1, double d2,
                     const std::vector<double>& qpath, double r) {
  bool pass = std::abs(d1 - leaf.d1(i)) <= r &&
              (!leaf.has_vp2() || std::abs(d2 - leaf.d2(i)) <= r);
  if (pass) {
    const std::size_t checks = leaf.path_checks(i, qpath.size());
    for (std::size_t j = 0; j < checks; ++j) {
      if (std::abs(qpath[j] - leaf.path(i, j)) > r) {
        pass = false;
        break;
      }
    }
  }
  return pass;
}

/// One depth-first search over a node source. Not reusable: construct one
/// per query (see MvpRangeSearch / MvpKnnSearch).
template <typename Source, typename Query, typename Metric>
class MvpSearch {
 public:
  using NodeRef = typename Source::NodeRef;

  MvpSearch(const Source& source, const Query& query, const Metric& metric,
            SearchStats& stats)
      : source_(source), query_(query), metric_(metric), stats_(stats) {
    qpath_.reserve(source_.num_path_distances());
  }

  /// §4.3 range search; unsorted hits are appended to `out` as found.
  void Range(NodeRef node, double radius, std::vector<Neighbor>& out,
             const RootPrime* prime = nullptr) {
    // Step 1: distances to the node's vantage points.
    const auto [d1, d2] = Vantages(node, prime, [&](Neighbor n) {
      if (n.distance <= radius) out.push_back(n);
    });
    if (source_.is_leaf(node)) {
      RangeLeaf(source_.leaf(node), radius, d1, d2, out);
      return;
    }

    // Step 3.1: extend the query PATH for descendants' leaf filtering.
    const std::size_t pushed = PushPath(d1, d2);
    // Steps 3.2/3.3 generalized: enter child (g, s) iff the query annulus
    // around BOTH vantage points intersects the child's shells.
    const std::size_t m = source_.order();
    const ShellBounds b = source_.bounds(node);
    for (std::size_t g = 0; g < m; ++g) {
      if (!ShellIntersects(d1, radius, b.lower1[g], b.upper1[g])) continue;
      for (std::size_t s = 0; s < m; ++s) {
        const std::size_t c = g * m + s;
        const NodeRef child = source_.child(node, c);
        if (child == Source::kNone) continue;
        if (!ShellIntersects(d2, radius, b.lower2[c], b.upper2[c])) continue;
        Range(child, radius, out);
      }
    }
    qpath_.resize(qpath_.size() - pushed);
  }

  /// Shrinking-radius branch-and-bound k-NN into the max-heap `heap`
  /// (under NeighborLess) of the best <= k seen so far.
  void Knn(NodeRef node, std::size_t k, std::vector<Neighbor>& heap,
           const RootPrime* prime = nullptr) {
    const auto [d1, d2] =
        Vantages(node, prime, [&](Neighbor n) { KnnOffer(heap, k, n); });
    if (source_.is_leaf(node)) {
      KnnLeaf(source_.leaf(node), k, d1, d2, heap);
      return;
    }

    const std::size_t pushed = PushPath(d1, d2);
    // Children in increasing order of their combined lower bound; stop as
    // soon as the bound exceeds the current k-th best.
    struct Ranked {
      double bound;
      NodeRef child;
    };
    const std::size_t m = source_.order();
    const ShellBounds b = source_.bounds(node);
    std::vector<Ranked> ranked;
    ranked.reserve(m * m);
    for (std::size_t g = 0; g < m; ++g) {
      const double b1 = std::max({0.0, b.lower1[g] - d1, d1 - b.upper1[g]});
      for (std::size_t s = 0; s < m; ++s) {
        const std::size_t c = g * m + s;
        const NodeRef child = source_.child(node, c);
        if (child == Source::kNone) continue;
        const double b2 =
            std::max({0.0, b.lower2[c] - d2, d2 - b.upper2[c]});
        ranked.push_back(Ranked{std::max(b1, b2), child});
      }
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked& a, const Ranked& b) { return a.bound < b.bound; });
    for (const Ranked& r : ranked) {
      if (r.bound > KnnTau(heap, k)) break;
      Knn(r.child, k, heap);
    }
    qpath_.resize(qpath_.size() - pushed);
  }

 private:
  /// Enters `node`: d(Q, vp1) and, if present, d(Q, vp2), each charged as
  /// one distance computation and handed to `visit` as a candidate. A
  /// primed root distance replaces the metric call with its precomputed
  /// (bit-identical) value but is still charged to the stats and the
  /// cancellation budget, so batched and unbatched searches agree exactly.
  template <typename Visit>
  std::pair<double, double> Vantages(NodeRef node, const RootPrime* prime,
                                     Visit&& visit) {
    ++stats_.nodes_visited;
    auto distance = [&](std::size_t id, bool primed, double value) {
      if (primed) {
        ConsumePrimedDistance(metric_);
      } else {
        value = metric_(query_, source_.object(id));
      }
      ++stats_.distance_computations;
      visit(Neighbor{id, value});
      return value;
    };
    const double d1 = distance(source_.vp1(node),
                               prime != nullptr && prime->has_d1,
                               prime != nullptr ? prime->d1 : 0.0);
    double d2 = 0.0;
    if (source_.has_vp2(node)) {
      d2 = distance(source_.vp2(node), prime != nullptr && prime->has_d2,
                    prime != nullptr ? prime->d2 : 0.0);
    }
    return {d1, d2};
  }

  /// Appends d1, then d2, to the query PATH while it holds fewer than p
  /// entries; returns how many were pushed (the caller pops them).
  std::size_t PushPath(double d1, double d2) {
    const std::size_t p = source_.num_path_distances();
    std::size_t pushed = 0;
    if (qpath_.size() < p) {
      qpath_.push_back(d1);
      ++pushed;
      if (qpath_.size() < p) {
        qpath_.push_back(d2);
        ++pushed;
      }
    }
    return pushed;
  }

  /// Range mode: the pruning radius is fixed, so a chunk's pass bits are
  /// computed before any metric call (ChunkedRangeFilter fixes the
  /// interleaving of counter updates and metric evaluations).
  template <typename Leaf>
  void RangeLeaf(const Leaf& leaf, double radius, double d1, double d2,
                 std::vector<Neighbor>& out) {
    ChunkedRangeFilter(
        leaf.size(),
        [&](std::size_t base, std::size_t n) -> std::uint64_t {
          if constexpr (requires {
                          leaf.RangeMask(base, n, d1, d2, qpath_, radius);
                        }) {
            return leaf.RangeMask(base, n, d1, d2, qpath_, radius);
          } else {
            std::uint64_t mask = 0;
            for (std::size_t i = 0; i < n; ++i) {
              if (LeafEntryPasses(leaf, base + i, d1, d2, qpath_, radius)) {
                mask |= std::uint64_t{1} << i;
              }
            }
            return mask;
          }
        },
        [&](std::size_t i) {
          const std::size_t id = leaf.id(i);
          const double d = metric_(query_, source_.object(id));
          ++stats_.distance_computations;
          if (d <= radius) out.push_back(Neighbor{id, d});
        },
        stats_);
  }

  /// k-NN mode: tau shrinks with every offer, so the filter stays per
  /// entry — a chunk-wide precomputed mask would use a stale radius.
  template <typename Leaf>
  void KnnLeaf(const Leaf& leaf, std::size_t k, double d1, double d2,
               std::vector<Neighbor>& heap) {
    const std::size_t count = leaf.size();
    for (std::size_t i = 0; i < count; ++i) {
      ++stats_.leaf_points_seen;
      if (!LeafEntryPasses(leaf, i, d1, d2, qpath_, KnnTau(heap, k))) {
        ++stats_.leaf_points_filtered;
        continue;
      }
      const std::size_t id = leaf.id(i);
      const double d = metric_(query_, source_.object(id));
      ++stats_.distance_computations;
      KnnOffer(heap, k, Neighbor{id, d});
    }
  }

  const Source source_;  // by value: each field is one load from `this`
  const Query& query_;
  const Metric& metric_;
  SearchStats& stats_;
  /// PATH[l] = d(Q, l-th ancestor vantage point), up to p entries.
  std::vector<double> qpath_;
};

/// All objects within `radius` of `query`, appended unsorted to `*out`
/// with stats accounted into `*stats` (optional) as the search progresses,
/// so both hold the work done so far if a metric call throws (serve/
/// cancel.h). `prime` optionally supplies the root's distances.
template <typename Source, typename Query, typename Metric>
void MvpRangeSearch(const Source& source, const Query& query, double radius,
                    const Metric& metric, std::vector<Neighbor>* out,
                    SearchStats* stats, const RootPrime* prime = nullptr) {
  MVP_DCHECK(radius >= 0);
  MVP_DCHECK(out != nullptr);
  if (source.root() == Source::kNone) return;
  SearchStats local;
  MvpSearch<Source, Query, Metric> search(source, query, metric,
                                          stats != nullptr ? *stats : local);
  search.Range(source.root(), radius, *out, prime);
}

/// The k nearest objects into the max-heap `*heap` (pass it empty), same
/// accounting and cancellation contract as MvpRangeSearch.
template <typename Source, typename Query, typename Metric>
void MvpKnnSearch(const Source& source, const Query& query, std::size_t k,
                  const Metric& metric, std::vector<Neighbor>* heap,
                  SearchStats* stats, const RootPrime* prime = nullptr) {
  MVP_DCHECK(heap != nullptr);
  if (source.root() == Source::kNone || k == 0) return;
  SearchStats local;
  MvpSearch<Source, Query, Metric> search(source, query, metric,
                                          stats != nullptr ? *stats : local);
  search.Knn(source.root(), k, *heap, prime);
}

}  // namespace mvp::core

#endif  // MVPTREE_CORE_MVP_SEARCH_H_
