#ifndef MVPTREE_CORE_MVP_SEARCH_H_
#define MVPTREE_CORE_MVP_SEARCH_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/query.h"
#include "core/search_shared.h"
#include "metric/kernels/kernels.h"

/// \file
/// The mvp-tree search of §4.3, written once for every representation.
///
/// Range and k-NN search share one depth-first traversal: distances to the
/// node's vantage points (a primed node substitutes precomputed values,
/// still charged as metric calls), the query PATH array extended while
/// descending, shell pruning (range) or best-bound child order (k-NN), and
/// the leaf filter through D1, D2 and PATH before any distance
/// computation. The metric is a parameter, so callers can route the
/// traversal through an accounting or budget-enforcing wrapper.
///
/// §2's farthest forms, farther-than-range (FarRange) and k-farthest
/// (FarKnn), run the same traversal with the pruning bound turned around:
/// d(Q, vp) plus a shell's upper bound caps every distance in a child, and
/// LeafUpperBound caps a leaf entry's from D1, D2 and PATH. They evaluate
/// every distance on demand; only the heap tree exposes them.
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
///
/// A source may also batch its distances with two hooks: `dim()`, and
/// `GatherDistances(family, query, ids, n, out)` computing out[i] =
/// PairDistance(family, query, row of ids[i]) for n <= kLeafFilterChunk
/// ids (the flat view runs metric::kernels::OneToGathered). The search
/// uses them when the metric opts in (BatchFamily) and the query is a
/// dense vector of length dim(). It then fills distances ahead of use: a
/// range leaf chunk's mask survivors; a k-NN leaf chunk's entries passing
/// at the chunk-start tau; the vantage points of the children a range node
/// will enter, or of the ranked children a k-NN node's current tau admits.
/// Each filled value is consumed where the metric call would have been —
/// through ConsumePrimedDistance, ++distance_computations and the visit —
/// so results, discovery order, SearchStats and budget or deadline cut
/// points do not change. A value never consumed is never charged; an
/// entry or child that was not filled is evaluated on demand. Sources
/// without the hooks (the heap tree) evaluate every distance on demand.

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
[[gnu::always_inline]] inline bool LeafEntryPasses(
    const Leaf& leaf, std::size_t i, double d1, double d2,
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
      : source_(source),
        query_(query),
        metric_(metric),
        stats_(stats),
        batched_(Batches(source, query)) {
    qpath_.reserve(source_.num_path_distances());
    // Room for the children of several levels; deeper paths grow it once.
    pending_.reserve(source_.order() * source_.order() * 8);
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
    const std::size_t begin = pending_.size();
    for (std::size_t g = 0; g < m; ++g) {
      if (!ShellIntersects(d1, radius, b.lower1[g], b.upper1[g])) continue;
      for (std::size_t s = 0; s < m; ++s) {
        const std::size_t c = g * m + s;
        const NodeRef child = source_.child(node, c);
        if (child == Source::kNone) continue;
        if (!ShellIntersects(d2, radius, b.lower2[c], b.upper2[c])) continue;
        pending_.push_back(Pending{0.0, child, {}});
      }
    }
    const std::size_t end = pending_.size();
    FillVantages(begin, end);
    for (std::size_t i = begin; i < end; ++i) {
      const Pending next = pending_[i];  // a copy: the recursion grows pending_
      Range(next.child, radius, out, &next.prime);
    }
    pending_.resize(begin);
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
    const std::size_t m = source_.order();
    const ShellBounds b = source_.bounds(node);
    const std::size_t begin = pending_.size();
    for (std::size_t g = 0; g < m; ++g) {
      const double b1 = std::max({0.0, b.lower1[g] - d1, d1 - b.upper1[g]});
      for (std::size_t s = 0; s < m; ++s) {
        const std::size_t c = g * m + s;
        const NodeRef child = source_.child(node, c);
        if (child == Source::kNone) continue;
        const double b2 =
            std::max({0.0, b.lower2[c] - d2, d2 - b.upper2[c]});
        pending_.push_back(Pending{std::max(b1, b2), child, {}});
      }
    }
    const std::size_t end = pending_.size();
    std::sort(pending_.begin() + static_cast<std::ptrdiff_t>(begin),
              pending_.end(), [](const Pending& a, const Pending& b) {
                return a.bound < b.bound;
              });
    if (batched()) {
      // Fill the children the current tau admits. Tau normally only
      // shrinks, so the loop below enters no child outside this prefix; one
      // it does enter unfilled is evaluated on demand.
      const double tau = KnnTau(heap, k);
      std::size_t admitted = begin;
      while (admitted < end && pending_[admitted].bound <= tau) ++admitted;
      FillVantages(begin, admitted);
    }
    for (std::size_t i = begin; i < end; ++i) {
      if (pending_[i].bound > KnnTau(heap, k)) break;
      const Pending next = pending_[i];  // a copy: the recursion grows pending_
      Knn(next.child, k, heap, &next.prime);
    }
    pending_.resize(begin);
    qpath_.resize(qpath_.size() - pushed);
  }

  /// §2's farther-than-range query: objects at distance >= `radius`,
  /// appended unsorted to `out`. The pruning bound changes direction: a
  /// child is skipped when d(Q, vp) plus its shell's upper bound is below
  /// `radius`, and a leaf entry when its LeafUpperBound is.
  void FarRange(NodeRef node, double radius, std::vector<Neighbor>& out) {
    auto offer = [&](Neighbor n) {
      if (n.distance >= radius) out.push_back(n);
    };
    const auto [d1, d2] = Vantages(node, nullptr, offer);
    if (source_.is_leaf(node)) {
      FarLeaf(source_.leaf(node), d1, d2, [&] { return radius; }, offer);
      return;
    }

    const std::size_t pushed = PushPath(d1, d2);
    const std::size_t m = source_.order();
    const ShellBounds b = source_.bounds(node);
    for (std::size_t g = 0; g < m; ++g) {
      if (d1 + b.upper1[g] < radius) continue;
      for (std::size_t s = 0; s < m; ++s) {
        const std::size_t c = g * m + s;
        const NodeRef child = source_.child(node, c);
        if (child == Source::kNone || d2 + b.upper2[c] < radius) continue;
        FarRange(child, radius, out);
      }
    }
    qpath_.resize(qpath_.size() - pushed);
  }

  /// §2's k-farthest query into the heap `heap` (under FartherFirst) of the
  /// farthest <= k seen so far: children in decreasing order of their
  /// distance upper bound, stopping once it falls below the k-th farthest.
  void FarKnn(NodeRef node, std::size_t k, std::vector<Neighbor>& heap) {
    auto offer = [&](Neighbor n) { FarOffer(heap, k, n); };
    const auto [d1, d2] = Vantages(node, nullptr, offer);
    if (source_.is_leaf(node)) {
      FarLeaf(source_.leaf(node), d1, d2, [&] { return FarTau(heap, k); },
              offer);
      return;
    }

    const std::size_t pushed = PushPath(d1, d2);
    const std::size_t m = source_.order();
    const ShellBounds b = source_.bounds(node);
    const std::size_t begin = pending_.size();
    for (std::size_t g = 0; g < m; ++g) {
      for (std::size_t s = 0; s < m; ++s) {
        const std::size_t c = g * m + s;
        const NodeRef child = source_.child(node, c);
        if (child == Source::kNone) continue;
        pending_.push_back(Pending{
            std::min(d1 + b.upper1[g], d2 + b.upper2[c]), child, {}});
      }
    }
    std::sort(pending_.begin() + static_cast<std::ptrdiff_t>(begin),
              pending_.end(), [](const Pending& a, const Pending& b) {
                return a.bound > b.bound;
              });
    const std::size_t end = pending_.size();
    for (std::size_t i = begin; i < end; ++i) {
      if (pending_[i].bound < FarTau(heap, k)) break;
      FarKnn(pending_[i].child, k, heap);
    }
    pending_.resize(begin);
    qpath_.resize(qpath_.size() - pushed);
  }

 private:
  /// Batching applies when the source gathers object rows for a kernel
  /// (GatherDistances), the metric opts in (BatchFamily), and the query is
  /// a dense vector; the query's length must also match the stored rows
  /// (checked per search), the same rule serve's root priming uses.
  static constexpr bool kBatchable =
      BatchFamily<Metric>::available &&
      requires(const Source& source, const Query& query, const std::size_t* ids,
               double* out) {
        { source.dim() } -> std::convertible_to<std::size_t>;
        source.GatherDistances(metric::kernels::Family{}, query.data(), ids,
                               std::size_t{0}, out);
        { query.data() } -> std::convertible_to<const double*>;
        { query.size() } -> std::convertible_to<std::size_t>;
      };

  static bool Batches([[maybe_unused]] const Source& source,
                      [[maybe_unused]] const Query& query) {
    if constexpr (kBatchable) {
      return query.size() == source.dim();
    } else {
      return false;
    }
  }

  bool batched() const { return kBatchable && batched_; }

  /// An internal node's child awaiting descent: its k-NN lower bound or
  /// k-farthest upper bound (0 in range mode) and, once filled, its
  /// vantage-point distances.
  struct Pending {
    double bound;
    NodeRef child;
    RootPrime prime;
  };

  /// d(Q, object `id`), charged as one distance computation. A primed value
  /// (a caller's root prime, or a batch fill) replaces the metric call but
  /// is still charged to the metric's own accounting, so the charge lands
  /// at the same point of the search either way.
  double Distance(std::size_t id, bool primed, double value) {
    if (primed) {
      ConsumePrimedDistance(metric_);
    } else {
      value = metric_(query_, source_.object(id));
    }
    ++stats_.distance_computations;
    return value;
  }

  /// Enters `node`: d(Q, vp1) and, if present, d(Q, vp2), each charged as
  /// one distance computation and handed to `visit` as a candidate.
  template <typename Visit>
  std::pair<double, double> Vantages(NodeRef node, const RootPrime* prime,
                                     Visit&& visit) {
    ++stats_.nodes_visited;
    const std::size_t vp1 = source_.vp1(node);
    const double d1 = Distance(vp1, prime != nullptr && prime->has_d1,
                               prime != nullptr ? prime->d1 : 0.0);
    visit(Neighbor{vp1, d1});
    double d2 = 0.0;
    if (source_.has_vp2(node)) {
      const std::size_t vp2 = source_.vp2(node);
      d2 = Distance(vp2, prime != nullptr && prime->has_d2,
                    prime != nullptr ? prime->d2 : 0.0);
      visit(Neighbor{vp2, d2});
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

  /// Pass bits of leaf entries [base, base+n) at radius `r`: the leaf's own
  /// RangeMask when it has one, else LeafEntryPasses per entry.
  template <typename Leaf>
  std::uint64_t LeafMask(const Leaf& leaf, std::size_t base, std::size_t n,
                         double d1, double d2, double r) const {
    if constexpr (requires { leaf.RangeMask(base, n, d1, d2, qpath_, r); }) {
      return leaf.RangeMask(base, n, d1, d2, qpath_, r);
    } else {
      std::uint64_t mask = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (LeafEntryPasses(leaf, base + i, d1, d2, qpath_, r)) {
          mask |= std::uint64_t{1} << i;
        }
      }
      return mask;
    }
  }

  /// Runs the gathered kernel over gather_ids_[0, n) into gathered_.
  void Gather(std::size_t n) {
    if constexpr (kBatchable) {
      if (n != 0) {
        source_.GatherDistances(BatchFamily<Metric>::family, query_.data(),
                                gather_ids_, n, gathered_);
      }
    }
  }

  /// Batched search: evaluates the entries of one leaf chunk that `mask`
  /// selects (bit i = entry base + i) in one kernel call; LeafDistance
  /// consumes them.
  template <typename Leaf>
  void FillLeaf(const Leaf& leaf, std::size_t base, std::uint64_t mask) {
    if (!batched()) return;
    leaf_filled_ = mask;
    std::size_t n = 0;
    for (; mask != 0; mask &= mask - 1) {
      gather_ids_[n++] = leaf.id(base + static_cast<std::size_t>(
                                            std::countr_zero(mask)));
    }
    Gather(n);
  }

  /// d(Q, id) for the entry at `bit` of the current leaf chunk: its filled
  /// value when FillLeaf covered it, else a metric call.
  double LeafDistance(std::size_t id, std::size_t bit) {
    if (!batched()) return Distance(id, false, 0.0);
    const std::uint64_t below = leaf_filled_ & ((std::uint64_t{1} << bit) - 1);
    const bool primed = ((leaf_filled_ >> bit) & 1) != 0;
    return Distance(id, primed, primed ? gathered_[std::popcount(below)] : 0.0);
  }

  /// Batched search: fills the vantage distances of children
  /// pending_[begin, end), at most kLeafFilterChunk rows per kernel call
  /// (an order m has m*m children, so long lists go in pieces).
  void FillVantages(std::size_t begin, std::size_t end) {
    if (!batched()) return;
    constexpr std::size_t kPiece = kLeafFilterChunk / 2;  // <= 2 rows each
    for (std::size_t lo = begin; lo < end; lo += kPiece) {
      const std::size_t hi = std::min(end, lo + kPiece);
      std::size_t n = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        const NodeRef child = pending_[i].child;
        gather_ids_[n++] = source_.vp1(child);
        if (source_.has_vp2(child)) gather_ids_[n++] = source_.vp2(child);
      }
      Gather(n);
      n = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        RootPrime& prime = pending_[i].prime;
        prime.d1 = gathered_[n++];
        prime.has_d1 = true;
        if (source_.has_vp2(pending_[i].child)) {
          prime.d2 = gathered_[n++];
          prime.has_d2 = true;
        }
      }
    }
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
          const std::uint64_t mask = LeafMask(leaf, base, n, d1, d2, radius);
          FillLeaf(leaf, base, mask);
          return mask;
        },
        [&](std::size_t i) {
          const std::size_t id = leaf.id(i);
          const double d = LeafDistance(id, i % kLeafFilterChunk);
          if (d <= radius) out.push_back(Neighbor{id, d});
        },
        stats_);
  }

  /// k-NN mode: tau shrinks with every offer, so the filter stays per
  /// entry. A batched search fills each chunk's entries that pass at the
  /// chunk-start tau: as tau only shrinks, that covers every entry the
  /// per-entry test admits (one it does not cover is evaluated on demand).
  template <typename Leaf>
  void KnnLeaf(const Leaf& leaf, std::size_t k, double d1, double d2,
               std::vector<Neighbor>& heap) {
    const std::size_t count = leaf.size();
    for (std::size_t base = 0; base < count; base += kLeafFilterChunk) {
      const std::size_t n = std::min(kLeafFilterChunk, count - base);
      if (batched()) {
        FillLeaf(leaf, base, LeafMask(leaf, base, n, d1, d2, KnnTau(heap, k)));
      }
      for (std::size_t bit = 0; bit < n; ++bit) {
        const std::size_t i = base + bit;
        ++stats_.leaf_points_seen;
        if (!LeafEntryPasses(leaf, i, d1, d2, qpath_, KnnTau(heap, k))) {
          ++stats_.leaf_points_filtered;
          continue;
        }
        const std::size_t id = leaf.id(i);
        KnnOffer(heap, k, Neighbor{id, LeafDistance(id, bit)});
      }
    }
  }

  /// Upper bound on d(Q, entry i) from its stored distances, by d(Q, x) <=
  /// d(Q, v) + d(x, v) for the leaf's vantage points and PATH ancestors.
  template <typename Leaf>
  double LeafUpperBound(const Leaf& leaf, std::size_t i, double d1,
                        double d2) const {
    double ub = d1 + leaf.d1(i);
    if (leaf.has_vp2()) ub = std::min(ub, d2 + leaf.d2(i));
    const std::size_t checks = leaf.path_checks(i, qpath_.size());
    for (std::size_t j = 0; j < checks; ++j) {
      ub = std::min(ub, qpath_[j] + leaf.path(i, j));
    }
    return ub;
  }

  /// A farthest search's leaf: each entry whose LeafUpperBound reaches
  /// `threshold()` is evaluated and offered; the rest are filtered.
  template <typename Leaf, typename Threshold, typename Offer>
  void FarLeaf(const Leaf& leaf, double d1, double d2, Threshold&& threshold,
               Offer&& offer) {
    for (std::size_t i = 0; i < leaf.size(); ++i) {
      ++stats_.leaf_points_seen;
      if (LeafUpperBound(leaf, i, d1, d2) < threshold()) {
        ++stats_.leaf_points_filtered;
        continue;
      }
      const std::size_t id = leaf.id(i);
      offer(Neighbor{id, Distance(id, false, 0.0)});
    }
  }

  const Source source_;  // by value: each field is one load from `this`
  const Query& query_;
  const Metric& metric_;
  SearchStats& stats_;
  const bool batched_;
  /// PATH[l] = d(Q, l-th ancestor vantage point), up to p entries.
  std::vector<double> qpath_;
  /// Children awaiting descent, one run per internal node on the current
  /// path; reused across the whole search.
  std::vector<Pending> pending_;
  /// Batch scratch: object ids to gather, their distances, and which
  /// entries of the current leaf chunk are filled.
  std::size_t gather_ids_[kLeafFilterChunk] = {};
  double gathered_[kLeafFilterChunk] = {};
  std::uint64_t leaf_filled_ = 0;
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
