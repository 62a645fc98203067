#ifndef MVPTREE_SNAPSHOT_FLAT_TREE_H_
#define MVPTREE_SNAPSHOT_FLAT_TREE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/query.h"
#include "common/status.h"
#include "core/mvp_search.h"
#include "core/search_shared.h"
#include "metric/kernels/kernels.h"

/// \file
/// The flat mvp-tree: a position-independent, offset-based encoding of one
/// shard tree in a single contiguous arena, searched directly out of the
/// mmap'd snapshot container — zero deserialization, zero per-load
/// allocation. Where the heap tree pays a full pointer-tree reconstruction
/// (object decode, node allocation, bound-vector copies) before its first
/// query, opening a flat arena is: map the file, CRC the chunk, validate
/// the arena's offsets once, and search.
///
/// Layout (all integers little-endian; docs/index_format.md has the
/// byte-level diagrams; every section starts on an 8-byte boundary within
/// the arena, and the snapshot writer 8-aligns the arena's file offset so
/// in-memory records are naturally aligned under both mmap and the heap
/// fallback).
///
/// Version 1 (still read, upgraded to v2 in memory at open; writers emit
/// v2):
///
///   FlatHeaderRec          fixed 144 bytes
///   objects   f64[object_count * dim]   vectors, row-major, viewed in place
///   path      f64[path_count]           the tree's shared PATH pool
///   bounds    f64[bounds_count]         per internal node at `begin`:
///                                       lower1[m] upper1[m]
///                                       lower2[m*m] upper2[m*m]
///   entries   FlatLeafEntryRec[entry_count]   leaf points (D1/D2 + PATH ref)
///   nodes     FlatNodeRec[node_count]         preorder; root is node 0
///   children  u32[children_count]       m*m slots per internal node;
///                                       0xFFFFFFFF = absent child
///
/// Version 2 keeps the 144-byte header prefix byte-compatible (same fields,
/// same offsets) and appends a 48-byte extension, then swaps the leaf
/// encoding from array-of-structs to structure-of-arrays so range-search
/// leaf filtering runs as branchless SIMD compare+mask sweeps straight off
/// the mmap (metric/kernels/kernels.h):
///
///   FlatHeaderRec + FlatHeaderExtRec   fixed 192 bytes
///   objects   f64[object_count * dim]     unchanged
///   path      f64[path_count]             now per-leaf *column-major* PATH
///                                         slabs: leaf slabs in node order,
///                                         slab[j*count + i] = PATH[j] of
///                                         entry i — a contiguous run per
///                                         vantage point, swept 64 wide
///   bounds    f64[bounds_count]           unchanged
///   ids       u32[entry_count]            at entries_offset: leaf point ids
///   d1        f64[entry_count]            contiguous D1[] column
///   d2        f64[entry_count]            contiguous D2[] column
///   leafpaths FlatLeafPathRec[node_count] per-node slab offset + length
///                                         (zeroed for internal nodes)
///   nodes     FlatNodeRec[node_count]     unchanged
///   children  u32[children_count]         unchanged
///
/// ids/d1/d2 are parallel arrays indexed by a leaf's `begin..begin+count`.
/// Slabs are canonical: laid end to end in node order with no gaps or
/// overlap, which ParseFlatArena enforces, so a hostile arena cannot alias
/// slabs or leave them misaligned.
///
/// Safety: the arena is untrusted bytes. ParseFlatArena bounds-checks every
/// offset/count, and a structural pass enforces that child links point
/// strictly forward (preorder), that every node is referenced exactly once,
/// and that depth stays within the same cap as heap deserialization — so a
/// corrupted arena yields Status::Corruption at open, never a crash or an
/// unterminated traversal. Searches run the one traversal core::MvpTree
/// runs (core/mvp_search.h) over this layout's node source, so results and
/// distance-computation counts are bit-identical to the heap tree built
/// from the same stream.

namespace mvp::snapshot::flat {

inline constexpr std::uint32_t kFlatMagic = 0x5a50564d;  // "MVPZ"
inline constexpr std::uint32_t kFlatVersionV1 = 1;
inline constexpr std::uint32_t kFlatVersionV2 = 2;
inline constexpr std::uint32_t kFlatVersionLatest = kFlatVersionV2;
inline constexpr std::uint64_t kNoNode = ~std::uint64_t{0};
inline constexpr std::uint32_t kNullChild = 0xffffffffu;
inline constexpr std::size_t kFlatAlignment = 8;
/// Same nesting cap as MvpTree deserialization.
inline constexpr std::size_t kMaxFlatDepth = 512;

/// Fixed arena header. POD with explicit field order chosen so the struct
/// has no padding; written/read by memcpy on the (little-endian,
/// byte-addressable) targets this library supports.
struct FlatHeaderRec {
  std::uint32_t magic = kFlatMagic;
  std::uint32_t version = kFlatVersionLatest;
  std::uint32_t order = 0;               ///< m
  std::uint32_t leaf_capacity = 0;       ///< k
  std::uint32_t num_path_distances = 0;  ///< p
  std::uint32_t flags = 0;               ///< bit0 = store_exact_bounds
  std::uint32_t dim = 0;                 ///< dimensions per stored vector
  std::uint32_t reserved = 0;
  std::uint64_t object_count = 0;
  std::uint64_t node_count = 0;
  std::uint64_t root = kNoNode;
  std::uint64_t objects_offset = 0;
  std::uint64_t path_offset = 0;
  std::uint64_t path_count = 0;
  std::uint64_t bounds_offset = 0;
  std::uint64_t bounds_count = 0;
  std::uint64_t entries_offset = 0;
  std::uint64_t entry_count = 0;
  std::uint64_t nodes_offset = 0;
  std::uint64_t children_offset = 0;
  std::uint64_t children_count = 0;
  std::uint64_t arena_bytes = 0;
};
static_assert(sizeof(FlatHeaderRec) == 144, "header layout drifted");

/// v2 header extension, immediately after FlatHeaderRec. The 144-byte prefix
/// keeps its exact v1 layout (entries_offset holds the ids section,
/// path_offset/path_count hold the slab pool), so offset-based tooling and
/// the corruption sweep's fixed pokes stay meaningful across versions.
struct FlatHeaderExtRec {
  std::uint64_t d1_offset = 0;
  std::uint64_t d2_offset = 0;
  std::uint64_t leafpaths_offset = 0;
  std::uint64_t reserved0 = 0;
  std::uint64_t reserved1 = 0;
  std::uint64_t reserved2 = 0;
};
static_assert(sizeof(FlatHeaderExtRec) == 48, "header ext layout drifted");

inline constexpr std::size_t kFlatHeaderBytesV1 = sizeof(FlatHeaderRec);
inline constexpr std::size_t kFlatHeaderBytesV2 =
    sizeof(FlatHeaderRec) + sizeof(FlatHeaderExtRec);

inline constexpr std::uint32_t kHeaderExactBounds = 1u << 0;

/// One tree node, 32 bytes. Leaves: `begin`/`count` select a run of leaf
/// entries. Internal nodes: `begin` indexes the bounds pool (2m + 2m*m
/// doubles), `children` indexes m*m slots in the children pool.
struct FlatNodeRec {
  std::uint32_t flags = 0;  ///< bit0 = leaf, bit1 = has_vp2
  std::uint32_t vp1 = 0;
  std::uint32_t vp2 = 0;
  std::uint32_t count = 0;
  std::uint64_t begin = 0;
  std::uint64_t children = 0;
};
static_assert(sizeof(FlatNodeRec) == 32, "node layout drifted");

inline constexpr std::uint32_t kNodeLeaf = 1u << 0;
inline constexpr std::uint32_t kNodeHasVp2 = 1u << 1;

/// One v1 leaf point, 32 bytes: the paper's D1[i]/D2[i] plus its PATH slice.
struct FlatLeafEntryRec {
  std::uint32_t id = 0;
  std::uint32_t path_offset = 0;
  std::uint32_t path_length = 0;
  std::uint32_t reserved = 0;
  double d1 = 0.0;
  double d2 = 0.0;
};
static_assert(sizeof(FlatLeafEntryRec) == 32, "leaf entry layout drifted");

/// One v2 per-node PATH slab descriptor, 16 bytes. For a leaf,
/// `slab_offset` indexes the path pool and the slab holds
/// `path_length * count` doubles column-major (slab[j*count + i]); every
/// entry of a leaf shares one path_length. Zeroed for internal nodes.
struct FlatLeafPathRec {
  std::uint64_t slab_offset = 0;
  std::uint32_t path_length = 0;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(FlatLeafPathRec) == 16, "leaf path layout drifted");

/// Zero-copy view of one stored vector inside the arena. Duck-compatible
/// with std::vector<double> for the Lp metrics' templated operator(), so
/// d(query, stored) runs on the mapped bytes with no materialization.
class VectorView {
 public:
  VectorView(const double* data, std::size_t dim) : data_(data), dim_(dim) {}
  std::size_t size() const { return dim_; }
  double operator[](std::size_t i) const { return data_[i]; }
  const double* data() const { return data_; }

 private:
  const double* data_;
  std::size_t dim_;
};

/// Transcodes one serialized MvpTree stream (the exact bytes
/// MvpTree::Serialize + VectorCodec emit — vector objects only) into a
/// self-contained flat arena. Validates the stream as strictly as
/// MvpTree::Deserialize does; the result is byte-stable for a given stream
/// and version. Writes kFlatVersionLatest; the explicit-version overload
/// exists so tests and corpus generators can still produce v1 arenas.
Result<std::vector<std::uint8_t>> BuildFlatArena(const std::uint8_t* stream,
                                                 std::size_t length);
Result<std::vector<std::uint8_t>> BuildFlatArena(const std::uint8_t* stream,
                                                 std::size_t length,
                                                 std::uint32_t version);

/// A bounds-checked, structurally validated view into a flat arena. All
/// pointers alias the caller's bytes, which must outlive the view.
struct FlatArenaParts {
  FlatHeaderRec header;
  const double* objects = nullptr;
  const double* path = nullptr;
  const double* bounds = nullptr;
  const FlatLeafEntryRec* entries = nullptr;  ///< v1 only
  const FlatNodeRec* nodes = nullptr;
  const std::uint32_t* children = nullptr;
  // v2 structure-of-arrays leaf sections (null for v1 arenas).
  const std::uint32_t* ids = nullptr;
  const double* d1 = nullptr;
  const double* d2 = nullptr;
  const FlatLeafPathRec* leafpaths = nullptr;
};

/// Parses + validates an arena (untrusted bytes): header sanity, section
/// bounds, id ranges, PATH slices, preorder child links, depth cap. Every
/// corrupt offset yields Corruption; a returned view is safe to traverse.
Result<FlatArenaParts> ParseFlatArena(const std::uint8_t* data,
                                      std::size_t size);

/// Upgrades a validated v1 arena (array-of-structs leaves) to the current
/// v2 layout with the same assembly BuildFlatArena uses, so a legacy
/// snapshot serves through the one v2 search path. Corruption when a leaf
/// mixes PATH lengths (no writer emits that; the v2 slab layout cannot
/// represent it).
Result<std::vector<std::uint8_t>> UpgradeFlatArenaV1(
    const FlatArenaParts& v1);

/// Read-only mvp-tree over a validated flat arena. Query objects are dense
/// real vectors; `Metric` must accept (query, VectorView) — all bundled Lp
/// metrics (and serve::CancelChecked wrappers of them) do.
///
/// Searches run core/mvp_search.h, the traversal core::MvpTree runs too,
/// so results, their order of discovery, and every SearchStats counter are
/// bit-identical to the heap tree over the same logical tree
/// (tests/flat_equivalence_test.cc holds this to 1k+ random queries). With
/// a kernel-family metric (or CancelChecked of one) and a dense query of
/// the arena's dimension, the traversal evaluates its distances in gathered
/// kernel batches through this view's node source; each is still charged
/// where the metric call would have been.
/// Thread safety: immutable after Open; const searches are freely
/// concurrent (same contract as MvpTree).
template <typename Metric>
class FlatTreeView {
 public:
  /// Validates `data` and binds the view. A v2 arena is searched in place:
  /// the bytes must stay alive and unmodified for the view's lifetime (the
  /// snapshot path guarantees this by keeping the MmapFile alive alongside
  /// the index). A v1 arena is upgraded to v2 into a copy the view owns
  /// (UpgradeFlatArenaV1), so its source bytes may be freed after Open.
  static Result<FlatTreeView> Open(const std::uint8_t* data, std::size_t size,
                                   Metric metric) {
    auto parts = ParseFlatArena(data, size);
    if (!parts.ok()) return parts.status();
    if (parts.value().header.version == kFlatVersionV2) {
      return FlatTreeView(parts.value(), std::move(metric), nullptr);
    }
    auto upgraded = UpgradeFlatArenaV1(parts.value());
    if (!upgraded.ok()) return upgraded.status();
    auto owned = std::make_shared<const std::vector<std::uint8_t>>(
        std::move(upgraded).ValueOrDie());
    auto v2 = ParseFlatArena(owned->data(), owned->size());
    if (!v2.ok()) return v2.status();
    return FlatTreeView(v2.value(), std::move(metric), std::move(owned));
  }

  std::size_t size() const {
    return static_cast<std::size_t>(p_.header.object_count);
  }
  int order() const { return static_cast<int>(p_.header.order); }
  int leaf_capacity() const {
    return static_cast<int>(p_.header.leaf_capacity);
  }
  int num_path_distances() const {
    return static_cast<int>(p_.header.num_path_distances);
  }
  bool store_exact_bounds() const {
    return (p_.header.flags & kHeaderExactBounds) != 0;
  }
  std::size_t dim() const { return p_.header.dim; }
  /// Format version of the arena handed to Open (1 for an upgraded legacy
  /// arena, which is searched as v2).
  std::uint32_t version() const {
    return owned_ != nullptr ? kFlatVersionV1 : kFlatVersionV2;
  }

  /// Root vantage-point vectors, for batch priming (core::RootPrime):
  /// returns false on an empty tree; *vp2 is null when the root has a single
  /// vantage point. Pointers alias the arena.
  bool RootVantagePoints(const double** vp1, const double** vp2) const {
    if (p_.header.root == kNoNode) return false;
    const FlatNodeRec& root = p_.nodes[p_.header.root];
    *vp1 = p_.objects + root.vp1 * static_cast<std::size_t>(p_.header.dim);
    *vp2 = (root.flags & kNodeHasVp2) != 0
               ? p_.objects + root.vp2 * static_cast<std::size_t>(p_.header.dim)
               : nullptr;
    return true;
  }

  VectorView object(std::size_t id) const {
    MVP_DCHECK(id < p_.header.object_count);
    return VectorView(p_.objects + id * p_.header.dim, p_.header.dim);
  }

  /// Mirrors MvpTree::RangeSearch (sorted by distance then id).
  template <typename Query>
  std::vector<Neighbor> RangeSearch(const Query& query, double radius,
                                    SearchStats* stats = nullptr) const {
    std::vector<Neighbor> result;
    SearchStats local;
    RangeSearchInto(query, radius, &result, &local);
    std::sort(result.begin(), result.end(), NeighborLess);
    if (stats != nullptr) core::MergeSearchStats(stats, local);
    return result;
  }

  /// Mirrors MvpTree::RangeSearchInto — unsorted append into `*out`; a
  /// cancellation unwinding mid-search leaves the hits found so far.
  /// `root_prime` optionally substitutes precomputed root vantage-point
  /// distances (serve::RunBatch priming); results and stats are bit-identical
  /// with or without it.
  template <typename Query>
  void RangeSearchInto(const Query& query, double radius,
                       std::vector<Neighbor>* out,
                       SearchStats* stats = nullptr,
                       const core::RootPrime* root_prime = nullptr) const {
    core::MvpRangeSearch(Nodes{p_}, query, radius, metric_, out, stats,
                         root_prime);
  }

  /// Mirrors MvpTree::KnnSearch (sorted by distance then id).
  template <typename Query>
  std::vector<Neighbor> KnnSearch(const Query& query, std::size_t k,
                                  SearchStats* stats = nullptr) const {
    std::vector<Neighbor> heap;
    SearchStats local;
    KnnSearchInto(query, k, &heap, &local);
    std::sort_heap(heap.begin(), heap.end(), NeighborLess);
    if (stats != nullptr) core::MergeSearchStats(stats, local);
    return heap;
  }

  /// Mirrors MvpTree::KnnSearchInto — `*heap` is a max-heap under
  /// NeighborLess holding the best <= k seen so far.
  template <typename Query>
  void KnnSearchInto(const Query& query, std::size_t k,
                     std::vector<Neighbor>* heap,
                     SearchStats* stats = nullptr,
                     const core::RootPrime* root_prime = nullptr) const {
    core::MvpKnnSearch(Nodes{p_}, query, k, metric_, heap, stats, root_prime);
  }

 private:
  /// Node source for the shared traversal (core/mvp_search.h): nodes are
  /// arena indices, leaves the v2 structure-of-arrays columns.
  struct Nodes {
    using NodeRef = std::uint64_t;
    static constexpr NodeRef kNone = kNoNode;

    /// One leaf's ids/D1/D2 column runs and its column-major PATH slab.
    struct Leaf {
      const std::uint32_t* ids;
      const double* d1s;
      const double* d2s;
      const double* slab;
      std::size_t count;
      std::size_t path_length;
      bool vp2;

      std::size_t size() const { return count; }
      std::size_t id(std::size_t i) const { return ids[i]; }
      bool has_vp2() const { return vp2; }
      double d1(std::size_t i) const { return d1s[i]; }
      double d2(std::size_t i) const { return d2s[i]; }
      std::size_t path_checks(std::size_t, std::size_t qpath_size) const {
        return std::min(qpath_size, path_length);
      }
      double path(std::size_t i, std::size_t j) const {
        return slab[j * count + i];
      }

      /// Range-mode pass bits for entries [base, base+n): branchless
      /// compare+mask sweeps (metric::kernels::AnnulusMask) over the
      /// contiguous columns, bit-identical to core::LeafEntryPasses.
      std::uint64_t RangeMask(std::size_t base, std::size_t n, double q1,
                              double q2, const std::vector<double>& qpath,
                              double radius) const {
        using metric::kernels::AnnulusMask;
        std::uint64_t mask = AnnulusMask(q1, d1s + base, n, radius);
        if (vp2 && mask != 0) mask &= AnnulusMask(q2, d2s + base, n, radius);
        const std::size_t checks = std::min(qpath.size(), path_length);
        for (std::size_t j = 0; j < checks && mask != 0; ++j) {
          mask &= AnnulusMask(qpath[j], slab + j * count + base, n, radius);
        }
        return mask;
      }
    };

    FlatArenaParts arena;  // a copy, so each field is one load away

    NodeRef root() const { return arena.header.root; }
    std::size_t order() const { return arena.header.order; }
    std::size_t num_path_distances() const {
      return arena.header.num_path_distances;
    }
    bool is_leaf(NodeRef n) const {
      return (arena.nodes[n].flags & kNodeLeaf) != 0;
    }
    bool has_vp2(NodeRef n) const {
      return (arena.nodes[n].flags & kNodeHasVp2) != 0;
    }
    std::size_t vp1(NodeRef n) const { return arena.nodes[n].vp1; }
    std::size_t vp2(NodeRef n) const { return arena.nodes[n].vp2; }
    core::ShellBounds bounds(NodeRef n) const {
      const std::size_t m = arena.header.order;
      const double* lower1 = arena.bounds + arena.nodes[n].begin;
      return {lower1, lower1 + m, lower1 + 2 * m, lower1 + 2 * m + m * m};
    }
    NodeRef child(NodeRef n, std::size_t c) const {
      const std::uint32_t kid = arena.children[arena.nodes[n].children + c];
      return kid == kNullChild ? kNoNode : kid;
    }
    Leaf leaf(NodeRef n) const {
      const FlatNodeRec& node = arena.nodes[n];
      const FlatLeafPathRec& lp = arena.leafpaths[n];
      return {arena.ids + node.begin, arena.d1 + node.begin, arena.d2 + node.begin,
              arena.path + lp.slab_offset, node.count, lp.path_length,
              (node.flags & kNodeHasVp2) != 0};
    }
    VectorView object(std::size_t id) const {
      return VectorView(arena.objects + id * arena.header.dim, arena.header.dim);
    }

    /// Batch hooks: out[i] = d(query, object(ids[i])) for n <= 64 ids in
    /// one gathered kernel call (metric::kernels::OneToGathered), each row
    /// prefetched first — the rows are scattered across the object section.
    std::size_t dim() const { return arena.header.dim; }
    void GatherDistances(metric::kernels::Family family, const double* query,
                         const std::size_t* ids, std::size_t n,
                         double* out) const {
      MVP_DCHECK(n <= core::kLeafFilterChunk);
      const std::size_t dim = arena.header.dim;
      const double* rows[core::kLeafFilterChunk];
      for (std::size_t i = 0; i < n; ++i) {
        rows[i] = arena.objects + ids[i] * dim;
        for (std::size_t j = 0; j < dim; j += 8) {
          __builtin_prefetch(rows[i] + j);
        }
        if (dim != 0) __builtin_prefetch(rows[i] + dim - 1);
      }
      metric::kernels::OneToGathered(family, query, rows, n, dim, out);
    }
  };

  FlatTreeView(const FlatArenaParts& parts, Metric metric,
               std::shared_ptr<const std::vector<std::uint8_t>> owned)
      : p_(parts), metric_(std::move(metric)), owned_(std::move(owned)) {}

  FlatArenaParts p_;  ///< always a v2 view
  Metric metric_;
  /// The upgraded copy of a v1 arena (p_ aliases it); null for v2.
  std::shared_ptr<const std::vector<std::uint8_t>> owned_;
};

}  // namespace mvp::snapshot::flat

#endif  // MVPTREE_SNAPSHOT_FLAT_TREE_H_
