// Tests for the paper's §2 "farthest" query forms on the mvp-tree: all
// objects farther than a range, and the k farthest objects.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "core/generalized_mvp_tree.h"
#include "core/mvp_tree.h"
#include "dataset/vector_gen.h"
#include "metric/counting.h"
#include "metric/lp.h"
#include "scan/linear_scan.h"

namespace mvp::core {
namespace {

using metric::L2;
using metric::Vector;
using VecTree = MvpTree<Vector, L2>;

VecTree MustBuild(std::vector<Vector> data, VecTree::Options options = {}) {
  auto result = VecTree::Build(std::move(data), L2(), options);
  EXPECT_TRUE(result.ok());
  return std::move(result).ValueOrDie();
}

TEST(MvpTreeFarthestTest, KFarthestMatchesLinearScan) {
  const auto data = dataset::UniformVectors(600, 8, 7);
  auto tree = MustBuild(data);
  scan::LinearScan<Vector, L2> reference(data, L2());
  const auto queries = dataset::UniformQueryVectors(8, 8, 11);
  for (const auto& q : queries) {
    for (const std::size_t k : {1u, 5u, 20u}) {
      const auto got = tree.FarthestSearch(q, k);
      const auto expected = reference.FarthestSearch(q, k);
      ASSERT_EQ(got.size(), expected.size()) << "k=" << k;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, expected[i].id) << "k=" << k << " i=" << i;
        EXPECT_DOUBLE_EQ(got[i].distance, expected[i].distance);
      }
    }
  }
}

TEST(MvpTreeFarthestTest, FarthestRangeMatchesBruteForce) {
  const auto data = dataset::UniformVectors(500, 6, 13);
  auto tree = MustBuild(data);
  L2 d;
  const auto queries = dataset::UniformQueryVectors(6, 6, 17);
  for (const auto& q : queries) {
    for (const double r : {1.0, 1.4, 1.8, 2.4}) {
      const auto got = tree.FarthestRangeSearch(q, r);
      std::size_t expected = 0;
      for (const auto& x : data) expected += d(q, x) >= r ? 1 : 0;
      ASSERT_EQ(got.size(), expected) << "r=" << r;
      // Sorted by decreasing distance, all >= r.
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_GE(got[i].distance, r);
        if (i > 0) {
          EXPECT_LE(got[i].distance, got[i - 1].distance);
        }
      }
    }
  }
}

TEST(MvpTreeFarthestTest, FarthestRangeZeroReturnsEverything) {
  const auto data = dataset::UniformVectors(100, 4, 19);
  auto tree = MustBuild(data);
  EXPECT_EQ(tree.FarthestRangeSearch(Vector(4, 0.5), 0.0).size(), 100u);
}

TEST(MvpTreeFarthestTest, KLargerThanDataset) {
  const auto data = dataset::UniformVectors(30, 4, 23);
  auto tree = MustBuild(data);
  EXPECT_EQ(tree.FarthestSearch(Vector(4, 0.5), 100).size(), 30u);
}

TEST(MvpTreeFarthestTest, EmptyTree) {
  auto tree = MustBuild({});
  EXPECT_TRUE(tree.FarthestSearch({1, 2}, 3).empty());
  EXPECT_TRUE(tree.FarthestRangeSearch({1, 2}, 0.5).empty());
}

TEST(MvpTreeFarthestTest, PrunesComparedToScan) {
  const auto data = dataset::UniformVectors(8000, 20, 29);
  auto tree = MustBuild(data);
  SearchStats stats;
  // The farthest points from a corner query are well separated from the
  // bulk; the upper-bound pruning must beat the scan.
  tree.FarthestSearch(Vector(20, 0.0), 1, &stats);
  EXPECT_LT(stats.distance_computations, 8000u);
}

TEST(MvpTreeFarthestTest, WorksAcrossParameterSettings) {
  const auto data = dataset::UniformVectors(400, 5, 31);
  scan::LinearScan<Vector, L2> reference(data, L2());
  const Vector q(5, 0.2);
  const auto expected = reference.FarthestSearch(q, 10);
  for (const int m : {2, 3, 4}) {
    for (const int k : {1, 10, 60}) {
      VecTree::Options options;
      options.order = m;
      options.leaf_capacity = k;
      options.num_path_distances = 4;
      auto tree = MustBuild(data, options);
      const auto got = tree.FarthestSearch(q, 10);
      ASSERT_EQ(got.size(), expected.size()) << "m=" << m << " k=" << k;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, expected[i].id) << "m=" << m << " k=" << k;
      }
    }
  }
}

// Exact answers across tree shapes, both bound modes and tied distances:
// farther-than-range against a brute-force scan (radii taken from the
// query's own distances, so each one is a tie at the closed boundary), and
// k-farthest against LinearScan, ids and distances both.
TEST(MvpTreeFarthestTest, ExactAcrossShapesBoundModesAndTies) {
  constexpr std::size_t kN = 300;
  constexpr std::size_t kDim = 4;
  // The second set is rounded to a 0.5 grid: 300 points on at most 3^4
  // positions, so most distances are shared by several ids.
  auto rounded = dataset::UniformVectors(kN, kDim, 59);
  for (auto& x : rounded) {
    for (double& c : x) c = std::round(c * 2.0) / 2.0;
  }
  const std::vector<std::vector<Vector>> sets = {
      dataset::UniformVectors(kN, kDim, 53), rounded};
  // Half the queries are off the grid, half on it.
  auto queries = dataset::UniformQueryVectors(10, kDim, 61);
  for (std::size_t i = 5; i < queries.size(); ++i) {
    for (double& c : queries[i]) c = std::round(c * 2.0) / 2.0;
  }
  auto farther_first = [](const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance > b.distance;
    return a.id < b.id;
  };

  L2 d;
  std::size_t checks = 0;
  std::size_t mismatches = 0;
  auto check = [&](const std::vector<Neighbor>& got,
                   const std::vector<Neighbor>& expected,
                   const std::string& what) {
    ++checks;
    if (got == expected) return;
    if (++mismatches <= 5) {
      ADD_FAILURE() << what << ": got " << got.size() << " results, expected "
                    << expected.size();
    }
  };
  for (std::size_t set = 0; set < sets.size(); ++set) {
    const auto& data = sets[set];
    scan::LinearScan<Vector, L2> reference(data, L2());
    for (const int m : {2, 3, 4}) {
      for (const int cap : {1, 9, 80}) {
        for (const int p : {0, 1, 2, 5}) {
          for (const bool exact : {false, true}) {
            VecTree::Options options;
            options.order = m;
            options.leaf_capacity = cap;
            options.num_path_distances = p;
            options.store_exact_bounds = exact;
            options.seed = 67;
            const auto tree = MustBuild(data, options);
            const std::string shape =
                "set=" + std::to_string(set) + " m=" + std::to_string(m) +
                " k=" + std::to_string(cap) + " p=" + std::to_string(p) +
                " exact=" + std::to_string(exact);
            for (std::size_t qi = 0; qi < queries.size(); ++qi) {
              const auto& q = queries[qi];
              std::vector<Neighbor> all(data.size());
              for (std::size_t id = 0; id < data.size(); ++id) {
                all[id] = Neighbor{id, d(q, data[id])};
              }
              std::sort(all.begin(), all.end(), farther_first);
              for (const std::size_t pos :
                   {std::size_t{0}, std::size_t{1}, std::size_t{9}, kN / 10,
                    kN / 2, kN - 1}) {
                const double r = all[pos].distance;
                std::vector<Neighbor> expected;
                for (const Neighbor& x : all) {
                  if (x.distance >= r) expected.push_back(x);
                }
                check(tree.FarthestRangeSearch(q, r), expected,
                      shape + " q=" + std::to_string(qi) +
                          " r=" + std::to_string(r));
              }
              for (const std::size_t k :
                   {std::size_t{1}, std::size_t{2}, std::size_t{10},
                    std::size_t{37}, kN, kN + 3}) {
                check(tree.FarthestSearch(q, k), reference.FarthestSearch(q, k),
                      shape + " q=" + std::to_string(qi) +
                          " kfar=" + std::to_string(k));
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(checks, 2u * 3 * 3 * 4 * 2 * 10 * 12);
  EXPECT_EQ(mismatches, 0u) << "of " << checks << " checks";
}

// ---------------------------------------------------------------- counter pins
//
// Each sweep folds every search's results (ids and distance bits) and its
// four SearchStats counters into one FNV-1a hash, and checks it against a
// constant. A change to what a search returns, to the order it visits
// children, or to what it charges moves the hash. The constants are
// machine-independent: the vector generators are seeded and every kernel
// tier returns bit-identical distances.

struct SweepPrint {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  std::uint64_t searches = 0;
  std::uint64_t distances = 0;

  void Mix(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (v >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  }
  void Add(const std::vector<Neighbor>& result, const SearchStats& stats) {
    Mix(result.size());
    for (const Neighbor& n : result) {
      Mix(n.id);
      Mix(std::bit_cast<std::uint64_t>(n.distance));
    }
    Mix(stats.distance_computations);
    Mix(stats.nodes_visited);
    Mix(stats.leaf_points_seen);
    Mix(stats.leaf_points_filtered);
    ++searches;
    distances += stats.distance_computations;
  }
};

/// Folds `search(&stats)` into `print`. With a `counter` (the sweep runs
/// under CountingMetric), the search's distance_computations must equal
/// the metric calls the counter saw.
template <typename Search>
void Record(SweepPrint& print, const metric::DistanceCounter* counter,
            Search&& search) {
  const std::uint64_t before = counter != nullptr ? counter->count() : 0;
  SearchStats stats;
  const std::vector<Neighbor> result = search(&stats);
  if (counter != nullptr) {
    EXPECT_EQ(stats.distance_computations, counter->count() - before);
  }
  print.Add(result, stats);
}

/// 54 trees (m x leaf capacity x p x bound mode) x 20 queries, each
/// searched at 5 farther-than radii and 3 values of k.
template <typename Metric>
void FarthestSweep(const Metric& metric,
                   const metric::DistanceCounter* counter, SweepPrint& range,
                   SweepPrint& far_k) {
  using Tree = MvpTree<Vector, Metric>;
  const auto data = dataset::UniformVectors(500, 6, 41);
  const auto queries = dataset::UniformQueryVectors(20, 6, 43);
  for (const int m : {2, 3, 4}) {
    for (const int cap : {1, 13, 80}) {
      for (const int p : {0, 1, 5}) {
        for (const bool exact : {false, true}) {
          typename Tree::Options options;
          options.order = m;
          options.leaf_capacity = cap;
          options.num_path_distances = p;
          options.store_exact_bounds = exact;
          options.seed = 47;
          auto built = Tree::Build(data, metric, options);
          ASSERT_TRUE(built.ok());
          const Tree& tree = built.value();
          for (const auto& q : queries) {
            for (const double r : {0.0, 0.8, 1.2, 1.6, 2.0}) {
              Record(range, counter, [&](SearchStats* stats) {
                return tree.FarthestRangeSearch(q, r, stats);
              });
            }
            for (const std::size_t k : {1u, 7u, 50u}) {
              Record(far_k, counter, [&](SearchStats* stats) {
                return tree.FarthestSearch(q, k, stats);
              });
            }
          }
        }
      }
    }
  }
}

/// 72 generalized trees (v = 1..4 x m x leaf capacity x p) x 20 queries,
/// each searched at 4 radii and 3 values of k.
template <typename Metric>
void GeneralizedSweep(const Metric& metric,
                      const metric::DistanceCounter* counter,
                      SweepPrint& range, SweepPrint& knn) {
  using Tree = GeneralizedMvpTree<Vector, Metric>;
  const auto data = dataset::UniformVectors(500, 6, 71);
  const auto queries = dataset::UniformQueryVectors(20, 6, 73);
  for (const int v : {1, 2, 3, 4}) {
    for (const int m : {2, 3}) {
      for (const int cap : {1, 13, 80}) {
        for (const int p : {0, 1, 5}) {
          typename Tree::Options options;
          options.order = m;
          options.vantage_points = v;
          options.leaf_capacity = cap;
          options.num_path_distances = p;
          options.seed = 79;
          auto built = Tree::Build(data, metric, options);
          ASSERT_TRUE(built.ok());
          const Tree& tree = built.value();
          for (const auto& q : queries) {
            for (const double r : {0.2, 0.4, 0.6, 0.8}) {
              Record(range, counter, [&](SearchStats* stats) {
                return tree.RangeSearch(q, r, stats);
              });
            }
            for (const std::size_t k : {1u, 7u, 50u}) {
              Record(knn, counter, [&](SearchStats* stats) {
                return tree.KnnSearch(q, k, stats);
              });
            }
          }
        }
      }
    }
  }
}

// Recorded from MvpTree's own farthest recursion and GeneralizedMvpTree's
// private search helpers, before either moved onto the shared primitives.
constexpr std::uint64_t kFarRangeHash = 3995557359223322430ull;
constexpr std::uint64_t kFarRangeDistances = 1869699;
constexpr std::uint64_t kFarKHash = 17715670841057379755ull;
constexpr std::uint64_t kFarKDistances = 1148800;
constexpr std::uint64_t kGenRangeHash = 5233403314407506389ull;
constexpr std::uint64_t kGenRangeDistances = 1678888;
constexpr std::uint64_t kGenKnnHash = 14655407475535468335ull;
constexpr std::uint64_t kGenKnnDistances = 1205664;

void ExpectFarthestPins(const SweepPrint& range, const SweepPrint& far_k) {
  EXPECT_EQ(range.searches, 54u * 20 * 5);
  EXPECT_EQ(far_k.searches, 54u * 20 * 3);
  EXPECT_EQ(range.distances, kFarRangeDistances);
  EXPECT_EQ(range.hash, kFarRangeHash);
  EXPECT_EQ(far_k.distances, kFarKDistances);
  EXPECT_EQ(far_k.hash, kFarKHash);
}

void ExpectGeneralizedPins(const SweepPrint& range, const SweepPrint& knn) {
  EXPECT_EQ(range.searches, 72u * 20 * 4);
  EXPECT_EQ(knn.searches, 72u * 20 * 3);
  EXPECT_EQ(range.distances, kGenRangeDistances);
  EXPECT_EQ(range.hash, kGenRangeHash);
  EXPECT_EQ(knn.distances, kGenKnnDistances);
  EXPECT_EQ(knn.hash, kGenKnnHash);
}

TEST(SearchCounterPinTest, FarthestSearchesMatchPinnedHashes) {
  SweepPrint range, far_k;
  FarthestSweep(L2(), nullptr, range, far_k);
  ExpectFarthestPins(range, far_k);
}

TEST(SearchCounterPinTest, FarthestSearchesChargeEveryMetricCall) {
  metric::DistanceCounter counter;
  SweepPrint range, far_k;
  FarthestSweep(metric::MakeCounting(L2(), counter), &counter, range, far_k);
  ExpectFarthestPins(range, far_k);
}

TEST(SearchCounterPinTest, GeneralizedSearchesMatchPinnedHashes) {
  SweepPrint range, knn;
  GeneralizedSweep(L2(), nullptr, range, knn);
  ExpectGeneralizedPins(range, knn);
}

TEST(SearchCounterPinTest, GeneralizedSearchesChargeEveryMetricCall) {
  metric::DistanceCounter counter;
  SweepPrint range, knn;
  GeneralizedSweep(metric::MakeCounting(L2(), counter), &counter, range, knn);
  ExpectGeneralizedPins(range, knn);
}

}  // namespace
}  // namespace mvp::core
