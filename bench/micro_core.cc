// Wall-clock micro-benchmarks (google-benchmark): build and query
// throughput of the core structures. The paper's cost model is distance
// computations (see the fig* benches); this binary complements it with real
// time, confirming the index bookkeeping itself is cheap.

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "core/mvp_tree.h"
#include "dataset/vector_gen.h"
#include "dataset/words.h"
#include "metric/edit_distance.h"
#include "metric/lp.h"
#include "scan/linear_scan.h"
#include "vptree/vp_tree.h"

namespace mvp::bench {
namespace {

using metric::L2;
using metric::Vector;

void BM_MvpTreeBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = dataset::UniformVectors(n, 20, 1);
  core::MvpTree<Vector, L2>::Options options;
  options.order = 3;
  options.leaf_capacity = 80;
  options.num_path_distances = 5;
  for (auto _ : state) {
    auto tree = core::MvpTree<Vector, L2>::Build(data, L2(), options);
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MvpTreeBuild)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_VpTreeBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = dataset::UniformVectors(n, 20, 1);
  for (auto _ : state) {
    auto tree = vptree::VpTree<Vector, L2>::Build(data, L2(), {});
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_VpTreeBuild)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

template <typename Index>
void RunRangeQueries(benchmark::State& state, const Index& index,
                     const std::vector<Vector>& queries, double radius) {
  std::size_t qi = 0;
  for (auto _ : state) {
    auto result = index.RangeSearch(queries[qi], radius);
    benchmark::DoNotOptimize(result);
    qi = (qi + 1) % queries.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_MvpTreeRangeQuery(benchmark::State& state) {
  const auto data = dataset::UniformVectors(20000, 20, 1);
  const auto queries = dataset::UniformQueryVectors(64, 20, 2);
  core::MvpTree<Vector, L2>::Options options;
  options.order = 3;
  options.leaf_capacity = 80;
  options.num_path_distances = 5;
  const auto tree =
      core::MvpTree<Vector, L2>::Build(data, L2(), options).ValueOrDie();
  RunRangeQueries(state, tree, queries,
                  static_cast<double>(state.range(0)) / 100.0);
}
BENCHMARK(BM_MvpTreeRangeQuery)->Arg(15)->Arg(30)->Arg(50);

void BM_VpTreeRangeQuery(benchmark::State& state) {
  const auto data = dataset::UniformVectors(20000, 20, 1);
  const auto queries = dataset::UniformQueryVectors(64, 20, 2);
  const auto tree =
      vptree::VpTree<Vector, L2>::Build(data, L2(), {}).ValueOrDie();
  RunRangeQueries(state, tree, queries,
                  static_cast<double>(state.range(0)) / 100.0);
}
BENCHMARK(BM_VpTreeRangeQuery)->Arg(15)->Arg(30)->Arg(50);

void BM_LinearScanRangeQuery(benchmark::State& state) {
  const auto data = dataset::UniformVectors(20000, 20, 1);
  const auto queries = dataset::UniformQueryVectors(64, 20, 2);
  const scan::LinearScan<Vector, L2> index(data, L2());
  RunRangeQueries(state, index, queries,
                  static_cast<double>(state.range(0)) / 100.0);
}
BENCHMARK(BM_LinearScanRangeQuery)->Arg(15)->Arg(50);

void BM_MvpTreeKnnQuery(benchmark::State& state) {
  const auto data = dataset::UniformVectors(20000, 20, 1);
  const auto queries = dataset::UniformQueryVectors(64, 20, 2);
  core::MvpTree<Vector, L2>::Options options;
  options.order = 3;
  options.leaf_capacity = 80;
  options.num_path_distances = 5;
  const auto tree =
      core::MvpTree<Vector, L2>::Build(data, L2(), options).ValueOrDie();
  const auto k = static_cast<std::size_t>(state.range(0));
  std::size_t qi = 0;
  for (auto _ : state) {
    auto result = tree.KnnSearch(queries[qi], k);
    benchmark::DoNotOptimize(result);
    qi = (qi + 1) % queries.size();
  }
}
BENCHMARK(BM_MvpTreeKnnQuery)->Arg(1)->Arg(10);

void BM_EditDistanceFull(benchmark::State& state) {
  const auto words = dataset::SyntheticWords(256, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& a = words[i % words.size()];
    const auto& b = words[(i * 7 + 3) % words.size()];
    benchmark::DoNotOptimize(metric::EditDistance(a, b));
    ++i;
  }
}
BENCHMARK(BM_EditDistanceFull);

// Strings of state.range(0) bytes, past the one-word (<= 64 byte) path:
// the blocked form walks ceil(m / 64) words per text byte.
void BM_EditDistanceLong(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const auto words = dataset::SyntheticWords(256, 1);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < words.size(); ++i) {
    std::string line;
    for (std::size_t j = i; line.size() < len; ++j) {
      line += words[j % words.size()];
    }
    line.resize(len);
    lines.push_back(std::move(line));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& a = lines[i % lines.size()];
    const auto& b = lines[(i * 7 + 3) % lines.size()];
    benchmark::DoNotOptimize(metric::EditDistance(a, b));
    ++i;
  }
}
BENCHMARK(BM_EditDistanceLong)->Arg(100)->Arg(300);

void BM_EditDistanceBounded(benchmark::State& state) {
  // The bit-parallel kernel with the length-difference exit and a stop once
  // the last-row score can no longer fall back to the bound: small bounds
  // (the range-query case, r = 1..3 edits) stop early on dissimilar words.
  const auto words = dataset::SyntheticWords(256, 1);
  const auto bound = static_cast<unsigned>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& a = words[i % words.size()];
    const auto& b = words[(i * 7 + 3) % words.size()];
    benchmark::DoNotOptimize(metric::BoundedEditDistance(a, b, bound));
    ++i;
  }
}
BENCHMARK(BM_EditDistanceBounded)->Arg(1)->Arg(3);

}  // namespace
}  // namespace mvp::bench

BENCHMARK_MAIN();
