#include "flat_vectors.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>

#include "metric/kernels/kernels.h"
#include "snapshot/snapshot_store.h"

namespace perfbench {

void HoldOut(std::vector<Vector> all, std::size_t num_queries,
             std::uint64_t seed, std::vector<Vector>* data,
             std::vector<Vector>* queries) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 17);
  std::vector<bool> held(all.size(), false);
  for (std::size_t chosen = 0; chosen < num_queries;) {
    const std::size_t i = rng() % all.size();
    if (!held[i]) {
      held[i] = true;
      ++chosen;
    }
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    (held[i] ? queries : data)->push_back(std::move(all[i]));
  }
  // Interleave the clusters in query order.
  std::shuffle(queries->begin(), queries->end(), rng);
}

std::vector<Vector> ClusteredData(const mvp::dataset::ClusterParams& params,
                                  std::size_t num_held, std::uint64_t seed) {
  std::vector<Vector> data, held;
  HoldOut(mvp::dataset::ClusteredVectors(params, kCorpusSeed), num_held, seed,
          &data, &held);
  return data;
}

double ProbeL2(const std::vector<Vector>& objects,
               const std::vector<VectorQuery>& queries, Report* report) {
  const std::size_t pairs = 4096;
  const L2 metric;
  const double call_ns = NanosPerCall(pairs, 15, [&](std::size_t i) {
    KeepAlive(metric(queries[i % queries.size()].object,
                     objects[(i * 7919) % objects.size()]));
  });
  std::vector<const double*> qptrs;
  for (std::size_t i = 0; i < kBatchSize; ++i) {
    qptrs.push_back(queries[i].object.data());
  }
  std::vector<double> out(kBatchSize);
  const std::size_t dim = queries[0].object.size();
  const double kernel_ns =
      NanosPerCall(pairs / kBatchSize, 15, [&](std::size_t i) {
        mvp::metric::kernels::ManyToOne(
            mvp::metric::kernels::Family::kL2, qptrs.data(), qptrs.size(),
            objects[(i * 7919) % objects.size()].data(), dim, out.data());
        KeepAlive(out[0]);
      }) /
      static_cast<double>(kBatchSize);
  report->Layer("metric.call_ns", call_ns, "ns");
  report->Layer("metric.kernel_ns", kernel_ns, "ns");
  return call_ns;
}

void BuildAndSaveFlat(std::vector<Vector> objects, const std::string& dir,
                      SetupTimes* times, std::uint64_t seed) {
  FlatIndex::Options options;
  options.num_shards = kShards;
  options.tree.seed = seed;
  const Clock::time_point t0 = Clock::now();
  std::optional<FlatIndex> built =
      FlatIndex::Build(std::move(objects), L2(), options).ValueOrDie();
  const Clock::time_point t1 = Clock::now();
  mvp::snapshot::SnapshotStore store(dir);
  const auto saved = store.SaveFlat(*built);
  if (!saved.ok()) {
    std::fprintf(stderr, "SaveFlat: %s\n", saved.status().ToString().c_str());
    std::abort();
  }
  built.reset();
  times->build_s.push_back(MicrosBetween(t0, t1) / 1e6);
  times->save_s.push_back(SecondsSince(t1));
  times->bytes.push_back(CommittedContainerBytes(dir));
}

FlatIndex OpenFlatIndex(const std::string& dir) {
  auto opened = mvp::snapshot::SnapshotStore(dir).OpenFlat(L2());
  if (!opened.ok()) {
    std::fprintf(stderr, "OpenFlat: %s\n", opened.status().ToString().c_str());
    std::abort();
  }
  return std::move(opened.value().index);
}

double CalibrateL2(const std::vector<Vector>& corpus, double target,
                   std::size_t total) {
  std::mt19937_64 rng(kCorpusSeed + 99);
  std::vector<std::size_t> queries(200), objects(25000);
  for (auto& q : queries) q = rng() % corpus.size();
  for (auto& o : objects) o = rng() % corpus.size();
  const L2 metric;
  return CalibrateRadius(
      queries.size(), objects.size(),
      [&](std::size_t i, std::size_t j) {
        return metric(corpus[queries[i]], corpus[objects[j]]);
      },
      target, total, /*skip_zero=*/true);
}

}  // namespace perfbench
