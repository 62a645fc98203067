// batch_clustered: the paper's clustered 20-d vector set (§5.1.A set 2) at
// serving scale. 500k vectors under L2 in a 4-shard flat snapshot (MVPZ v2,
// SaveFlat/OpenFlat), queried by held-out points from the same generator in
// a closed loop of 16-query RunBatch calls, 4 range queries (radius
// calibrated for ~10 hits) to each 10-NN query.

#include <string>
#include <vector>

#include "batch_workload.h"
#include "common.h"
#include "dataset/vector_gen.h"
#include "flat_vectors.h"
#include "workloads.h"

namespace perfbench {

namespace {
constexpr std::size_t kObjects = 500000;
constexpr std::size_t kQueries = 2048;
constexpr std::size_t kDim = 20;
constexpr double kTargetHits = 10;
constexpr std::size_t kKnn = 10;
}  // namespace

void RunBatchClustered(const Args& args, Report* report) {
  mvp::dataset::ClusterParams params;
  params.count = kObjects + kQueries;
  params.dim = kDim;
  double radius = 0;
  std::vector<Vector> query_points;
  {
    std::vector<Vector> all = mvp::dataset::ClusteredVectors(params, kCorpusSeed);
    radius = CalibrateL2(all, kTargetHits, kObjects);
    std::vector<Vector> data;
    HoldOut(std::move(all), kQueries, args.seed, &data, &query_points);
  }
  report->Info("range radius " + std::to_string(radius) +
               " calibrated for " + std::to_string(kTargetHits) +
               " expected hits");

  BatchWorkload<Vector, L2> w;
  for (std::size_t i = 0; i < query_points.size(); ++i) {
    VectorQuery q;
    q.object = std::move(query_points[i]);
    if (i % 5 == 4) {
      q.kind = VectorQuery::Kind::kKnn;
      q.k = kKnn;
    } else {
      q.radius = radius;
    }
    w.queries.push_back(std::move(q));
  }
  w.raw_bytes = static_cast<double>(kObjects * kDim * sizeof(double));
  w.corpus = [params, seed = args.seed] {
    return ClusteredData(params, kQueries, seed);
  };
  w.build_and_save = [](std::vector<Vector> objects, const std::string& dir,
                        SetupTimes* times) {
    BuildAndSaveFlat(std::move(objects), dir, times, kCorpusSeed);
  };
  w.open = OpenFlatIndex;
  w.num_reference = 512;
  w.num_check = 128;
  w.hits_lo = kTargetHits / 2;
  w.hits_hi = kTargetHits * 2;
  w.probe_metric = ProbeL2;
  ServeBatchWorkload(args, report, std::move(w));
}

}  // namespace perfbench
