// Helpers shared by the vector workloads (batch_clustered, rpc_point,
// mixed_rw): held-out query points, L2 radius calibration, the flat
// snapshot set-up and the L2 metric probes.

#ifndef PERFBENCH_FLAT_VECTORS_H_
#define PERFBENCH_FLAT_VECTORS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "dataset/vector_gen.h"
#include "metric/lp.h"
#include "serve/sharded_index.h"

namespace perfbench {

using mvp::metric::L2;
using mvp::metric::Vector;
using FlatIndex = mvp::serve::ShardedMvpIndex<Vector, L2>;
using VectorQuery = mvp::serve::BatchQuery<Vector>;

/// Splits one generator run into data and `num_queries` held-out points at
/// seeded positions, so held-out points come from the same clusters as the
/// data. The held-out points are returned in seeded random order.
void HoldOut(std::vector<Vector> all, std::size_t num_queries,
             std::uint64_t seed, std::vector<Vector>* data,
             std::vector<Vector>* queries);

/// Radius at which a point drawn from `corpus` expects `target` other
/// points within it among `total` indexed ones, estimated from 200 corpus
/// points against 25k others sampled with kCorpusSeed. Held-out queries come
/// from the same generator, so this holds for them too; the radius is a
/// constant of the corpus, not of the run's seed.
double CalibrateL2(const std::vector<Vector>& corpus, double target,
                   std::size_t total);

/// The data part of `params.count` clustered vectors from kCorpusSeed after
/// HoldOut(`num_held`, `seed`): the same objects on every call.
std::vector<Vector> ClusteredData(const mvp::dataset::ClusterParams& params,
                                  std::size_t num_held, std::uint64_t seed);

/// Builds a kShards-shard index over `objects` on the calling thread and
/// commits it with SaveFlat to a snapshot store in `dir`. Records build_s,
/// save_s and the container bytes into `times`. Set-up failures abort: no
/// result can be reported.
void BuildAndSaveFlat(std::vector<Vector> objects, const std::string& dir,
                      SetupTimes* times, std::uint64_t seed);

/// Serves the committed generation of the store in `dir` through OpenFlat.
FlatIndex OpenFlatIndex(const std::string& dir);

/// Reports metric.call_ns (the public L2 call on query-object pairs) and
/// metric.kernel_ns (kernels::ManyToOne per query-vantage pair), measured
/// on `objects`, a sample of the corpus. Returns call_ns.
double ProbeL2(const std::vector<Vector>& objects,
               const std::vector<VectorQuery>& queries, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_FLAT_VECTORS_H_
