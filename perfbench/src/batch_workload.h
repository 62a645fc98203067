// The closed-loop batch workload shape shared by batch_clustered and
// words_edit: set up a snapshot-served ShardedMvpIndex several times, prove
// its counters deterministic and its answers exact, then run back-to-back
// kBatchSize-query serve::RunBatch calls for the measured interval.

#ifndef PERFBENCH_BATCH_WORKLOAD_H_
#define PERFBENCH_BATCH_WORKLOAD_H_

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "metric/kernels/kernels.h"
#include "scan/linear_scan.h"
#include "serve/executor.h"
#include "serve/sharded_index.h"
#include "serve/thread_pool.h"

namespace perfbench {

template <typename Object, typename Metric>
struct BatchWorkload {
  using Index = mvp::serve::ShardedMvpIndex<Object, Metric>;
  using Query = mvp::serve::BatchQuery<Object>;

  /// Makes the corpus; every call returns the same objects.
  std::function<std::vector<Object>()> corpus;
  /// The served queries, a multiple of kBatchSize, cycled by the timed loop.
  std::vector<Query> queries;
  /// Prefix of `queries` answered by the reference pass: its answers are
  /// checked in every timed call and give the exact counters.
  std::size_t num_reference = 0;
  /// Shorter prefix re-run by the set-up, kernel-tier and tracing checks.
  std::size_t num_check = 0;
  Metric metric;
  /// Builds an index over the objects and commits it to a snapshot store in
  /// the directory; records build_s, save_s and bytes.
  std::function<void(std::vector<Object>, const std::string&, SetupTimes*)>
      build_and_save;
  /// Opens the committed store in the directory for serving.
  std::function<Index(const std::string&)> open;
  int setup_reps = kSetupReps;
  /// Raw size of the corpus in bytes (the space_amp denominator).
  double raw_bytes = 0;
  /// Accepted band for the mean hits of the range queries.
  double hits_lo = 0, hits_hi = 0;
  /// Fail when any query returns no answer.
  bool require_answer = false;
  /// Measures metric.call_ns and, where batch kernels apply,
  /// metric.kernel_ns on a sample of the corpus. Returns call_ns.
  std::function<double(const std::vector<Object>& sample,
                       const std::vector<Query>& queries, Report* report)>
      probe_metric;
};

template <typename Object, typename Metric>
void ServeBatchWorkload(const Args& args, Report* report,
                        BatchWorkload<Object, Metric> w) {
  using Index = typename BatchWorkload<Object, Metric>::Index;
  using Query = typename BatchWorkload<Object, Metric>::Query;

  mvp::serve::ThreadPool serve_pool(kBatchWorkers);
  // The timed set-up builds and opens on the calling thread alone (see
  // kSetupReps); the untimed check passes use every core. Counts and
  // answers do not depend on the pool.
  std::optional<mvp::serve::ThreadPool> check_pool(std::in_place, kShards);
  const std::vector<Query> first_batch(
      w.queries.begin(), w.queries.begin() + static_cast<std::ptrdiff_t>(kBatchSize));
  SetupSteps<Object, Index> steps;
  steps.corpus = w.corpus;
  steps.build_and_save = w.build_and_save;
  steps.open = w.open;
  steps.first_query = [&](Index& index) {
    for (const auto& outcome : mvp::serve::RunBatch(index, first_batch, &serve_pool)) {
      if (!outcome.status.ok()) return false;
    }
    return true;
  };
  steps.answer = [&](Index& index, int rep) {
    Counters unused;
    return CountingPass(index, w.queries, rep == 0 ? w.num_reference : w.num_check,
                        &*check_pool, &unused);
  };
  SetupTimes times;
  std::optional<Index> index;
  std::vector<mvp::serve::QueryOutcome> reference;
  RepeatSetups(args, "store", w.setup_reps, steps, report, &times, &index,
               &reference);
  Counters counters;        // over the reference prefix
  Counters check_counters;  // over the check prefix
  for (std::size_t i = 0; i < reference.size(); ++i) {
    counters.Add(reference[i]);
    if (i < w.num_check) check_counters.Add(reference[i]);
  }
  report->Info("counters: " + counters.ToString());

  // The same counters under the scalar kernel tier and through the traced
  // adapter.
  {
    const std::string native =
        mvp::metric::kernels::TierName(mvp::metric::kernels::ActiveTier());
    if (!mvp::metric::kernels::ForceTier("scalar").ok()) {
      report->Fail("cannot force the scalar kernel tier");
    }
    Counters scalar;
    const auto outcomes =
        CountingPass(*index, w.queries, w.num_check, &*check_pool, &scalar);
    if (!mvp::metric::kernels::ForceTier(native).ok()) {
      report->Fail("cannot restore the " + native + " kernel tier");
    }
    CheckSameCounters(report, "scalar tier vs " + native, check_counters,
                      scalar);
    CheckSameOutcomes(report, "scalar tier", reference, outcomes);

    Tracer tracer;
    TracedIndex<Index, Object> traced(*index, &tracer);
    Counters via_adapter;
    const auto traced_outcomes =
        CountingPass(traced, w.queries, w.num_check, &*check_pool, &via_adapter);
    CheckSameCounters(report, "traced vs untraced", check_counters,
                      via_adapter);
    CheckSameOutcomes(report, "traced adapter", reference, traced_outcomes);
  }

  // Non-degeneracy.
  double range_hits = 0, range_queries = 0, range_dist = 0, knn_dist = 0;
  std::size_t empty = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (reference[i].neighbors.empty()) ++empty;
    const auto dist = static_cast<double>(reference[i].distance_computations);
    if (w.queries[i].kind == Query::Kind::kRange) {
      range_hits += static_cast<double>(reference[i].neighbors.size());
      range_queries += 1;
      range_dist += dist;
    } else {
      knn_dist += dist;
    }
  }
  const double knn_queries = static_cast<double>(reference.size()) - range_queries;
  report->Info("distances per range query " +
               std::to_string(range_dist / range_queries) +
               ", per k-NN query " +
               std::to_string(knn_queries > 0 ? knn_dist / knn_queries : 0.0));
  CheckHitBand(report, "range queries", range_hits / range_queries, w.hits_lo,
               w.hits_hi);
  if (w.require_answer && empty != 0) {
    report->Fail(std::to_string(empty) + " queries returned no answer");
  }

  check_pool.reset();
  const auto no_request = [](std::uint64_t, std::uint64_t) {};
  // Let caches fill before timing.
  (void)RunBatchPhase(*index, w.queries, reference, &serve_pool,
                      std::min(1.0, args.seconds / 10), nullptr, no_request);
  ResetPeakRss();
  StealSampler steal;
  const BatchPhase untraced = RunBatchPhase(
      *index, w.queries, reference, &serve_pool, args.seconds, nullptr,
      no_request);
  steal.Stop();
  times.EmitPeakRss(report, PeakRssMb());
  ReportBatchPhase(report, untraced, steal);

  // Exactness, after the measured phase, so the scan's copy of the corpus
  // never sits in the heap beside a set-up or the served index.
  std::vector<Object> sample;  // for the metric probe
  {
    const mvp::scan::LinearScan<Object, Metric> scan(w.corpus(), w.metric);
    CheckAgainstScan(report, "exactness", scan, w.queries, reference, 48,
                     args.seed);
    for (std::size_t i = 0; i < 4096; ++i) {
      sample.push_back(scan.object((i * 7919) % scan.size()));
    }
  }
  report->EndToEnd("dist_per_query", counters.PerQuery(counters.distances),
                   "count");
  times.Emit(report, w.raw_bytes);
  CoreLayerMetrics(report, counters);

  if (args.trace) {
    Tracer tracer;
    TracedIndex<Index, Object> traced(*index, &tracer);
    const BatchPhase phase = RunBatchPhase(
        traced, w.queries, reference, &serve_pool, args.seconds, &tracer,
        [&traced](std::uint64_t span, std::uint64_t request) {
          traced.SetRequest(span, request);
        });
    if (phase.failed != 0 || phase.mismatched != 0) {
      report->Fail("traced phase: failed or mismatched answers");
    }
    const std::vector<Span> spans = tracer.Collect();
    const double search_p50_us = ServeLayerMetrics(
        report, spans, "serve.run_batch", phase.wall_s, kBatchWorkers + 1);
    const double call_ns = w.probe_metric(sample, w.queries, report);
    report->Layer("metric.share",
                  counters.PerQuery(counters.distances) * call_ns /
                      (search_p50_us * 1e3),
                  "ratio");
    FinishTrace(report, args, tracer, spans, Summarize(untraced.calls.us).p50,
                Summarize(phase.calls.us).p50);
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_BATCH_WORKLOAD_H_
