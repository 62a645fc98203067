// mixed_rw: reads beside durable writes on a DynamicOverlay. The base is a
// flat 4-shard snapshot of 100k clustered vectors; the store and its WAL
// live on disk and every group commit fsyncs, as shipped. The load is open
// loop at fixed rates: range reads (radius for ~10 hits) from 2 reader
// threads through RunBatch, and one writer thread sending durable inserts
// of unseen points with every 5th mutation an Erase of a live id. A
// Checkpoint() runs every kCheckpointEvery mutations. Requests are timed
// from when they were due.

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/codec.h"
#include "dataset/vector_gen.h"
#include "dynamic/dynamic_overlay.h"
#include "flat_vectors.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Overlay = mvp::dynamic::DynamicOverlay<Vector, L2, mvp::VectorCodec>;

constexpr std::size_t kObjects = 100000;
constexpr std::size_t kQueries = 2048;
constexpr double kTargetHits = 10;
constexpr std::size_t kReaders = 2;
/// Offered load, part of the workload definition: reads at about a sixth of
/// one reader's closed-loop capacity before load (600-790/s on a 4-vCPU
/// guest), mutations far under the rate one writer's fsyncs sustain alone
/// (~12k/s). Every read also searches the growing memtable under the
/// exclusive overlay mutex; at 200 reads and 200 mutations a second the
/// mutex ran 60-70% busy and read p50 moved 2x between runs.
constexpr double kReadsPerSecond = 100;
constexpr double kMutationsPerSecond = 100;
constexpr std::size_t kEraseEvery = 5;
/// Two checkpoint cycles a second. Each holds the overlay mutex through its
/// fsyncs and delays the reads due meanwhile, about 2% of them: the read p99
/// is then the typical checkpoint stall, averaged over ~30 cycles a phase,
/// rather than whichever rare stall a window happened to catch.
constexpr std::size_t kCheckpointEvery = 50;
constexpr std::size_t kCountingQueries = 256;
/// Unseen points for inserts: enough for two 60-second phases.
constexpr std::size_t kInsertPool = 20000;

struct LoadPhase {
  Clock::time_point start;
  RequestSamples read;                // from due time
  std::vector<double> read_call_us;   // the RunBatch call alone
  std::vector<double> insert_us;      // from due time
  std::vector<double> insert_call_us; // the Insert call alone
  std::vector<double> checkpoint_ms;
  std::vector<double> late_us;        // send time minus due time
  std::uint64_t reads = 0, read_failed = 0;
  std::uint64_t writes = 0, write_failed = 0;
  std::uint64_t read_distances = 0;
  double wall_s = 0;
};

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// The mutable state a load phase starts from and advances: the live ids
/// (by stable id, for the quiesced check), the next unseen point to insert,
/// the mutation count and the erase draws.
struct LoadState {
  std::vector<std::uint64_t> live_ids;
  std::size_t next_unseen = 0;
  std::uint64_t mutations = 0;
  std::mt19937_64 rng;

  LoadState(std::size_t num_objects, std::uint64_t seed)
      : live_ids(num_objects), rng(seed * 0x9E3779B97F4A7C15ull + 31) {
    for (std::size_t i = 0; i < num_objects; ++i) live_ids[i] = i;
  }
};

/// Runs the open-loop load for `seconds`. Mutations insert points from
/// `unseen` and erase live ids, advancing `state`.
LoadPhase RunLoad(Overlay* overlay, const std::vector<VectorQuery>& queries,
                  const std::vector<Vector>& unseen, LoadState* state,
                  double seconds, Tracer* tracer) {
  LoadPhase phase;
  struct ReaderOut {
    RequestSamples read;
    std::vector<double> read_call_us, late_us;
    std::uint64_t reads = 0, failed = 0, distances = 0;
  };
  std::vector<ReaderOut> readers(kReaders);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  const Clock::time_point stop = start + Seconds(seconds);
  const double read_gap = 1.0 / kReadsPerSecond;

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      ReaderOut& out = readers[t];
      TracedIndex<Overlay, Vector> traced(*overlay, tracer);
      std::vector<VectorQuery> one(1);
      for (std::size_t i = t;; i += kReaders) {
        const Clock::time_point due =
            start + Seconds(static_cast<double>(i) * read_gap);
        if (due >= stop) break;
        std::this_thread::sleep_until(due);
        one[0] = queries[i % queries.size()];
        const Clock::time_point sent = Clock::now();
        std::vector<mvp::serve::QueryOutcome> outcomes;
        {
          ScopedSpan span(tracer, "dynamic.read", 0, i);
          if (tracer != nullptr) {
            traced.SetRequest(span.id(), i);
            outcomes = mvp::serve::RunBatch(traced, one, nullptr);
          } else {
            outcomes = mvp::serve::RunBatch(*overlay, one, nullptr);
          }
        }
        const Clock::time_point done = Clock::now();
        ++out.reads;
        if (!outcomes[0].status.ok()) ++out.failed;
        out.distances += outcomes[0].distance_computations;
        out.late_us.push_back(MicrosBetween(due, sent));
        out.read.Add(MicrosBetween(start, done) / 1e6, MicrosBetween(due, done));
        out.read_call_us.push_back(MicrosBetween(sent, done));
      }
    });
  }

  // The writer runs on this thread.
  const double write_gap = 1.0 / kMutationsPerSecond;
  for (std::uint64_t j = 0;; ++j) {
    const Clock::time_point due =
        start + Seconds(static_cast<double>(j) * write_gap);
    if (due >= stop) break;
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    phase.late_us.push_back(MicrosBetween(due, sent));
    const std::uint64_t m = state->mutations++;
    ++phase.writes;
    if (m % kEraseEvery == kEraseEvery - 1) {
      const std::size_t pick = state->rng() % state->live_ids.size();
      const std::uint64_t id = state->live_ids[pick];
      ScopedSpan span(tracer, "dynamic.erase", 0, m);
      if (overlay->Erase(static_cast<std::size_t>(id)).ok()) {
        state->live_ids[pick] = state->live_ids.back();
        state->live_ids.pop_back();
      } else {
        ++phase.write_failed;
      }
    } else {
      if (state->next_unseen >= unseen.size()) {
        ++phase.write_failed;  // sized from the schedule; never expected
        continue;
      }
      const Clock::time_point call = Clock::now();
      const auto id = [&] {
        ScopedSpan span(tracer, "dynamic.insert", 0, m);
        return overlay->Insert(unseen[state->next_unseen]);
      }();
      const Clock::time_point acked = Clock::now();
      phase.insert_call_us.push_back(MicrosBetween(call, acked));
      phase.insert_us.push_back(MicrosBetween(due, acked));
      if (id.ok()) {
        state->live_ids.push_back(id.value());
        ++state->next_unseen;
      } else {
        ++phase.write_failed;
      }
    }
    if ((m + 1) % kCheckpointEvery == 0) {
      const Clock::time_point c0 = Clock::now();
      ScopedSpan span(tracer, "dynamic.checkpoint", 0, m);
      ++phase.writes;
      if (!overlay->Checkpoint().ok()) ++phase.write_failed;
      phase.checkpoint_ms.push_back(SecondsSince(c0) * 1e3);
    }
  }
  for (std::thread& t : threads) t.join();
  phase.start = start;
  phase.wall_s = SecondsSince(start);
  for (const ReaderOut& r : readers) {
    phase.read.Append(r.read);
    phase.read_call_us.insert(phase.read_call_us.end(), r.read_call_us.begin(),
                              r.read_call_us.end());
    phase.late_us.insert(phase.late_us.end(), r.late_us.begin(), r.late_us.end());
    phase.reads += r.reads;
    phase.read_failed += r.failed;
    phase.read_distances += r.distances;
  }
  return phase;
}

/// Quiesced exactness: with every thread stopped, the overlay must answer
/// exactly as a linear scan over the live set does.
void CheckQuiesced(Report* report, const std::string& what,
                   const Overlay& overlay, std::vector<std::uint64_t> live_ids,
                   const std::vector<Vector>& data,
                   const std::vector<Vector>& unseen,
                   const std::vector<VectorQuery>& queries,
                   std::uint64_t seed) {
  std::sort(live_ids.begin(), live_ids.end());
  std::vector<Vector> live_objects;
  live_objects.reserve(live_ids.size());
  for (const std::uint64_t id : live_ids) {
    live_objects.push_back(id < data.size() ? data[id]
                                            : unseen[id - data.size()]);
  }
  if (overlay.size() != live_ids.size()) {
    report->Fail(what + ": overlay holds " + std::to_string(overlay.size()) +
                 " objects, the benchmark tracked " +
                 std::to_string(live_ids.size()));
  }
  const mvp::scan::LinearScan<Vector, L2> scan(std::move(live_objects), L2());
  Counters unused;
  const auto quiesced = CountingPass(overlay, queries, 64, nullptr, &unused);
  CheckAgainstScan(report, what, scan, queries, quiesced, 32, seed,
                   [&live_ids](std::size_t i) {
                     return static_cast<std::size_t>(live_ids[i]);
                   });
}

}  // namespace

void RunMixedRw(const Args& args, Report* report) {
  mvp::dataset::ClusterParams params;
  params.count = kObjects + kQueries + kInsertPool;
  const auto corpus = [&params, seed = args.seed] {
    return ClusteredData(params, kQueries + kInsertPool, seed);
  };
  std::vector<VectorQuery> queries;
  std::vector<Vector> unseen;
  {
    std::vector<Vector> all = mvp::dataset::ClusteredVectors(params, kCorpusSeed);
    const double radius = CalibrateL2(all, kTargetHits, kObjects);
    std::vector<Vector> data, held;
    HoldOut(std::move(all), kQueries + kInsertPool, args.seed, &data, &held);
    unseen.assign(held.begin() + kQueries, held.end());
    held.resize(kQueries);
    report->Info("range radius " + std::to_string(radius) + " calibrated for " +
                 std::to_string(kTargetHits) + " expected hits");
    for (Vector& p : held) {
      VectorQuery q;
      q.object = std::move(p);
      q.radius = radius;
      queries.push_back(std::move(q));
    }
  }

  // Set-up: build, SaveFlat, DynamicOverlay::Open over the store (WAL
  // included), first answered read.
  SetupSteps<Vector, std::unique_ptr<Overlay>> steps;
  steps.corpus = corpus;
  steps.build_and_save = [&](std::vector<Vector> objects, const std::string& dir,
                             SetupTimes* times) {
    BuildAndSaveFlat(std::move(objects), dir, times, kCorpusSeed);
  };
  steps.open = [&](const std::string& dir) {
    auto opened = Overlay::Open(dir, L2(), mvp::VectorCodec{});
    if (!opened.ok()) {
      std::fprintf(stderr, "DynamicOverlay::Open: %s\n",
                   opened.status().ToString().c_str());
      std::abort();
    }
    return std::move(opened).ValueOrDie();
  };
  const std::vector<VectorQuery> first(queries.begin(), queries.begin() + 1);
  steps.first_query = [&](std::unique_ptr<Overlay>& overlay) {
    return mvp::serve::RunBatch(*overlay, first, nullptr)[0].status.ok();
  };
  steps.answer = [&](std::unique_ptr<Overlay>& overlay, int rep) {
    Counters unused;
    const Clock::time_point t0 = Clock::now();
    auto outcomes =
        CountingPass(*overlay, queries, kCountingQueries, nullptr, &unused);
    if (rep == 0) {
      report->Info("one reader's closed-loop capacity before load: " +
                   std::to_string(static_cast<double>(kCountingQueries) /
                                  SecondsSince(t0)) +
                   " reads/s (offered: " + std::to_string(kReadsPerSecond) +
                   ")");
    }
    return outcomes;
  };
  SetupTimes times;
  std::optional<std::unique_ptr<Overlay>> overlay;
  std::vector<mvp::serve::QueryOutcome> reference;
  RepeatSetups(args, "overlay", kCheapSetupReps, steps, report, &times,
               &overlay, &reference);
  Counters counters;
  for (const auto& r : reference) counters.Add(r);
  report->Info("counters before load: " + counters.ToString());
  CheckHitBand(report, "range reads before load", counters.PerQuery(counters.hits),
               kTargetHits / 2, kTargetHits * 2);

  // Load, from the state the set-up left.
  LoadState state(kObjects, args.seed);
  ResetPeakRss();
  StealSampler steal;
  const LoadPhase load =
      RunLoad(overlay->get(), queries, unseen, &state, args.seconds, nullptr);
  steal.Stop();
  times.EmitPeakRss(report, PeakRssMb());
  const LatencySummary inserts = Summarize(load.insert_us);
  ReportRequests(report, "read latency from due time", load.read, load.start,
                 load.wall_s, 1, steal);
  PrintSummary(report, "insert ack latency from due time", inserts, "us");
  PrintSummary(report, "generator lateness", Summarize(load.late_us), "us");
  report->Info("reads=" + std::to_string(load.reads) + " writes=" +
               std::to_string(load.writes) + " checkpoints=" +
               std::to_string(load.checkpoint_ms.size()) + " wall_s=" +
               std::to_string(load.wall_s));
  report->CountOps(load.reads + load.writes, load.read_failed + load.write_failed);
  const double dist_per_read =
      static_cast<double>(load.read_distances) /
      static_cast<double>(std::max<std::uint64_t>(load.reads, 1));
  report->EndToEnd("dist_per_query", dist_per_read, "count");
  times.Emit(report, static_cast<double>(kObjects * params.dim * sizeof(double)));
  CoreLayerMetrics(report, counters);
  CheckQuiesced(report, "quiesced exactness over the live set", **overlay,
                state.live_ids, corpus(), unseen, queries, args.seed);

  if (args.trace) {
    // The traced phase starts from the state the untraced one started from:
    // a fresh set-up of the same store, the same live set and the same
    // mutation stream.
    overlay->reset();
    SetupTimes unused;
    const std::string dir = args.workdir + "/overlay-traced";
    steps.build_and_save(corpus(), dir, &unused);
    std::unique_ptr<Overlay> fresh = steps.open(dir);
    LoadState traced_state(kObjects, args.seed);
    const mvp::wal::WalWriterStats wal_before = fresh->wal_stats();
    Tracer tracer;
    const LoadPhase traced =
        RunLoad(fresh.get(), queries, unseen, &traced_state, args.seconds,
                &tracer);
    const mvp::wal::WalWriterStats wal_after = fresh->wal_stats();
    report->CountOps(traced.reads + traced.writes,
                     traced.read_failed + traced.write_failed);
    const std::vector<Span> spans = tracer.Collect();
    const double search_p50_us = ServeLayerMetrics(
        report, spans, "dynamic.read", traced.wall_s, kReaders);
    const LatencySummary read_call = Summarize(traced.read_call_us);
    const LatencySummary insert_call = Summarize(traced.insert_call_us);
    const LatencySummary checkpoint = Summarize(traced.checkpoint_ms);
    report->Layer("dynamic.read_call_us.p50", read_call.p50, "us");
    report->Layer("dynamic.read_call_us.p99", read_call.p99, "us");
    report->Layer("dynamic.insert_call_us.p50", insert_call.p50, "us");
    report->Layer("dynamic.insert_call_us.p99", insert_call.p99, "us");
    report->Layer("dynamic.checkpoint_ms.p50", checkpoint.p50, "ms");
    report->Layer("dynamic.checkpoint_ms.max", checkpoint.max, "ms");
    report->Layer("dynamic.memtable_objects",
                  static_cast<double>(fresh->memtable_size()), "count");
    const double records =
        static_cast<double>(wal_after.records_synced - wal_before.records_synced);
    const double syncs =
        static_cast<double>(wal_after.sync_batches - wal_before.sync_batches);
    report->Layer("wal.records_per_sync", syncs > 0 ? records / syncs : 0.0,
                  "count");
    report->Layer("wal.bytes_per_record",
                  records > 0 ? static_cast<double>(wal_after.bytes_written -
                                                    wal_before.bytes_written) /
                                    records
                              : 0.0,
                  "bytes");
    report->Layer("wal.syncs_per_s", syncs / traced.wall_s, "1/s");
    report->Layer("gen.late_us.p99", Summarize(traced.late_us).p99, "us");
    report->Layer("insert_p50_us", inserts.p50, "us");
    report->Layer("insert_p99_us", inserts.p99, "us");
    FinishTrace(report, args, tracer, spans, Summarize(load.read.us).p50,
                Summarize(traced.read.us).p50);
    const double call_ns = ProbeL2(unseen, queries, report);
    report->Layer("metric.share", dist_per_read * call_ns / (search_p50_us * 1e3),
                  "ratio");
    CheckQuiesced(report, "quiesced exactness over the live set, traced phase",
                  *fresh, traced_state.live_ids, corpus(), unseen, queries,
                  args.seed);
  }
}

}  // namespace perfbench
